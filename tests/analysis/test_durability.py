"""Tests for the REPRO23x durability-discipline pass."""

from repro.analysis.callgraph import build_call_graph
from repro.analysis.durability import check_durability
from repro.analysis.lint import LintContext

from .conftest import build_graph


def findings_for(tmp_path, plants):
    return check_durability(build_graph(tmp_path, plants))


class TestRawWrites:
    def test_every_raw_sink_is_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path, [("durability_bad.py", "store/writer.py")]
        )
        raw = [f for f in findings if f.rule == "REPRO230"]
        # write_text in save, open-w + json.dump in save_handle,
        # write_text in fake_atomic.
        assert len(raw) == 4
        messages = " ".join(f.message for f in raw)
        assert "atomic_write_text" in messages
        assert {f.symbol for f in raw} == {
            "ManifestWriter.save",
            "ManifestWriter.save_handle",
            "ManifestWriter.fake_atomic",
        }

    def test_rename_without_fsync_is_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path, [("durability_bad.py", "store/writer.py")]
        )
        renames = [f for f in findings if f.rule == "REPRO231"]
        assert len(renames) == 1
        assert renames[0].symbol == "ManifestWriter.fake_atomic"


class TestRawJournalAppends:
    def test_os_open_for_write_is_flagged_in_store_and_tuning(self, tmp_path):
        findings = findings_for(tmp_path, [
            ("journal_bad.py", "store/journal.py"),
            ("journal_bad.py", "tuning/journal.py"),
        ])
        raw = [f for f in findings if f.rule == "REPRO230"]
        assert sorted((f.path, f.symbol) for f in raw) == [
            ("store/journal.py", "RawJournal.append"),
            ("store/journal.py", "RawJournal.reopen"),
            ("tuning/journal.py", "RawJournal.append"),
            ("tuning/journal.py", "RawJournal.reopen"),
        ]
        assert all("SnapshotJournal" in f.message for f in raw)

    def test_fsutil_journal_and_read_only_open_pass(self, tmp_path):
        assert findings_for(
            tmp_path, [("journal_ok.py", "store/journal.py")]
        ) == []

    def test_fsutil_may_append(self, tmp_path):
        assert findings_for(
            tmp_path, [("journal_bad.py", "store/fsutil.py")]
        ) == []


class TestCleanCode:
    def test_atomic_sink_and_fsynced_swap_pass(self, tmp_path):
        assert findings_for(
            tmp_path, [("durability_ok.py", "store/writer.py")]
        ) == []

    def test_out_of_scope_modules_are_ignored(self, tmp_path):
        assert findings_for(
            tmp_path, [("durability_bad.py", "docs/writer.py")]
        ) == []

    def test_named_durable_files_are_in_scope_anywhere(self, tmp_path):
        findings = findings_for(
            tmp_path, [("durability_bad.py", "core/plan_cache.py")]
        )
        assert any(f.rule == "REPRO230" for f in findings)

    def test_fsutil_itself_is_exempt(self, tmp_path):
        findings = findings_for(
            tmp_path, [("durability_bad.py", "store/fsutil.py")]
        )
        assert findings == []

    def test_str_replace_is_not_a_rename(self, tmp_path):
        target = tmp_path / "store" / "munge.py"
        target.parent.mkdir()
        target.write_text(
            "def save(path, text):\n"
            "    cleaned = text.replace('a', 'b')\n"
            "    path.write_text(cleaned)"
            "  # repro-analysis: ignore[REPRO230]\n"
        )
        graph = build_call_graph(
            [LintContext.for_file(target, "store/munge.py")]
        )
        assert check_durability(graph) == []


class TestSuppression:
    def test_multi_rule_pragma_on_one_line(self, tmp_path):
        target = tmp_path / "store" / "quiet.py"
        target.parent.mkdir()
        target.write_text(
            "import os\n"
            "def swap(path, tmp, text):\n"
            "    tmp.write_text(text)"
            "  # repro-analysis: ignore[REPRO230,REPRO231]\n"
            "    os.replace(tmp, path)"
            "  # repro-analysis: ignore[REPRO231]\n"
        )
        graph = build_call_graph(
            [LintContext.for_file(target, "store/quiet.py")]
        )
        assert check_durability(graph) == []

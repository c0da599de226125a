"""check-plan on stores with a manifest journal (REPRO310/312)."""

import json

from repro.analysis import verify_plan_store
from repro.compile.pipeline import compile_fixed
from repro.fsutil import journal_path
from repro.hardware.variants import spec_by_name
from repro.store.plan_store import PlanStore


def killed_store(tmp_path, networks=("lenet", "squeezenet", "fcnn")):
    """A store whose run died before compaction: the first entry is in
    manifest.json, the others only in manifest.log."""
    store = PlanStore(tmp_path / "store")
    for network in networks:
        store.put(compile_fixed(
            network, spec_by_name("raspberry-pi-4"), placement="cpu"
        ).artifact)
    log = journal_path(store.manifest_path)
    assert log.read_bytes().count(b"\n") == len(networks) - 1
    return store, log


def rules(findings):
    return sorted({(f.rule, f.severity) for f in findings})


class TestJournaledEntries:
    def test_killed_run_is_clean_with_no_false_orphans(self, tmp_path):
        store, _ = killed_store(tmp_path)
        assert verify_plan_store(store.root) == []

    def test_tombstoned_entry_and_its_object_are_gone(self, tmp_path):
        store, _ = killed_store(tmp_path)
        key = next(iter(store.entries().values())).key
        store.remove(key)
        assert verify_plan_store(store.root) == []

    def test_journaled_entry_objects_are_still_checked(self, tmp_path):
        store, log = killed_store(tmp_path)
        last = json.loads(log.read_bytes().splitlines()[-1])
        store.object_path(last["record"]["sha256"]).unlink()
        findings = verify_plan_store(store.root)
        assert rules(findings) == [("REPRO311", "error")]
        assert findings[0].symbol == last["id"]


class TestJournalLines:
    def test_corrupt_complete_line_is_an_error(self, tmp_path):
        store, log = killed_store(tmp_path)
        lines = log.read_bytes().splitlines(keepends=True)
        lines[0] = b'{"id": "x"\n'
        log.write_bytes(b"".join(lines))
        findings = verify_plan_store(store.root)
        # Its object is no longer indexed by anything: an orphan too.
        assert rules(findings) == [
            ("REPRO310", "error"), ("REPRO312", "warning"),
        ]
        (corrupt,) = [f for f in findings if f.rule == "REPRO310"]
        assert corrupt.path == str(log)
        assert "line 1" in corrupt.message

    def test_malformed_record_is_an_error(self, tmp_path):
        store, log = killed_store(tmp_path)
        lines = log.read_bytes().splitlines(keepends=True)
        entry = json.loads(lines[-1])
        entry["record"]["sha256"] = "short"
        lines[-1] = (json.dumps(entry) + "\n").encode()
        log.write_bytes(b"".join(lines))
        findings = verify_plan_store(store.root)
        assert ("REPRO310", "error") in rules(findings)
        assert any(
            f.rule == "REPRO310" and f.symbol == entry["id"]
            for f in findings
        )

    def test_torn_tail_is_a_warning(self, tmp_path):
        store, log = killed_store(tmp_path)
        log.write_bytes(log.read_bytes() + b'{"id": "half-writ')
        findings = verify_plan_store(store.root)
        assert rules(findings) == [("REPRO310", "warning")]
        assert "torn" in findings[0].message

"""CLI error contract: ReproError => exit code 2, one-line message.

And the fault determinism gate: the same seeded serve in two *fresh*
interpreter processes must print identical fault-timeline and report
digests (CI replays exactly this check).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ),
}


def repro(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=ENV, timeout=timeout,
    )


SERVE_FAST = (
    "serve", "--network", "lenet", "--arrival-rate", "20",
    "--duration", "1.0", "--max-batch", "2", "--seed", "7",
)


class TestExitCodes:
    def test_unknown_fault_scenario_exits_2(self):
        result = repro(*SERVE_FAST, "--faults", "no-such-scenario")
        assert result.returncode == 2
        lines = [ln for ln in result.stderr.splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "no-such-scenario" in lines[0]
        assert "Traceback" not in result.stderr

    def test_corrupt_plan_artifact_exits_2(self, tmp_path):
        bad = tmp_path / "artifact.json"
        bad.write_text('{"schema": "repro.plan-artifact", "version"')
        result = repro("plan", "show", str(bad))
        assert result.returncode == 2
        lines = [ln for ln in result.stderr.splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("field, value", [
        ("window_s", "abc"),
        ("series", [1, 2]),
        ("series", {"offered": []}),   # shorter than the window count
    ])
    def test_malformed_timeline_artifact_exits_2(self, tmp_path, field, value):
        from repro.obs.timeline import TimelineRecorder

        recorder = TimelineRecorder(1.0, source="test")
        recorder.record_offered([0.1, 0.7])
        doc = recorder.finish(horizon_s=1.0, makespan_s=1.0).to_dict()
        doc[field] = value
        bad = tmp_path / "timeline.json"
        bad.write_text(json.dumps(doc))
        result = repro("timeline", "show", str(bad))
        assert result.returncode == 2
        lines = [ln for ln in result.stderr.splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert field in lines[0]
        assert "Traceback" not in result.stderr

    def test_faults_show_unknown_exits_2(self):
        result = repro("faults", "show", "bogus")
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")

    def test_success_paths_exit_0(self):
        assert repro("faults", "list").returncode == 0
        assert repro("devices").returncode == 0

    def test_faults_list_names_catalog(self):
        result = repro("faults", "list")
        for name in ("thermal-soak", "flaky-kernels", "memory-pressure",
                     "bad-payloads", "edge-storm"):
            assert name in result.stdout


def _digest_lines(stdout):
    return sorted(
        ln.strip() for ln in stdout.splitlines() if "digest" in ln
    )


class TestFaultDeterminismGate:
    def test_same_seed_identical_digests_across_processes(self):
        args = SERVE_FAST + ("--faults", "edge-storm",
                             "--deadline-ms", "500")
        first = repro(*args)
        second = repro(*args)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        digests = _digest_lines(first.stdout)
        assert digests  # the CLI prints fault + report digests
        assert digests == _digest_lines(second.stdout)

    def test_different_seed_changes_the_fault_digest(self):
        base = (
            "serve", "--network", "lenet", "--arrival-rate", "20",
            "--duration", "1.0", "--max-batch", "2",
            "--faults", "flaky-kernels",
        )
        a = repro(*base, "--seed", "1")
        b = repro(*base, "--seed", "2")
        assert a.returncode == 0 and b.returncode == 0
        assert _digest_lines(a.stdout) != _digest_lines(b.stdout)

"""The benchmark's own tests, at smoke-test scale (``--size tiny``)."""

import io
import json
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import workload_defs
from layer_trace import LayerTracer
from measure import check
from workload_defs import WORKLOADS, pinned_digest, traffic_seed

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*argv, expect=0):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(argv))
    assert code == expect
    if expect:
        return out.getvalue()
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _digest(name, seed, workdir):
    workload = WORKLOADS[name]
    state = workload.setup(seed, "tiny", workdir)
    outcome = workload.run(state)
    assert outcome.failures == []
    return outcome.digest


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_metric_name_and_unit(workload, trace):
    result = _run("--workload", workload, "--seed", "0", "--seconds", "0.1",
                  "--trace", trace, "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrappers_are_gone_after_traced_run():
    probe = LayerTracer().install()
    patched = list(probe._patches)
    assert all(owner.__dict__[attr] is not original
               for owner, attr, original in patched)
    probe.uninstall()
    assert len(patched) > 50 and not probe.unresolved

    _run("--workload", "serve-flash-observed", "--seed", "0",
         "--trace", "1", "--size", "tiny")
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} still wrapped"


@pytest.mark.parametrize(
    "workload", ["serve-steady", "serve-flash-observed", "cluster-diurnal"]
)
def test_seed_changes_the_digest(workload, tmp_path):
    first = _digest(workload, 0, tmp_path)
    assert _digest(workload, 0, tmp_path) == first
    assert _digest(workload, 1, tmp_path) != first


def test_fleet_manifest_is_seed_invariant(tmp_path):
    assert _digest("tune-fleet-cold", 0, tmp_path) == _digest(
        "tune-fleet-cold", 1, tmp_path
    )


def test_pins_cover_bench_seeds_and_catch_a_wrong_digest(tmp_path):
    for name in WORKLOADS:
        assert pinned_digest(name, 0, "bench") is not None
        assert pinned_digest(name, 0, "tiny") is None
    outcome = WORKLOADS["serve-steady"].run(
        WORKLOADS["serve-steady"].setup(0, "tiny", tmp_path)
    )
    assert check(outcome, None, pinned=outcome.digest) == []
    assert check(outcome, None, pinned="0" * 64) != []


@pytest.mark.parametrize("seed", [63, 64, 1000, 2**31 + 5, -1])
def test_every_seed_runs_against_a_pin(seed):
    for name in WORKLOADS:
        assert len(pinned_digest(name, traffic_seed(seed), "bench")) == 64
    assert traffic_seed(64) == traffic_seed(0)


def test_unpinned_bench_seed_is_rejected(tmp_path, monkeypatch):
    with pytest.raises(LookupError):
        pinned_digest("serve-steady", 64, "bench")
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"serve-steady": {"0": "0" * 64}}))
    monkeypatch.setattr(workload_defs, "PINS_PATH", pins)
    out = _run("--workload", "serve-steady", "--seed", "1", "--seconds", "0.1",
               "--trace", "0", expect=2)
    assert '"correct"' not in out


def test_fleet_trace_keeps_coordinator_and_replay_apart():
    jobs = WORKLOADS["tune-fleet-cold"].setup(0, "tiny", None).extra["jobs"]
    metrics = _run("--workload", "tune-fleet-cold", "--seed", "0",
                   "--trace", "1", "--size", "tiny")["metrics"]
    # The coordinator registers each plan once; the replay's puts (one
    # per plan) are not added to it.
    assert metrics["store.put.calls"]["value"] == len(jobs)
    assert metrics["store.get.calls"]["value"] == len(jobs)
    assert metrics["compile.fixed.calls"]["value"] > 0
    assert metrics["core.executor.runs"]["value"] > 0


def _session_members(session):
    """Live processes of ``session``: its pid is field 6 of /proc/PID/stat."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(stat.parent.name)
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_run_leaves_no_process_behind(tmp_path):
    # tune-fleet-cold starts the most processes: the fleet's workers and
    # the two reference-loop processes.  A helper that outlives the run
    # may exit milliseconds later, so the check follows the run's exit at
    # once: output goes to a file, not a pipe whose other holders a read
    # would wait for, and the wait blocks instead of polling.
    out = tmp_path / "out.txt"
    with out.open("w") as sink:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "tune-fleet-cold", "--seed", "0", "--seconds", "0.1",
             "--trace", "0", "--size", "tiny"],
            cwd=HERE.parent, stdout=sink, start_new_session=True,
        )
        watchdog = threading.Timer(300, proc.kill)
        watchdog.start()
        try:
            assert proc.wait() == 0
        finally:
            watchdog.cancel()
    assert _session_members(proc.pid) == []
    assert json.loads(out.read_text().splitlines()[-1])["correct"] is True

"""Cluster routing — three router policies on a mixed diurnal fleet.

Runs the same heterogeneous fleet (Jetson AGX Xavier, Dimensity 8100,
Raspberry Pi 4, RTX 2080 Ti host, 15% thermally throttled) under the
same multi-model diurnal workload three times — once per router policy
— and compares fleet goodput and tail latency.  Device-blind
``round_robin`` feeds a Raspberry Pi the same share as a desktop GPU,
so its slow-device queues blow through the deadline; ``plan_cost``
routes on the compiled plans' predicted completion and must win on
*both* fleet goodput and p99 latency.  A rolling ``thermal-soak``
scenario is active on a quarter of the fleet throughout, so the win is
demonstrated under faults, not in a clean room.

Three scales share one harness:

* ``quick`` — CI smoke: 24 replicas, ~16k requests, seconds of wall
  time;
* ``bench`` — the pytest default: 72 replicas, ~100k requests;
* ``full``  — the committed artifact: 510 replicas, >1e6 requests,
  exercising the acceptance envelope (>=500 replicas, >=1M virtual
  requests in one process).

Every router runs ``HOST_REPEATS`` times in one process and the JSON records
its host throughput — served requests per wall-clock second of the best
run (the first run of a process also tunes the fleet's plans) — with a
host fingerprint.  It is reported, not gated: a threshold needs
reference numbers per host first.

Runs two ways:

* under pytest (the bench suite): writes the ``cluster_routing``
  artifact and ``BENCH_cluster.json``;
* as a script (CI cluster smoke): ``python benchmarks/\
bench_cluster_routing.py --quick`` prints the table, rewrites the
  JSON artifact, and exits non-zero if the plan_cost wins or the
  determinism gate fail.
"""

import argparse
import os
import platform
import sys
import time

import numpy as np

from repro.cluster import ClusterConfig, ClusterTenant, DeviceMix, simulate_cluster
from repro.faults import load_scenario, scale_to_horizon
from repro.serving import BatchPolicy
from repro.workloads import DiurnalPoissonArrivals

SEED = 7
ROUTERS = ("round_robin", "least_queue", "plan_cost")
DEVICES = "jetson-agx-xavier:3,dimensity-8100:2,raspberry-pi-4:1,rtx-2080ti-host:1"
THROTTLED_SHARE = 0.15
FAULT_SCENARIO = "thermal-soak"
FAULT_SHARE = 0.25
DEADLINE_S = 5.0
#: Runs per router; host req/s is taken over the best one.
HOST_REPEATS = 3

#: Per-scale fleet size, horizon, and per-model mean arrival rates.
#: Rates keep the same per-replica intensity at every scale (2 / 62.5 /
#: 50 req/s per replica), chosen against the mix's measured capacity:
#: squeezenet leaves the plan_cost router headroom to absorb the
#: thermally faulted replicas, while the fcnn share saturates a
#: round-robin'd Raspberry Pi (~52 req/s capacity vs a 62.5 req/s
#: share) — its bounded queue then serves a dense sub-deadline tail
#: that device-aware routing avoids.  lenet supplies request volume.
SCALES = {
    "quick": {
        "replicas_per_pool": 8,
        "duration_s": 20.0,
        "rates": {"squeezenet": 16.0, "fcnn": 500.0, "lenet": 400.0},
    },
    "bench": {
        "replicas_per_pool": 24,
        "duration_s": 40.0,
        "rates": {"squeezenet": 48.0, "fcnn": 1500.0, "lenet": 1200.0},
    },
    "full": {
        "replicas_per_pool": 170,
        "duration_s": 60.0,
        "rates": {"squeezenet": 340.0, "fcnn": 10625.0, "lenet": 8500.0},
    },
}


def _tenants(scale):
    """One diurnal tenant per model, phase-staggered so the pools do not
    peak simultaneously (a mixed workload, not three copies of one)."""
    spec = SCALES[scale]
    duration = spec["duration_s"]
    tenants = []
    for index, (network, rate) in enumerate(sorted(spec["rates"].items())):
        tenants.append(
            ClusterTenant(
                network,
                DiurnalPoissonArrivals(
                    rate,
                    duration,
                    period_s=duration,
                    amplitude=0.5,
                    phase=index * 2.0,
                    seed=SEED + index,
                ),
            )
        )
    return tenants


def _config(router, scale, *, seed=SEED):
    duration = SCALES[scale]["duration_s"]
    return ClusterConfig(
        router=router,
        policy=BatchPolicy(
            max_batch_size=8,
            max_wait_s=0.0,
            max_queue_depth=64,
            deadline_s=DEADLINE_S,
        ),
        seed=seed,
        faults=scale_to_horizon(load_scenario(FAULT_SCENARIO), duration),
        fault_share=FAULT_SHARE,
        fault_stagger_s=duration * 0.25,
    )


def run_comparison(scale):
    """Same fleet + workload under each router, each run
    ``HOST_REPEATS`` times.  Returns (report per router, host served
    req/s per router over its best run)."""
    mix = DeviceMix.parse(DEVICES, throttled_share=THROTTLED_SHARE)
    tenants = _tenants(scale)
    replicas = SCALES[scale]["replicas_per_pool"]
    results, served_per_s = {}, {}
    for router in ROUTERS:
        best_s = float("inf")
        for _ in range(HOST_REPEATS):
            started = time.perf_counter()
            report = simulate_cluster(
                tenants, mix, replicas, _config(router, scale)
            )
            best_s = min(best_s, time.perf_counter() - started)
            if router in results:
                assert report.digest() == results[router].digest()
            results[router] = report
        served_per_s[router] = report.served / best_s
    return results, served_per_s


def host_fingerprint():
    """What the host-speed numbers were measured on."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
    }


def render_rows(results):
    lines = [
        f"{'router':<12} {'goodput r/s':>12} {'p50 ms':>9} {'p95 ms':>9} "
        f"{'p99 ms':>9} {'shed':>8} {'timeout':>8} {'energy J':>10}"
    ]
    for name, report in results.items():
        lines.append(
            f"{name:<12} {report.goodput_rps:>12.1f} "
            f"{report.latency.p50_s * 1e3:>9.2f} "
            f"{report.latency.p95_s * 1e3:>9.2f} "
            f"{report.latency.p99_s * 1e3:>9.2f} "
            f"{report.shed:>8} {report.timed_out:>8} "
            f"{report.energy_j:>10.1f}"
        )
    return "\n".join(lines)


def check_wins(results):
    """plan_cost must beat round_robin on goodput AND p99; errors list."""
    plan = results["plan_cost"]
    rr = results["round_robin"]
    errors = []
    if plan.goodput_rps <= rr.goodput_rps:
        errors.append(
            f"plan_cost goodput {plan.goodput_rps:.1f} <= "
            f"round_robin {rr.goodput_rps:.1f}"
        )
    if plan.latency.p99_s >= rr.latency.p99_s:
        errors.append(
            f"plan_cost p99 {plan.latency.p99_s * 1e3:.1f} ms >= "
            f"round_robin {rr.latency.p99_s * 1e3:.1f} ms"
        )
    return errors


def check_determinism(scale="quick"):
    """Same seed + config twice must reproduce identical digests."""
    mix = DeviceMix.parse(DEVICES, throttled_share=THROTTLED_SHARE)
    replicas = SCALES[scale]["replicas_per_pool"]
    first = simulate_cluster(
        _tenants(scale), mix, replicas, _config("plan_cost", scale)
    )
    second = simulate_cluster(
        _tenants(scale), mix, replicas, _config("plan_cost", scale)
    )
    assert first.digest() == second.digest(), (
        f"cluster report digest drifted across replays: "
        f"{first.digest()} != {second.digest()}"
    )
    return first.digest()


def bench_payload(scale, results, determinism_digest, served_per_s):
    """The machine-readable BENCH_cluster.json body."""
    spec = SCALES[scale]
    sample = next(iter(results.values()))
    return {
        "scale": scale,
        "host": host_fingerprint(),
        "host_repeats": HOST_REPEATS,
        "seed": SEED,
        "devices": DEVICES,
        "throttled_share": THROTTLED_SHARE,
        "fault_scenario": FAULT_SCENARIO,
        "fault_share": FAULT_SHARE,
        "deadline_s": DEADLINE_S,
        "duration_s": spec["duration_s"],
        "rates_rps": spec["rates"],
        "replicas": sample.replicas_start,
        "offered": sample.offered,
        "determinism_digest": determinism_digest,
        "routers": {
            name: {
                "goodput_rps": report.goodput_rps,
                "throughput_rps": report.throughput_rps,
                "p50_ms": report.latency.p50_s * 1e3,
                "p95_ms": report.latency.p95_s * 1e3,
                "p99_ms": report.latency.p99_s * 1e3,
                "served": report.served,
                "shed": report.shed,
                "timed_out": report.timed_out,
                "failed": report.failed,
                "energy_j": report.energy_j,
                "energy_per_request_j": report.energy_per_request_j,
                "digest": report.digest(),
                "host_served_per_s": served_per_s[name],
            }
            for name, report in results.items()
        },
        "plan_cost_vs_round_robin": {
            "goodput_x": (
                results["plan_cost"].goodput_rps
                / results["round_robin"].goodput_rps
            ),
            "p99_x": (
                results["round_robin"].latency.p99_s
                / results["plan_cost"].latency.p99_s
            ),
        },
    }


def _title(scale, results):
    sample = next(iter(results.values()))
    return (
        f"Cluster routing — router policies on a mixed diurnal fleet "
        f"({scale}: {sample.replicas_start} replicas, "
        f"{sample.offered} requests, {FAULT_SCENARIO} on "
        f"{FAULT_SHARE:.0%} of replicas, {DEADLINE_S:g} s deadline)"
    )


# -- pytest entry points --------------------------------------------------------


def test_cluster_routing(benchmark, record_artifact):
    from conftest import run_once, write_bench_json

    results, served_per_s = run_once(
        benchmark, lambda: run_comparison("bench")
    )
    table = render_rows(results)
    record_artifact("cluster_routing", f"{_title('bench', results)}\n{table}")
    errors = check_wins(results)
    assert not errors, f"{'; '.join(errors)}\n{table}"
    digest = check_determinism()
    write_bench_json(
        "cluster", bench_payload("bench", results, digest, served_per_s)
    )


def test_cluster_run_is_deterministic():
    digest = check_determinism()
    assert len(digest) == 64


# -- CI smoke / artifact script -------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--quick", action="store_true",
        help="CI smoke: small fleet, faults on, determinism gate",
    )
    group.add_argument(
        "--full", action="store_true",
        help="acceptance envelope: >=500 replicas, >=1M requests",
    )
    args = parser.parse_args(argv)
    scale = "quick" if args.quick else ("full" if args.full else "bench")

    results, served_per_s = run_comparison(scale)
    table = render_rows(results)
    print(_title(scale, results))
    print(table)
    for name, rate in served_per_s.items():
        print(f"{name:<12} host {rate:>10.0f} served req/s "
              f"(best of {HOST_REPEATS})")
    errors = check_wins(results)
    if errors:
        for error in errors:
            print(f"FAIL: {error}", file=sys.stderr)
        return 1
    digest = check_determinism()
    print(f"determinism gate OK: report digest {digest[:16]}…")
    from conftest import OUT_DIR, write_bench_json

    OUT_DIR.mkdir(exist_ok=True)
    txt = OUT_DIR / "cluster_routing.txt"
    txt.write_text(f"{_title(scale, results)}\n{table}\n")
    path = write_bench_json(
        "cluster", bench_payload(scale, results, digest, served_per_s)
    )
    print(f"[written to {txt} and {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, end-to-end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload serve-steady --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload once more under :mod:`layer_trace` and
reports the per-layer metrics and the tracing overhead.  ``--seed N``
runs traffic seed ``N mod 64``, one of the seeds whose digests are
pinned in ``pins.json``.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0
when a result was printed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for plan stores, inside the checkout and removed on exit.
WORKDIR = ROOT / ".perfbench-work"

#: name -> unit, in report order.
END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_success_ratio": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit: what a traced run reports."""
    from layer_trace import LAYERS

    units = {}
    for layer in LAYERS:
        if layer.startswith("compile.stage."):
            units[f"{layer}.self_s"] = "s"
        elif layer == "core.executor":
            units.update({"core.executor.runs": "count",
                          "core.executor.layers": "count",
                          "core.executor.self_s": "s"})
        else:
            units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s"})
    units.update({
        "sim.engine.bulk_admit_ratio": "ratio",
        "core.plan_cache.hit_ratio": "ratio",
        "core.plan_cache.misses": "count",
        "fsutil.atomic_write.bytes": "bytes",
        "tuning.fleet.parallel_efficiency": "ratio",
        "store.load_s": "s",
        "trace.overhead": "ratio",
    })
    return units


def end_to_end(workload, seed, seconds, size, pinned):
    from measure import REFERENCE_NOMINAL_S, measure

    result = measure(workload, seed, seconds, size, WORKDIR, pinned)
    if not result.outcomes:
        raise RuntimeError("no repetition completed: " + "; ".join(result.failures))
    last = result.outcomes[-1]
    metrics = {
        "ops_per_s": result.ops_per_s,
        "setup_s": result.setup_s,
        "peak_rss_mb": result.peak_rss_mb,
        "sim_success_ratio": last.success_ratio,
    }
    print(f"# {workload.name} seed={seed}: {result.attempted} repetitions, "
          f"ops = {workload.op}, digest {last.digest[:16]}")
    for label, timings in (("rep", result.reps), ("setup", result.setups)):
        for timed in timings:
            print(f"  {label} wall {timed.wall_s:.4f}s reference "
                  f"{timed.reference_s:.4f}s -> {timed.normalized_s:.4f}s")
    print(f"  ops_per_s {result.ops_per_s:.1f} 1/s (raw {result.raw_ops_per_s:.1f}); "
          f"setup_s {result.setup_s:.4f} s (raw median "
          f"{statistics.median(t.wall_s for t in result.setups):.4f}); "
          f"nominal reference {REFERENCE_NOMINAL_S} s")
    for name, (value, unit) in last.virtual.items():
        print(f"  {name} {value:.6g} {unit}")
    for name, values in result.phases.items():
        print(f"  {name} median {statistics.median(values):.4f}s")
    for failure in result.failures:
        print(f"  FAILED: {failure}")
    return result.attempted, result.failed, metrics


#: Layers whose work the fleet does in its workers; on tune-fleet-cold
#: they are read from the traced in-process replay.
WORKER_LAYERS = ("compile.", "core.executor")


def traced(workload, seed, size, pinned):
    from layer_trace import LayerTracer
    from measure import check, reference_seconds
    from repro.core.plan_cache import default_plan_cache
    from workload_defs import FLEET_WORKERS

    tracer = LayerTracer()
    with tracer:
        state = workload.setup(seed, size, WORKDIR)
        traced_outcome = workload.run(state)
    cache = default_plan_cache()
    lookups = cache.hits + cache.misses
    untraced = workload.run(state)
    checks = [check(traced_outcome, None, pinned),
              check(untraced, traced_outcome, pinned)]
    rows = tracer.counts["sim.engine.table.rows"]
    bulk = tracer.counts["sim.engine.table.bulk_rows"]
    # The fleet's workers compile out of the tracer's reach: their layers
    # come from a serial replay under a tracer of its own, so the
    # coordinator's store and queue layers hold the coordinator's work only.
    replay = None
    efficiency = 0.0
    if workload.name == "tune-fleet-cold":
        replay = LayerTracer()
        with replay:
            replay_s = _replay(state, WORKDIR / "replay-traced")
        serial_s = _replay(state, WORKDIR / "replay")
        efficiency = serial_s / (FLEET_WORKERS * untraced.wall_s)
        print(f"  serial replay {serial_s:.3f}s (traced {replay_s:.3f}s) vs "
              f"fleet {untraced.wall_s:.3f}s on {FLEET_WORKERS} workers")
    derived = {
        "sim.engine.bulk_admit_ratio": bulk / (rows + bulk) if rows + bulk else 0.0,
        "core.plan_cache.hit_ratio": cache.hits / lookups if lookups else 0.0,
        "core.plan_cache.misses": cache.misses,
        "tuning.fleet.parallel_efficiency": efficiency,
        "store.load_s": untraced.phases.get("store_load_s", 0.0),
        "trace.overhead": traced_outcome.wall_s / untraced.wall_s,
    }
    metrics = {}
    for name in per_layer_units():
        layer, _, field = name.rpartition(".")
        source = tracer
        if replay is not None and name.startswith(WORKER_LAYERS):
            source = replay
        if name in derived:
            metrics[name] = derived[name]
        elif field == "calls":
            metrics[name] = source.calls[layer]
        elif field == "self_s":
            metrics[name] = source.self_s[layer]
        else:
            metrics[name] = source.counts[name]
    print(f"# {workload.name} seed={seed}: traced {traced_outcome.wall_s:.3f}s, "
          f"untraced {untraced.wall_s:.3f}s, reference {reference_seconds():.3f}s")
    _print_layers("set-up and one repetition", tracer)
    if replay is not None:
        _print_layers("serial replay (worker layers)", replay)
    for target in tracer.unresolved:
        print(f"  UNRESOLVED trace target {target}", file=sys.stderr)
    for failure in checks[0] + checks[1]:
        print(f"  FAILED: {failure}")
    return len(checks), sum(1 for problems in checks if problems), metrics


def _print_layers(title, tracer):
    print(f"  {title}:")
    print(f"  {'layer':<24} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for layer in sorted(tracer.calls, key=tracer.self_s.get, reverse=True):
        if tracer.calls[layer]:
            print(f"  {layer:<24} {tracer.calls[layer]:>9} "
                  f"{tracer.total_s[layer]:>10.4f} {tracer.self_s[layer]:>10.4f}")


def _replay(state, root):
    """Compile and store the catalog serially in-process (the work fleet
    workers do out of the tracer's reach); returns host seconds."""
    from repro.store import PlanStore
    from workload_defs import compile_job

    shutil.rmtree(root, ignore_errors=True)
    started = time.perf_counter()
    store = PlanStore(root)
    for job in state.extra["jobs"]:
        store.put(compile_job(job))
    elapsed = time.perf_counter() - started
    shutil.rmtree(root, ignore_errors=True)
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="tiny is the smoke-test scale")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workload_defs import WORKLOADS, pinned_digest, traffic_seed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = traffic_seed(args.seed)
    try:
        pinned = pinned_digest(workload.name, seed, args.size)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if pinned is None:
        print(f"# {args.size} size: no pinned digest, repetitions are only "
              f"checked against each other")
    try:
        if args.trace:
            attempted, failed, values = traced(workload, seed, args.size, pinned)
            units = per_layer_units()
        else:
            attempted, failed, values = end_to_end(
                workload, seed, args.seconds, args.size, pinned
            )
            units = END_TO_END
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

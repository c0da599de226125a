"""The four benchmark workloads, driven through the library's public API.

Each workload has a ``setup`` (inputs, fleet construction, and warming
every plan the timed runs use) and a ``run`` (one timed repetition).
``run`` returns an :class:`Outcome`: the work done, a content digest,
the virtual-clock results, and the list of correctness checks that
failed.  Traffic is open-loop on the virtual clock; on the host every
workload is a single process, except that ``tune-fleet-cold`` fans its
compiles out to two worker processes.

The seed a workload gets shifts the seeds of the generated traffic
only; the service configuration (which cluster replicas are faulted)
keeps its fixed seed, because it is the system under test, not its
input.  The tune fleet's input is the fixed catalog and its quiet
scenario draws nothing, so its manifest does not depend on the seed.
Seed 0 reproduces the configurations the README's baseline was
measured at.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import (
    ClusterConfig, ClusterSimulator, ClusterTenant, DeviceMix, simulate_cluster,
)
from repro.compile import pipeline
from repro.core.engine import EdgeNNConfig
from repro.core.plan_cache import PlanKey, clear_plan_cache, default_plan_cache
from repro.core.tuner import TuningObjective
from repro.faults import load_scenario, scale_to_horizon
from repro.hardware import JETSON_AGX_XAVIER
from repro.hardware.variants import spec_by_name
from repro.nn.precision import Precision
from repro.obs import Observability
from repro.obs.timeline import SloObjective
from repro.serving import (
    BatchPolicy, ServiceTimeModel, ServingConfig, ServingSimulator, TenantSpec,
)
from repro.store import PlanStore
from repro.tuning import TuneJob, fleet_catalog, run_fleet
from repro.workloads import DiurnalPoissonArrivals, FlashCrowdArrivals, PoissonArrivals

#: Pinned digests: serving-report / cluster-report digests per seed, and
#: the (seed-invariant) tune-fleet manifest digest.  Regenerate only when
#: a change is meant to alter simulated results: ``pin_digests.py``.
PINS_PATH = Path(__file__).with_name("pins.json")
#: Seeds 0 .. PINNED_SEEDS-1 are pinned; ``--seed N`` runs seed
#: ``traffic_seed(N)``, so every run is checked against a pin.
PINNED_SEEDS = 64

@dataclass
class Outcome:
    """One repetition's result."""

    ops: int                       # requests served / plans stored
    wall_s: float                  # host seconds of the public-API call
    digest: str
    success_ratio: float           # served / offered, stored / planned
    #: virtual-clock results, name -> (value, unit); printed, and held
    #: bit for bit by the pinned digest.
    virtual: Dict[str, Tuple[float, str]]
    failures: List[str] = field(default_factory=list)
    #: host seconds of extra phases outside the timed call (store reload).
    phases: Dict[str, float] = field(default_factory=dict)


@dataclass
class State:
    """What ``setup`` hands to every repetition."""

    seed: int
    size: str
    make: Callable[[], object]     # builds and runs one repetition
    expected_offered: int = 0
    extra: Dict[str, object] = field(default_factory=dict)


def _request_metrics(report) -> Dict[str, Tuple[float, str]]:
    """The virtual-clock results of a serving or cluster report."""
    return {
        "sim_goodput_rps": (report.goodput_rps, "1/s"),
        "sim_p50_ms": (report.latency.p50_s * 1e3, "ms"),
        "sim_p99_ms": (report.latency.p99_s * 1e3, "ms"),
        "sim_p99_samples": (report.latency.count, "count"),
        "sim_loss_ratio": ((report.offered - report.served) / report.offered,
                           "ratio"),
    }


def traffic_seed(seed: int) -> int:
    """The pinned seed a ``--seed`` argument selects."""
    return seed % PINNED_SEEDS


def pinned_digest(workload: str, seed: int, size: str) -> Optional[str]:
    """The digest a ``bench``-size run at ``seed`` must reproduce; None at
    the unpinned smoke size.  Raises ``LookupError`` when no digest is
    pinned for a ``bench`` run: an unpinned run could not fail its check."""
    if size != "bench":
        return None
    pins = json.loads(PINS_PATH.read_text()).get(workload, {})
    pinned = pins.get("any", pins.get(str(seed)))
    if pinned is None:
        raise LookupError(f"no digest pinned for {workload} seed {seed} "
                          f"in {PINS_PATH.name}")
    return pinned


# -- serve-steady / serve-flash-observed ---------------------------------------

SERVE_POLICY = BatchPolicy(
    max_batch_size=32, max_wait_s=0.002, max_queue_depth=256, deadline_s=0.1
)
SERVE_HORIZON_S = {"bench": 30.0, "tiny": 1.0}
SERVE_NETWORKS = ("lenet", "fcnn")
SERVE_BASE_SEED = 11


def _serve_setup(seed: int, size: str, flash: bool) -> State:
    clear_plan_cache()
    horizon = SERVE_HORIZON_S[size]
    base = SERVE_BASE_SEED + seed
    if flash:
        lenet = FlashCrowdArrivals(
            4000.0, horizon, spike_start_s=0.4 * horizon,
            spike_duration_s=0.2 * horizon, spike_factor=4.0, seed=base,
        )
        config = ServingConfig(
            policy=SERVE_POLICY, seed=SERVE_BASE_SEED, timeline_window_s=0.1,
            slos=(SloObjective.parse("goodput_ratio>=0.95"),),
        )
    else:
        lenet = PoissonArrivals(5000.0, horizon, seed=base)
        config = ServingConfig(policy=SERVE_POLICY, seed=SERVE_BASE_SEED)
    tenants = (
        TenantSpec("lenet", lenet, weight=3.0),
        TenantSpec("fcnn", PoissonArrivals(100.0, horizon, seed=base + 1),
                   weight=1.0),
    )
    # Every (network, batch size) the dynamic batcher can dispatch.
    model = ServiceTimeModel(JETSON_AGX_XAVIER)
    for network in SERVE_NETWORKS:
        for batch in range(1, SERVE_POLICY.max_batch_size + 1):
            model.warm(network, batch)

    def make():
        started = time.perf_counter()
        obs = Observability.on() if flash else None
        sim = ServingSimulator(JETSON_AGX_XAVIER, tenants, config, obs=obs)
        report = sim.run()
        return sim, report, time.perf_counter() - started

    return State(
        seed=seed, size=size, make=make,
        expected_offered=sum(len(t.arrival.as_arrays()) for t in tenants),
        extra={"flash": flash},
    )


def _serve_run(state: State) -> Outcome:
    sim, report, wall = state.make()
    failures = []
    accounted = (report.served + report.shed + report.timed_out
                 + report.failed + report.rejected)
    if accounted != report.offered:
        failures.append(f"conservation: {accounted} != offered {report.offered}")
    if report.offered != state.expected_offered:
        failures.append(
            f"offered {report.offered} != generated {state.expected_offered}"
        )
    if report.plan_cache_misses != 0:
        failures.append(f"{report.plan_cache_misses} plan-cache misses after warm-up")
    if state.extra["flash"] and (sim.timeline is None or sim.slo_report is None):
        failures.append("observed run produced no timeline / SLO report")
    return Outcome(
        ops=report.served, wall_s=wall, digest=report.digest(),
        success_ratio=report.served / report.offered,
        virtual=_request_metrics(report), failures=failures,
    )


# -- cluster-diurnal -------------------------------------------------------------

CLUSTER_DEVICES = (
    "jetson-agx-xavier:3,dimensity-8100:2,raspberry-pi-4:1,rtx-2080ti-host:1"
)
CLUSTER_BASE_SEED = 7
CLUSTER_DEADLINE_S = 5.0
#: The ``bench`` scale of benchmarks/bench_cluster_routing.py.
CLUSTER_SCALES = {
    "bench": (24, 40.0, {"squeezenet": 48.0, "fcnn": 1500.0, "lenet": 1200.0}),
    "tiny": (4, 4.0, {"squeezenet": 8.0, "fcnn": 250.0, "lenet": 200.0}),
}


def _cluster_setup(seed: int, size: str) -> State:
    clear_plan_cache()
    replicas, duration, rates = CLUSTER_SCALES[size]
    base = CLUSTER_BASE_SEED + seed
    mix = DeviceMix.parse(CLUSTER_DEVICES, throttled_share=0.15)
    tenants = [
        ClusterTenant(network, DiurnalPoissonArrivals(
            rate, duration, period_s=duration, amplitude=0.5,
            phase=index * 2.0, seed=base + index,
        ))
        for index, (network, rate) in enumerate(sorted(rates.items()))
    ]
    policy = BatchPolicy(
        max_batch_size=8, max_wait_s=0.0, max_queue_depth=64,
        deadline_s=CLUSTER_DEADLINE_S,
    )
    config = ClusterConfig(
        router="plan_cost", policy=policy, seed=CLUSTER_BASE_SEED,
        faults=scale_to_horizon(load_scenario("thermal-soak"), duration),
        fault_share=0.25, fault_stagger_s=duration * 0.25,
    )
    # Fleet construction tunes each replica's batch-1 and full-batch
    # plans; warm the batch sizes in between on every tuned device.
    fleet = ClusterSimulator(tenants, mix, replicas, config).fleet
    warmed = set()
    for pool in fleet.pools:
        for replica in pool.replicas:
            key = (replica.spec.name, replica.network)
            if key in warmed or not isinstance(replica.model, ServiceTimeModel):
                continue
            warmed.add(key)
            for batch in range(1, policy.max_batch_size + 1):
                replica.model.warm(replica.network, batch)

    def make():
        cache = default_plan_cache()
        misses = cache.misses
        started = time.perf_counter()
        report = simulate_cluster(tenants, mix, replicas, config)
        wall = time.perf_counter() - started
        return report, cache.misses - misses, wall

    return State(
        seed=seed, size=size, make=make,
        expected_offered=sum(len(t.arrival.as_arrays()) for t in tenants),
    )


def _cluster_run(state: State) -> Outcome:
    report, misses, wall = state.make()
    failures = []
    accounted = report.served + report.shed + report.timed_out + report.failed
    if accounted != report.offered:
        failures.append(f"conservation: {accounted} != offered {report.offered}")
    if report.offered != state.expected_offered:
        failures.append(
            f"offered {report.offered} != generated {state.expected_offered}"
        )
    if misses:
        failures.append(f"{misses} plan-cache misses after warm-up")
    return Outcome(
        ops=report.served, wall_s=wall, digest=report.digest(),
        success_ratio=report.served / report.offered,
        virtual=_request_metrics(report), failures=failures,
    )


# -- tune-fleet-cold ---------------------------------------------------------------

FLEET_WORKERS = 2
FLEET_TINY = {"networks": ("lenet",),
              "devices": ("jetson-agx-xavier", "raspberry-pi-4"),
              "batch_sizes": (1, 2)}


def compile_job(job: TuneJob):
    """Compile one catalog job in-process through the public pipeline
    entry points, the way a fleet worker compiles it."""
    key: PlanKey = job.key
    spec = spec_by_name(key.device)
    if job.mode == "adaptive":
        config = EdgeNNConfig(
            use_memory_management=key.use_memory_management,
            use_hybrid_execution=key.use_hybrid_execution,
            use_inter_kernel=key.use_inter_kernel,
            use_intra_kernel=key.use_intra_kernel,
            precision=Precision(key.precision),
            batch_size=key.batch_size,
            objective=TuningObjective(key.objective),
        )
        return pipeline.compile_plan(key.network, spec, config, key=key).artifact
    # Through the module, so the per-layer tracer's wrapper is the one called.
    return pipeline.compile_fixed(
        key.network, spec, placement=job.mode.split(":", 1)[1],
        precision=Precision(key.precision), batch_size=key.batch_size,
    ).artifact


def _fleet_setup(seed: int, size: str, workdir: Path) -> State:
    jobs = fleet_catalog() if size == "bench" else fleet_catalog(**FLEET_TINY)
    counter = itertools.count()

    def make():
        root = workdir / f"store-{next(counter)}"
        shutil.rmtree(root, ignore_errors=True)
        workdir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        report = run_fleet(root, jobs, workers=FLEET_WORKERS, seed=seed)
        return root, report, time.perf_counter() - started

    return State(seed=seed, size=size, make=make, extra={"jobs": jobs})


def _fleet_run(state: State) -> Outcome:
    jobs: List[TuneJob] = state.extra["jobs"]
    root, report, wall = state.make()
    failures = []
    if report.completed != len(jobs) or report.poisoned:
        failures.append(
            f"{report.completed}/{len(jobs)} plans stored, "
            f"{report.poisoned} poisoned"
        )
    started = time.perf_counter()
    store = PlanStore(root)
    loaded = [store.get(job.key) for job in jobs]
    load_s = time.perf_counter() - started
    bad = [job.job_id for job, art in zip(jobs, loaded)
           if art is None or art.key != job.key]
    if bad:
        failures.append(f"{len(bad)} stored plans do not load, e.g. {bad[0]}")
    shutil.rmtree(root, ignore_errors=True)
    # A faster tuner that makes worse plans shows here (and in the digest).
    adaptive = [
        math.log(art.provenance.final_total_s)
        for art, job in zip(loaded, jobs)
        if art is not None and job.mode == "adaptive"
    ]
    plan_latency_ms = math.exp(sum(adaptive) / len(adaptive)) * 1e3
    return Outcome(
        ops=report.completed, wall_s=wall, digest=report.manifest_digest,
        success_ratio=(len(jobs) - len(bad)) / len(jobs),
        virtual={"sim_plan_latency_ms": (plan_latency_ms, "ms"),
                 "adaptive_plans": (len(adaptive), "count")},
        failures=failures, phases={"store_load_s": load_s},
    )


# -- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, str, Path], State]
    run: Callable[[State], Outcome]
    #: host-side work unit counted by ``ops_per_s``.
    op: str
    #: processes the workload keeps busy; the reference loop runs on as
    #: many at once (see ``measure.ReferenceLoop``).
    processes: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "serve-steady",
            "capacity point with little shedding: engine loop, WFQ "
            "scheduler, service-time lookup and report build; obs idle",
            lambda seed, size, _dir: _serve_setup(seed, size, flash=False),
            _serve_run, "requests served",
        ),
        Workload(
            "serve-flash-observed",
            "flash crowd with full observability on: saturated queues, "
            "the shed path, per-request metrics/timeline/SLO recording",
            lambda seed, size, _dir: _serve_setup(seed, size, flash=True),
            _serve_run, "requests served",
        ),
        Workload(
            "cluster-diurnal",
            "72-replica heterogeneous fleet under diurnal traffic and "
            "thermal faults: per-request routing and cluster dispatch",
            lambda seed, size, _dir: _cluster_setup(seed, size),
            _cluster_run, "requests served",
        ),
        Workload(
            "tune-fleet-cold",
            "224-plan catalog into an empty store on 2 workers, then a "
            "reload: tuner, compile stages, fsynced store and lease queue",
            _fleet_setup,
            _fleet_run, "plans stored", processes=FLEET_WORKERS,
        ),
    )
}

"""Warm service times memoized in the process plan cache.

A warm analytic run is a pure function of the plan and the device it
runs on, so a fresh serving simulator or fleet over warm plans must not
re-run the executor — while plan lookups (and the report's plan-cache
counters), observability, cache clearing and invalidation, and patched
device specs behave exactly as without the memo.
"""

from dataclasses import replace

import pytest

from repro.cluster import ClusterConfig, ClusterTenant, DeviceMix, simulate_cluster
from repro.core.executor import HybridExecutor
from repro.core.plan_cache import clear_plan_cache, default_plan_cache
from repro.faults import load_scenario, scale_to_horizon
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.obs import Observability
from repro.serving import BatchPolicy, ServingConfig
from repro.serving.simulator import ServiceTimeModel, ServingSimulator, poisson_tenant
from repro.workloads import PoissonArrivals


@pytest.fixture
def executions(monkeypatch):
    """A cold process plan cache, and a log of ``HybridExecutor.run``
    calls."""
    clear_plan_cache()
    calls = []
    run = HybridExecutor.run

    def counted(self, *args, **kwargs):
        calls.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(HybridExecutor, "run", counted)
    yield calls
    clear_plan_cache()


def serve(obs=None):
    sim = ServingSimulator(
        JETSON_AGX_XAVIER,
        [poisson_tenant("lenet", 400.0, 1.0, seed=5)],
        ServingConfig(policy=BatchPolicy(max_batch_size=4)),
        obs=obs,
    )
    return sim.run()


def fleet():
    duration = 2.0
    return simulate_cluster(
        [ClusterTenant("lenet", PoissonArrivals(150.0, duration, seed=3))],
        DeviceMix.parse(
            "jetson-agx-xavier:2,raspberry-pi-4", throttled_share=0.34
        ),
        3,
        ClusterConfig(
            policy=BatchPolicy(max_batch_size=4, max_wait_s=0.0),
            seed=7,
            faults=scale_to_horizon(load_scenario("thermal-soak"), duration),
            fault_share=0.5,
        ),
    )


def test_second_serving_run_executes_no_plan(executions):
    first = serve()
    assert executions and first.plan_cache_misses > 0
    del executions[:]
    second = serve()
    assert executions == []
    assert (second.served, second.latency) == (first.served, first.latency)
    # The new model still looks every plan up once: the report's
    # plan-cache counters see the same traffic as without the memo.
    assert second.plan_cache_misses == 0
    assert second.plan_cache_hits == (
        first.plan_cache_hits + first.plan_cache_misses
    )


def test_second_fleet_executes_no_plan(executions):
    first = fleet()
    assert executions
    del executions[:]
    second = fleet()
    assert executions == []
    assert second.extra["plan_cache_misses"] == 0.0
    assert (second.served, second.latency) == (first.served, first.latency)
    assert fleet().digest() == second.digest()


def test_clear_plan_cache_forces_reexecution(executions):
    serve()
    executed = len(executions)
    clear_plan_cache()
    del executions[:]
    serve()
    assert len(executions) == executed


def test_invalidate_forces_reexecution(executions):
    model = ServiceTimeModel(JETSON_AGX_XAVIER)
    before = model.warm("lenet", 2)
    del executions[:]
    ServiceTimeModel(JETSON_AGX_XAVIER).warm("lenet", 2)
    assert executions == []
    assert default_plan_cache().invalidate(model.plan_key("lenet", 2))
    after = ServiceTimeModel(JETSON_AGX_XAVIER).warm("lenet", 2)
    # Re-tuning runs the executor too (cold weights); the memo's own
    # measurement is the one warm-weights run.
    assert [e for e in executions if e._warm_weights] != []
    assert after == before


def test_observed_run_still_executes_its_plans(executions):
    report = serve()
    del executions[:]
    obs = Observability.on()
    serve(obs)
    # One warm execution per dispatched batch size, as without the memo.
    assert len(executions) == len(report.batch_histogram)
    assert any(span.category == "layer" for span in obs.tracer.iter_spans())


def test_spec_patched_under_the_same_name_misses_the_memo(executions):
    nominal = ServiceTimeModel(JETSON_AGX_XAVIER).warm("lenet", 1)
    patched = replace(
        JETSON_AGX_XAVIER,
        memory=replace(
            JETSON_AGX_XAVIER.memory,
            bandwidth=JETSON_AGX_XAVIER.memory.bandwidth / 4,
        ),
    )
    assert patched.name == JETSON_AGX_XAVIER.name
    cache = default_plan_cache()
    misses = cache.misses
    del executions[:]
    slow = ServiceTimeModel(patched).warm("lenet", 1)
    # Same plan key (the plan cache hits, nothing is tuned), different
    # device content: the memo misses and the plan runs on the patch.
    assert cache.misses == misses
    assert len(executions) == 1
    assert slow.total_s > nominal.total_s

"""Fault scenarios through the serving loop: resilience on vs off.

A synthetic fault-capable service model keeps the assertions about the
*serving-layer* fault driver (variant selection, retries, fail-fast,
degradation) rather than the engine's cost model: degraded variants are
1.5x slower, a stale plan on the throttled device is 2x slower, and a
re-tuned plan recovers most of that (1.2x).
"""

import pytest

from repro.faults import (
    BAD_PAYLOADS,
    FLAKY_KERNELS,
    MEMORY_PRESSURE,
    SCENARIO_CATALOG,
    THERMAL_SOAK,
    FaultScenario,
)
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import (
    BatchServiceTime,
    ServingConfig,
    ServingSimulator,
    TenantSpec,
)
from repro.workloads.arrivals import UniformArrivals


class FaultableServiceModel:
    """Synthetic model implementing the fault-aware service() contract."""

    def __init__(self, base_s=0.010, incr_s=0.002):
        self.base_s = base_s
        self.incr_s = incr_s

    def service(self, network, batch, *, kind="normal", factors=None,
                retuned=False):
        t = self.base_s + self.incr_s * (batch - 1)
        if kind != "normal":
            t *= 1.5
        if factors is not None:
            t *= 1.2 if retuned else 2.0
        return BatchServiceTime(total_s=t, cpu_busy_s=0.2 * t,
                                gpu_busy_s=0.9 * t)

    def warm(self, network, batch):
        return self.service(network, batch)

    def cold(self, network, batch):
        svc = self.service(network, batch)
        return BatchServiceTime(
            total_s=svc.total_s * 3,
            cpu_busy_s=svc.cpu_busy_s * 3,
            gpu_busy_s=svc.gpu_busy_s * 3,
        )

    def plan_key(self, network, batch, kind="normal"):
        return (network, batch, kind)


def run_faulted(scenario, *, resilience, rate=40, duration=10.0,
                policy=None, seed=0):
    cfg = ServingConfig(
        policy=policy or BatchPolicy(max_batch_size=1, max_wait_s=0.0),
        seed=seed,
        faults=scenario,
        resilience=resilience,
    )
    tenant = TenantSpec(
        network="lenet", arrival=UniformArrivals(rate, duration)
    )
    sim = ServingSimulator(
        JETSON_AGX_XAVIER, [tenant], cfg,
        service_model=FaultableServiceModel(),
    )
    report = sim.run()
    return sim, report


@pytest.mark.parametrize("resilience", [False, True])
@pytest.mark.parametrize("name", sorted(SCENARIO_CATALOG))
def test_batch_histogram_counts_executed_batches_only(name, resilience):
    """Fail-fast batches (lost at dispatch, never executed) stay out of
    the batch histogram: it sums to the batch log, per tenant too."""
    sim, report = run_faulted(
        SCENARIO_CATALOG[name], resilience=resilience, rate=60,
        policy=BatchPolicy(max_batch_size=4, max_wait_s=0.01),
    )
    batches = len(sim.batches)
    assert report.extra["batch_count"] == batches
    assert sum(report.batch_histogram.values()) == batches
    for tenant in report.tenants:
        assert sum(tenant.batch_histogram.values()) == sum(
            1 for b in sim.batches if b.tenant == tenant.name
        )


class TestFlakyKernels:
    def test_naive_service_loses_batches(self):
        _, report = run_faulted(FLAKY_KERNELS, resilience=False)
        assert report.failed > 0
        # The device time was consumed anyway: failures are not free.
        assert report.served + report.failed + report.shed == report.offered

    def test_resilient_service_retries_through(self):
        sim, report = run_faulted(FLAKY_KERNELS, resilience=True)
        assert report.failed == 0
        assert report.extra["retries"] > 0
        assert report.served == report.offered - report.shed

    def test_resilience_beats_naive_on_goodput(self):
        _, naive = run_faulted(FLAKY_KERNELS, resilience=False)
        _, resilient = run_faulted(FLAKY_KERNELS, resilience=True)
        assert resilient.goodput_rps > naive.goodput_rps


class TestMemoryPressure:
    def test_naive_allocation_failure_is_fail_fast(self):
        _, report = run_faulted(MEMORY_PRESSURE, resilience=False)
        assert report.failed > 0
        # Fail-fast batches consume no device time, so utilization is
        # below a clean run's.
        assert report.served + report.failed + report.shed == report.offered

    def test_resilient_service_demotes_zero_copy(self):
        sim, report = run_faulted(MEMORY_PRESSURE, resilience=True)
        assert report.failed == 0
        actions = [r.action for r in sim.degradation.records]
        assert "demote_zero_copy" in actions
        assert report.extra["degradations"] >= 1

    def test_resilience_beats_naive_on_goodput(self):
        _, naive = run_faulted(MEMORY_PRESSURE, resilience=False)
        _, resilient = run_faulted(MEMORY_PRESSURE, resilience=True)
        assert resilient.goodput_rps > naive.goodput_rps


class TestBadPayloads:
    BATCHING = BatchPolicy(max_batch_size=4, max_wait_s=0.05)

    def test_naive_service_poisons_whole_batches(self):
        _, report = run_faulted(
            BAD_PAYLOADS, resilience=False, policy=self.BATCHING
        )
        # One corrupt request takes its batchmates down with it.
        assert report.failed > 0
        assert report.rejected == 0

    def test_resilient_service_rejects_at_the_door(self):
        _, report = run_faulted(
            BAD_PAYLOADS, resilience=True, policy=self.BATCHING
        )
        assert report.rejected > 0
        assert report.failed == 0
        assert report.served + report.shed + report.rejected \
            == report.offered

    def test_resilience_beats_naive_on_goodput(self):
        _, naive = run_faulted(
            BAD_PAYLOADS, resilience=False, policy=self.BATCHING
        )
        _, resilient = run_faulted(
            BAD_PAYLOADS, resilience=True, policy=self.BATCHING
        )
        assert resilient.goodput_rps > naive.goodput_rps


class TestThermalThrottle:
    def test_drift_triggers_retune(self):
        sim, report = run_faulted(THERMAL_SOAK, resilience=True)
        actions = [r.action for r in sim.degradation.records]
        assert "retune_throttled" in actions
        # The window ends before the run does, so the nominal plan is
        # reinstated afterwards.
        assert "restore_nominal" in actions

    def test_retuned_plan_beats_stale_plan(self):
        _, naive = run_faulted(THERMAL_SOAK, resilience=False)
        _, resilient = run_faulted(THERMAL_SOAK, resilience=True)
        assert resilient.latency.mean_s < naive.latency.mean_s

    def test_window_edges_recorded(self):
        sim, _ = run_faulted(THERMAL_SOAK, resilience=True)
        kinds = [e["kind"] for e in sim.injector.events]
        assert "thermal_enter" in kinds
        assert "thermal_exit" in kinds


class TestDeterminism:
    @pytest.mark.parametrize("scenario", [
        FLAKY_KERNELS, MEMORY_PRESSURE, BAD_PAYLOADS, THERMAL_SOAK,
    ], ids=lambda s: s.name)
    def test_same_seed_same_digests(self, scenario):
        sim_a, rep_a = run_faulted(scenario, resilience=True, seed=11)
        sim_b, rep_b = run_faulted(scenario, resilience=True, seed=11)
        assert sim_a.injector.timeline_digest() \
            == sim_b.injector.timeline_digest()
        assert rep_a.digest() == rep_b.digest()

    def test_different_seed_changes_probabilistic_faults(self):
        sim_a, _ = run_faulted(FLAKY_KERNELS, resilience=True, seed=1)
        sim_b, _ = run_faulted(FLAKY_KERNELS, resilience=True, seed=2)
        assert sim_a.injector.timeline_digest() \
            != sim_b.injector.timeline_digest()


class TestQuietScenario:
    def test_quiet_faults_change_nothing_observable(self):
        quiet = FaultScenario(name="quiet")
        _, faulted = run_faulted(quiet, resilience=True)
        assert faulted.failed == 0
        assert faulted.rejected == 0
        assert faulted.extra["fault_events"] == 0.0
        assert faulted.extra["retries"] == 0.0

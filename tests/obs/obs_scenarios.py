"""Observed serving runs pinning what the metrics registry, the span
tracer and the timeline see.

Each scenario runs :class:`~repro.serving.simulator.ServingSimulator`
with ``Observability.on()`` and a timeline, and returns a fingerprint
of everything observability produced:

* the report digest and the timeline digest;
* a sha256 over the label-keyed metric values — counter value;
  histogram count, sum, max and buckets; gauge value and max.  Child
  insertion order is excluded (labels are sorted);
* the count and a sha256 of the sorted multiset of ``category="batch"``
  spans (name, start, end, attributes).  Span ids and tree order are
  excluded.

``tests/golden/obs_parity.json`` holds these fingerprints; floats are
hashed through ``repr`` so a one-ulp drift in a histogram sum shows.
"""

import hashlib
import json
from typing import Callable, Dict

from repro.faults import load_scenario, scale_to_horizon
from repro.obs import Observability
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import (
    ServingConfig,
    ServingSimulator,
    TenantSpec,
    poisson_tenant,
)
from repro.workloads.arrivals import ClosedLoopArrivals, PoissonArrivals

Fingerprint = Dict[str, object]


def _sha(doc: object) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _instrument_values(child: object) -> Dict[str, object]:
    if isinstance(child, Counter):
        return {"value": repr(child.value)}
    if isinstance(child, Gauge):
        return {"value": repr(child.value), "max": repr(child.max_value)}
    if isinstance(child, Histogram):
        return {
            "count": child.count,
            "sum": repr(child.sum),
            "max": repr(child.max_value),
            "buckets": [n for _, n in child.cumulative_buckets()],
        }
    raise TypeError(f"unknown instrument {type(child).__name__}")


def metrics_doc(obs: Observability) -> Dict[str, object]:
    """Label-keyed metric values of one registry (insertion-order free)."""
    doc: Dict[str, object] = {}
    for family in obs.metrics.families():
        doc[family.name] = {
            "kind": family.kind,
            "children": {
                json.dumps(list(labels)): _instrument_values(child)
                for labels, child in family.children()
            },
        }
    return doc


def batch_spans(obs: Observability) -> list:
    """Sorted multiset of batch spans: (name, start, end, attributes)."""
    return sorted(
        [
            span.name, repr(span.start_s), repr(span.end_s),
            sorted((k, repr(v)) for k, v in span.attrs.items()),
        ]
        for span in obs.tracer.iter_spans()
        if span.category == "batch"
    )


def fingerprint(sim: ServingSimulator, obs: Observability) -> Fingerprint:
    report = sim.run()
    spans = batch_spans(obs)
    return {
        "report_digest": report.digest(),
        "timeline_digest": sim.timeline.digest(),
        "metrics_sha256": _sha(metrics_doc(obs)),
        "batch_spans": len(spans),
        "batch_spans_sha256": _sha(spans),
    }


def _observed(tenants, config: ServingConfig) -> Fingerprint:
    obs = Observability.on()
    return fingerprint(ServingSimulator(None, tenants, config, obs=obs), obs)


def serving_obs() -> Fingerprint:
    """The engine-parity ``serving_obs`` run, with a timeline."""
    return _observed(
        [poisson_tenant("lenet", 150.0, 0.5, seed=3)],
        ServingConfig(
            policy=BatchPolicy(max_batch_size=4), timeline_window_s=0.1
        ),
    )


def serving_knee() -> Fingerprint:
    """Overload with deadlines: busy-device arrival spans, sheds, queue
    abandonment and late completions, all observed."""
    return _observed(
        [poisson_tenant("lenet", 9000.0, 0.5, seed=7)],
        ServingConfig(
            policy=BatchPolicy(
                max_batch_size=8, max_queue_depth=48, deadline_s=0.005
            ),
            seed=7,
            timeline_window_s=0.1,
        ),
    )


def serving_faults() -> Fingerprint:
    """edge-storm with resilience on: retries, breaker, degradation."""
    return _observed(
        [poisson_tenant("lenet", 40.0, 3.0, seed=7)],
        ServingConfig(
            policy=BatchPolicy(max_batch_size=4, deadline_s=0.5),
            seed=7,
            faults=scale_to_horizon(load_scenario("edge-storm"), 3.0),
            timeline_window_s=0.5,
        ),
    )


def serving_faults_naive() -> Fingerprint:
    """The same storm with resilience off: fail-fast batches leave the
    queue at dispatch without occupying the device."""
    return _observed(
        [poisson_tenant("lenet", 40.0, 3.0, seed=7)],
        ServingConfig(
            policy=BatchPolicy(max_batch_size=4, deadline_s=0.5),
            seed=7,
            faults=scale_to_horizon(load_scenario("edge-storm"), 3.0),
            resilience=False,
            timeline_window_s=0.5,
        ),
    )


def serving_closed_loop() -> Fingerprint:
    """Closed-loop clients beside an open-loop tenant."""
    return _observed(
        [
            TenantSpec(
                network="lenet",
                arrival=ClosedLoopArrivals(
                    clients=6, think_s=0.005, duration_s=1.5
                ),
            ),
            poisson_tenant("lenet", 50.0, 1.5, seed=3, name="open"),
        ],
        ServingConfig(
            policy=BatchPolicy(max_batch_size=4), timeline_window_s=0.25
        ),
    )


def serving_multitenant() -> Fingerprint:
    """Weighted fair share across three tenants, one with its own policy."""
    return _observed(
        [
            poisson_tenant("lenet", 120.0, 2.0, seed=5, weight=3.0),
            poisson_tenant("fcnn", 60.0, 2.0, seed=6, weight=1.0),
            TenantSpec(
                network="lenet",
                arrival=PoissonArrivals(40.0, 2.0, seed=9),
                weight=1.0,
                name="lenet-b",
                policy=BatchPolicy(max_batch_size=2, max_queue_depth=8),
            ),
        ],
        ServingConfig(
            policy=BatchPolicy(max_batch_size=8), timeline_window_s=0.25
        ),
    )


def _hermetic(fn: Callable[[], Fingerprint]) -> Callable[[], Fingerprint]:
    """Clear the process-global plan cache first: plan-cache hits and
    misses reach both the report digest and the metrics registry."""

    def run() -> Fingerprint:
        from repro.core.plan_cache import default_plan_cache

        default_plan_cache().clear()
        return fn()

    return run


SCENARIOS: Dict[str, Callable[[], Fingerprint]] = {
    "serving_obs": _hermetic(serving_obs),
    "serving_knee": _hermetic(serving_knee),
    "serving_faults": _hermetic(serving_faults),
    "serving_faults_naive": _hermetic(serving_faults_naive),
    "serving_closed_loop": _hermetic(serving_closed_loop),
    "serving_multitenant": _hermetic(serving_multitenant),
}

"""Observability overhead guards.

Disabled instrumentation must be free: every hot path in the engine and
executor is gated on ``obs.enabled`` against shared no-op singletons.
Wall-clock A/B timing of a simulated run is too noisy for a 2%
assertion in CI, so that guard is analytic: time the no-op operations
themselves, count how many of them one run actually performs (by
running once with tracing *on* and counting what was recorded), and
assert the product stays under 2% of the run's real cost.

Enabled serving telemetry is guarded structurally: metrics, batch spans
and timelines are derived after the event loop, so an observed serve
makes no telemetry calls inside it.  The measured end-to-end overhead
of recording is written to ``BENCH_timeline_overhead.json`` as a
reported number.
"""

import timeit

from repro.core.engine import EdgeNN
from repro.core.plan_cache import PlanCache
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.obs import NOOP_OBS, Observability
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.provenance import NULL_PROVENANCE
from repro.obs.spans import NOOP_TRACER

from conftest import write_bench_json


def _best_of(stmt, repeats=5, number=2000):
    return min(timeit.repeat(stmt, repeat=repeats, number=number)) / number


def test_disabled_observability_overhead_under_2_percent():
    # Real per-run cost, measured on a plan tuned outside the loop and a
    # private cache so process-wide state cannot skew the baseline.
    engine = EdgeNN("alexnet", plan_cache=PlanCache())
    engine.tune()
    run_s = min(timeit.repeat(engine.run, repeat=5, number=3)) / 3

    # The disabled path performs exactly one ``obs.enabled`` boolean
    # check per gated block: one per layer step, one per scheduled copy,
    # plus a handful of run-level gates.  Count the blocks by running
    # once with tracing on — each layer span / memcpy record produced
    # there is one boolean check in the disabled case.
    obs = Observability.on()
    counted = EdgeNN("alexnet", plan_cache=PlanCache(), obs=obs)
    counted.run()
    (execute,) = obs.tracer.find(f"execute:{counted.graph.name}")
    n_layer_gates = len(execute.children)
    n_copy_gates = sum(
        1 for s in obs.tracer.iter_spans() if s.category == "memcpy"
    )
    gated_checks = n_layer_gates + n_copy_gates + 8   # + run-level gates

    per_check_s = max(
        _best_of(lambda: NOOP_OBS.enabled),
        # The few non-gated no-op calls (engine.tune's span on the cold
        # path) are covered by charging every gate at the dearest rate.
        _best_of(lambda: NOOP_TRACER.span("x", a=1).__exit__(None, None, None)),
        _best_of(lambda: NULL_REGISTRY.counter("c").labels(a="b").inc()),
        _best_of(lambda: NULL_PROVENANCE.record_placement(None)),
    )

    worst_case_overhead = gated_checks * per_check_s
    assert worst_case_overhead < 0.02 * run_s, (
        f"disabled observability could add "
        f"{worst_case_overhead / run_s:.2%} to a "
        f"{run_s * 1e3:.2f} ms run ({gated_checks} gated checks at "
        f"{per_check_s * 1e9:.0f} ns each); budget is 2%"
    )
    write_bench_json("obs_overhead", {
        "run_s": run_s,
        "gated_checks": gated_checks,
        "per_check_ns": per_check_s * 1e9,
        "worst_case_overhead_pct": 100.0 * worst_case_overhead / run_s,
        "budget_pct": 2.0,
    })


def test_default_engine_shares_noop_singletons():
    engine = EdgeNN("lenet")
    assert engine.obs is NOOP_OBS
    assert engine.obs.tracer is NOOP_TRACER
    assert engine.obs.metrics is NULL_REGISTRY
    assert engine.obs.provenance is NULL_PROVENANCE
    assert not engine.obs.enabled


def test_disabled_run_records_nothing():
    engine = EdgeNN("lenet", plan_cache=PlanCache())
    engine.run()
    assert NOOP_TRACER.roots == []
    assert NULL_REGISTRY.families() == []
    assert NULL_PROVENANCE.placements() == []


def test_disabled_fault_machinery_overhead_under_2_percent():
    """With no fault scenario the serving loop's entire fault path is a
    handful of ``faults is not None`` identity checks per event — bound
    their worst-case cost analytically, same as the obs guard above."""
    from repro.serving import BatchPolicy, ServingConfig, simulate_poisson

    def serve():
        return simulate_poisson(
            "lenet", 200.0, 1.0, seed=3,
            config=ServingConfig(policy=BatchPolicy(max_batch_size=4)),
        )

    report = serve()  # warm the plan cache so timing is the serve loop
    run_s = min(timeit.repeat(serve, repeat=5, number=1))

    # Gated checks per run: one ``faults is not None`` per heap event
    # (arrival + completion + timer <= 3 per offered request), one on
    # each arrival's payload-validation branch, and one per dispatch in
    # batch_service.  Charge everything at the identity-check rate.
    batch_count = int(report.extra["batch_count"])
    gated_checks = 4 * report.offered + 2 * batch_count
    sentinel = None
    per_check_s = _best_of(lambda: sentinel is not None)

    worst_case_overhead = gated_checks * per_check_s
    assert worst_case_overhead < 0.02 * run_s, (
        f"disabled fault injection could add "
        f"{worst_case_overhead / run_s:.2%} to a "
        f"{run_s * 1e3:.2f} ms serve ({gated_checks} gated checks at "
        f"{per_check_s * 1e9:.0f} ns each); budget is 2%"
    )


def test_disabled_timeline_overhead_under_2_percent(monkeypatch):
    """With observability and the timeline off, the serve loop makes no
    telemetry call at all — a structural guard, stricter than any 2%
    budget: ``EventEngine.run`` calls no method of a timeline recorder,
    a metrics registry or a span tracer, enabled or null."""
    from repro.obs.metrics import MetricsRegistry, NullRegistry
    from repro.obs.metrics import _NullInstrument
    from repro.obs.spans import NoopTracer, SpanTracer
    from repro.obs.timeline import TimelineRecorder
    from repro.serving import BatchPolicy, ServingConfig
    from repro.serving.simulator import (
        ServiceTimeModel, ServingSimulator, poisson_tenant,
    )

    # A new model looks each batch size's plan up once, through the
    # null tracer and registry; share one warmed model so that every
    # call left inside the loop would be per-event telemetry.
    model = ServiceTimeModel(JETSON_AGX_XAVIER)

    def serve():
        return ServingSimulator(
            None, [poisson_tenant("lenet", 200.0, 1.0, seed=3)],
            ServingConfig(policy=BatchPolicy(max_batch_size=4)),
            service_model=model,
        ).run()

    serve()
    counts = _count_calls(
        monkeypatch,
        (TimelineRecorder, MetricsRegistry, NullRegistry, _NullInstrument,
         SpanTracer, NoopTracer),
    )
    report = serve()
    assert report.served > 0
    assert counts["inside"] == 0, (
        f"{counts['inside']} recorder/metric/tracer calls from inside "
        f"the event loop of a run with observability and timeline off"
    )


def _count_calls(monkeypatch, classes):
    """Wrap every public method (and ``__init__``) of ``classes`` to
    count calls, split by whether ``EventEngine.run`` is on the stack."""
    from repro.sim.engine import EventEngine

    counts = {"inside": 0, "outside": 0}
    inside = [False]

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts["inside" if inside[0] else "outside"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in classes:
        for name, attr in list(vars(cls).items()):
            public = name == "__init__" or not name.startswith("_")
            if public and callable(attr):
                monkeypatch.setattr(cls, name, counted(attr))
    run = EventEngine.run

    def engine_run(self, **callbacks):
        inside[0] = True
        try:
            return run(self, **callbacks)
        finally:
            inside[0] = False

    monkeypatch.setattr(EventEngine, "run", engine_run)
    return counts


def test_enabled_timeline_recording_overhead_under_2_percent(monkeypatch):
    """Recording *enabled* must add nothing to the serve loop itself.

    Metrics, batch spans and the timeline are derived from the request
    table and the batch log after ``EventEngine.run`` returns, so the
    guard is structural — stricter than any percentage budget: an
    observed, timeline-recording serve makes zero recorder, metric or
    tracer calls from inside the event loop.  The one-shot
    :meth:`~repro.obs.timeline.TimelineRecorder.finish` pass is bounded
    separately against the run, fed with the run's real events.
    """
    from repro.obs.metrics import (
        Counter, Gauge, Histogram, MetricFamily, MetricsRegistry,
    )
    from repro.obs.spans import SpanTracer
    from repro.obs.timeline import TimelineRecorder
    from repro.serving import BatchPolicy, ServingConfig
    from repro.serving.simulator import (
        ServiceTimeModel, ServingSimulator, poisson_tenant,
    )

    def serve(window_s, obs=None, model=None):
        sim = ServingSimulator(
            None, [poisson_tenant("lenet", 2000.0, 2.0, seed=3)],
            ServingConfig(policy=BatchPolicy(max_batch_size=8),
                          timeline_window_s=window_s),
            obs=obs, service_model=model,
        )
        return sim, sim.run()

    serve(0.0)  # warm the plan cache so timing is the serve loop
    run_s = min(timeit.repeat(lambda: serve(0.0), repeat=5, number=1))

    # Service-time lookups memoize per model; warm one observed model
    # first so the counted run's lookups are all memo hits and every
    # call left inside the loop would be per-event telemetry.
    obs = Observability.on()
    model = ServiceTimeModel(JETSON_AGX_XAVIER, obs=obs)
    serve(0.25, obs, model)
    recorders = []
    finish = TimelineRecorder.finish

    def capture(recorder, **kwargs):
        recorders.append(recorder)
        return finish(recorder, **kwargs)

    monkeypatch.setattr(TimelineRecorder, "finish", capture)
    counts = _count_calls(
        monkeypatch,
        (TimelineRecorder, MetricsRegistry, MetricFamily, Counter, Gauge,
         Histogram, SpanTracer),
    )
    sim, report = serve(0.25, obs, model)
    assert sim.timeline is not None and report.served > 0
    assert counts["inside"] == 0, (
        f"{counts['inside']} recorder/metric/tracer calls from inside "
        f"the event loop — telemetry is back on the per-event path"
    )
    assert counts["outside"] > 0

    # finish() runs once per simulation, after the loop.  Bound it
    # relative to the run so an accidental per-event Python loop (an
    # order of magnitude over the vectorized pass) fails loudly.  It
    # reads its buffers without consuming them, so time it on the
    # recorder the run itself filled.
    (recorder,) = recorders
    finish_s = min(timeit.repeat(
        lambda: finish(
            recorder, horizon_s=2.0, makespan_s=report.makespan_s,
            capacity={"cpu": 1.0, "gpu": 1.0},
        ),
        repeat=3, number=1,
    ))
    assert finish_s < 0.15 * run_s, (
        f"one-shot timeline finish() took {finish_s * 1e3:.2f} ms "
        f"against a {run_s * 1e3:.2f} ms serve — the windowing pass "
        f"must stay vectorized"
    )

    write_bench_json("timeline_overhead", {
        "run_s": run_s,
        "loop_telemetry_calls": counts["inside"],
        "post_run_telemetry_calls": counts["outside"],
        "finish_us": finish_s * 1e6,
        "finish_budget_pct": 15.0,
        "measured_overhead_pct": _measured_overheads(),
    })


def _measured_overheads():
    """End-to-end wall-time overhead of timeline recording and of
    ``Observability.on()`` over a plain serve, in percent (3 simulated
    seconds of lenet traffic, best of 5 runs each, warm plan cache).
    Reported, not gated: host noise makes a percentage threshold on a
    sub-second run flaky."""
    from repro.serving import BatchPolicy, ServingConfig
    from repro.serving.simulator import ServingSimulator, poisson_tenant

    def best_of(rate, window_s, observed):
        def serve():
            ServingSimulator(
                None, [poisson_tenant("lenet", rate, 3.0, seed=3)],
                ServingConfig(policy=BatchPolicy(max_batch_size=32),
                              timeline_window_s=window_s),
                obs=Observability.on() if observed else None,
            ).run()

        serve()
        return min(timeit.repeat(serve, repeat=5, number=1))

    out = {}
    for rate in (2000.0, 20000.0):
        plain = best_of(rate, 0.0, False)
        out[f"{rate:.0f}_rps"] = {
            "plain_s": plain,
            "timeline_pct": 100.0 * (best_of(rate, 0.1, False) / plain - 1),
            "obs_pct": 100.0 * (best_of(rate, 0.0, True) / plain - 1),
            "obs_and_timeline_pct": 100.0 * (
                best_of(rate, 0.1, True) / plain - 1
            ),
        }
    return out


def test_cluster_timeline_makes_no_per_request_python_calls(monkeypatch):
    """The fleet loop logs per-batch and per-shed events and hands them
    to the recorder as whole arrays after the run, so enabled recording
    must make far fewer recorder calls than there are requests — the
    structural property that keeps fleet-scale telemetry off the
    per-request path."""
    from repro.cluster import (
        ClusterConfig,
        ClusterSimulator,
        ClusterTenant,
        DeviceMix,
    )
    from repro.obs.timeline import TimelineRecorder
    from repro.serving.batcher import BatchPolicy
    from repro.workloads.arrivals import PoissonArrivals

    calls = {}
    for name, attr in list(vars(TimelineRecorder).items()):
        if name.startswith("record_"):
            def wrapper(*args, _fn=attr, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(TimelineRecorder, name, wrapper)

    config = ClusterConfig(
        policy=BatchPolicy(max_batch_size=8, max_wait_s=0.0,
                           max_queue_depth=32, deadline_s=0.5),
        seed=11, timeline_window_s=1.0,
    )
    sim = ClusterSimulator(
        [ClusterTenant("squeezenet", PoissonArrivals(400.0, 5.0, seed=11))],
        DeviceMix.parse("jetson-agx-xavier:4"), 2, config,
    )
    report = sim.run()
    assert report.offered > 1000
    assert sim.timeline is not None
    assert sum(sim.timeline.series["offered"]) == report.offered
    # The whole arrival stream goes in as ONE call; everything else is
    # at most per-batch / per-completion.  A regression back to
    # per-arrival record_offered() shows up immediately in both.
    assert calls.get("record_offered") == 1
    batch_count = sum(r.batches for r in report.replicas)
    total = sum(calls.values())
    assert total <= 1 + 3 * batch_count + report.shed + (
        report.timed_out + report.failed
    ), (
        f"{total} recorder calls for {report.offered} requests "
        f"({calls}) — telemetry is back on the per-request path"
    )


def test_no_scenario_leaves_no_fault_state():
    from repro.serving import BatchPolicy, ServingConfig
    from repro.serving.simulator import ServingSimulator, poisson_tenant

    sim = ServingSimulator(
        None, [poisson_tenant("lenet", 50.0, 0.5)],
        ServingConfig(policy=BatchPolicy()),
    )
    report = sim.run()
    assert sim.injector is None
    assert sim.breaker is None
    assert sim.degradation is None
    assert "fault_events" not in report.extra

"""Golden parity gate for the vectorized event engine.

The refactor that moved both simulators onto ``repro.sim.engine`` is
pinned by pre-refactor goldens: every scenario's report digest (and
timeline-artifact digest, where recording is on) must stay bit-identical
to the legacy per-request loops that generated
``tests/golden/engine_parity.json``.  Regenerate — only for a
deliberate, reviewed semantic change — with::

    PYTHONPATH=src:tests python tests/golden/generate_engine_goldens.py

Alongside the goldens, property tests pin the engine's core invariant:
the event heap never pops out of virtual-time order, and same-instant
events keep (kind, push-order) priority.
"""

import heapq
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.sim.engine import ArrivalSchedule, EventEngine, EventHeap

from .engine_scenarios import SCENARIOS

GOLDEN = Path(__file__).parent.parent / "golden" / "engine_parity.json"
_INF = float("inf")


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(goldens):
    assert sorted(goldens) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_parity(name, goldens):
    report_digest, timeline_digest = SCENARIOS[name]()
    pinned = goldens[name]
    assert report_digest == pinned["report_digest"], (
        f"{name}: report digest drifted from the pre-refactor golden"
    )
    assert timeline_digest == pinned["timeline_digest"], (
        f"{name}: timeline digest drifted from the pre-refactor golden"
    )


# -- event-heap ordering properties ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(
                min_value=0.0,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=64,
    )
)
def test_heap_pops_in_virtual_time_order(events):
    """Pops come out sorted by (time, kind, push order) — never a step
    back in virtual time, no matter the push order."""
    heap = EventHeap()
    for i, (t, kind) in enumerate(events):
        heap.push(t, kind, payload=i)
    popped = [heap.pop() for _ in range(len(events))]
    assert not heap
    times = [p[0] for p in popped]
    assert times == sorted(times)
    # Full priority: (time, kind, seq) strictly increases.
    triples = [(t, kind, seq) for t, kind, seq, _ in popped]
    assert triples == sorted(triples)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=0.0,
            max_value=100.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=32,
    ),
    st.data(),
)
def test_heap_interleaved_pushes_stay_monotone(times, data):
    """Pushing at-or-after the current virtual instant (what the
    simulators do) keeps pops monotone even when pushes interleave."""
    heap = EventHeap()
    heap.push(times[0], 0)
    now = 0.0
    remaining = times[1:]
    while heap:
        t, _, _, _ = heap.pop()
        assert t >= now
        now = t
        # Simulators only schedule completions/timers at >= now.
        for _ in range(min(len(remaining), data.draw(st.integers(0, 2)))):
            dt = remaining.pop()
            heap.push(now + dt, 1)


def test_heap_flags_out_of_order_pop():
    """The always-on monotonicity guard trips if someone schedules an
    event in the popped past."""
    heap = EventHeap()
    heap.push(5.0, 0)
    heap.pop()
    heap.push(1.0, 0)
    with pytest.raises(ReproError):
        heap.pop()


def test_heap_peek_matches_pop():
    heap = EventHeap()
    heap.push(2.0, 1, payload="b")
    heap.push(2.0, 0, payload="a")
    assert heap.peek_time() == 2.0
    assert heap.peek_kind() == 0
    assert heap.pop()[3] == "a"  # kind breaks the same-instant tie
    assert heap.pop()[3] == "b"
    assert heap.peek_time() == float("inf")


# -- the engine loop against a per-arrival reference -------------------------


class _ReferenceSchedule:
    """The arrival cursor the engine loop replaced, kept as the oracle:
    peek and pop one arrival at a time, static before dynamic on ties."""

    def __init__(self, streams):
        merged = sorted(
            (t, owner, pos)
            for owner, stream in enumerate(streams)
            for pos, t in enumerate(stream)
        )
        self.static = [(t, owner) for t, owner, _ in merged]
        self.i = 0
        self.dynamic = []
        self.seq = len(self.static)

    def push(self, time_s, owner):
        heapq.heappush(self.dynamic, (time_s, self.seq, owner))
        self.seq += 1

    def peek_time(self):
        s = self.static[self.i][0] if self.i < len(self.static) else _INF
        return min(s, self.dynamic[0][0]) if self.dynamic else s

    def pop(self):
        s = self.static[self.i][0] if self.i < len(self.static) else _INF
        if self.dynamic and self.dynamic[0][0] < s:
            time_s, _, owner = heapq.heappop(self.dynamic)
            return time_s, owner
        self.i += 1
        return self.static[self.i - 1]

    def take_until(self, limit_s):
        span = []
        while self.i < len(self.static) and self.static[self.i][0] <= limit_s:
            span.append(self.static[self.i])
            self.i += 1
        return span


def _reference_run(schedule, heap, on_arrival, on_event, bulk_ready,
                   on_arrivals, next_tick, on_tick):
    while True:
        t_arrival = schedule.peek_time()
        t_event = heap.peek_time()
        t_next = min(t_arrival, t_event)
        if t_next == _INF:
            return
        if next_tick is not None and next_tick() <= t_next:
            on_tick(next_tick())
            continue
        if t_arrival <= t_event:
            if bulk_ready is not None and bulk_ready():
                span = schedule.take_until(t_event)
                if span:
                    on_arrivals([t for t, _ in span], [o for _, o in span])
                    continue
            on_arrival(*schedule.pop())
        else:
            now, kind, _seq, payload = heap.pop()
            on_event(now, kind, payload)


def _drive(streams, gaps, *, bulk, tick_s, reference):
    """Run one engine (or the reference) with callbacks that feed back
    closed-loop follow-ups and heap events; returns the event log."""
    heap = EventHeap()
    if reference:
        schedule = _ReferenceSchedule(streams)
    else:
        schedule = ArrivalSchedule([np.asarray(s) for s in streams])
    log = []
    ticks = [tick_s]

    def on_arrival(now, owner):
        log.append(("arrival", now, owner))
        gap = gaps[len(log) % len(gaps)]
        if not bulk and owner == 0 and len(log) < 60:
            schedule.push(now + gap, 0)
        heap.push(now + gap, len(log) % 3, len(log))

    def on_event(now, kind, payload):
        log.append(("event", now, kind, payload))

    def on_arrivals(times, owners):
        log.append(("bulk", list(map(float, times)), list(map(int, owners))))

    def on_tick(now):
        log.append(("tick", now))
        ticks[0] += tick_s

    def run(**callbacks):
        if reference:
            _reference_run(
                schedule, heap, callbacks["on_arrival"],
                callbacks["on_event"], callbacks.get("bulk_ready"),
                callbacks.get("on_arrivals"), callbacks.get("next_tick"),
                callbacks.get("on_tick"),
            )
        else:
            EventEngine(schedule, heap).run(**callbacks)

    callbacks = {"on_arrival": on_arrival, "on_event": on_event}
    if bulk:
        callbacks["bulk_ready"] = lambda: len(log) % 3 != 0
        callbacks["on_arrivals"] = on_arrivals
    if tick_s > 0.0:
        callbacks["next_tick"] = lambda: ticks[0]
        callbacks["on_tick"] = on_tick
    run(**callbacks)
    return log


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    streams=st.lists(
        st.lists(st.integers(0, 40), max_size=25).map(
            lambda ts: sorted(t / 4.0 for t in ts)
        ),
        min_size=1,
        max_size=3,
    ),
    gaps=st.lists(st.integers(0, 8).map(lambda g: g / 4.0), min_size=1,
                  max_size=6),
    chunk=st.integers(1, 6),
    bulk=st.booleans(),
    tick_s=st.sampled_from([0.0, 0.75, 2.5]),
)
def test_engine_loop_matches_per_arrival_reference(
    monkeypatch, streams, gaps, chunk, bulk, tick_s
):
    """The chunked cursor, in-place peeks and in-chunk bulk spans
    deliver the same callbacks, at the same instants, in the same order
    as a loop that peeks and pops one arrival at a time — ties between
    static and closed-loop arrivals, events and ticks included, and
    across chunk boundaries (tiny chunks)."""
    from repro.sim.engine import core

    monkeypatch.setattr(core, "CHUNK", chunk)
    expected = _drive(streams, gaps, bulk=bulk, tick_s=tick_s,
                      reference=True)
    assert _drive(streams, gaps, bulk=bulk, tick_s=tick_s,
                  reference=False) == expected

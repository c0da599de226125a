"""Timing harness: repeated set-up, timed repetitions, host normalization.

Host speed on a shared machine drifts by more than the effects worth
measuring, so every timed phase is bracketed by a fixed reference loop
(heapq, dict and ``np.sort`` work, about 0.3 s).  A phase's wall time is
scaled by ``REFERENCE_NOMINAL_S / reference``, where ``reference`` is the
mean of the loops just before and just after it: on a host running at
half speed both the phase and the loop take twice as long, and the
normalized figure does not move.  Raw wall and reference times are kept
beside every normalized value.
"""

from __future__ import annotations

import gc
import heapq
import resource
import statistics
import time
from threading import BrokenBarrierError
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:
    from workload_defs import Outcome, State, Workload

#: Reference-loop time the normalized figures are expressed against: a
#: normalized second is a second on a host where the loop takes this long
#: (about a quiet two-core container host).
REFERENCE_NOMINAL_S = 0.30
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A set-up faster than this is repeated within one sample and averaged,
#: so a millisecond-scale set-up is not timer and scheduler noise.
SETUP_MIN_SAMPLE_S = 0.2

#: Longest wait for the reference children to line up for a loop.
CHILD_TIMEOUT_S = 60.0

_REF_RNG_SEED = 20231017
_REF_ROUNDS = 8


def reference_work() -> float:
    """Fixed interpreter + numpy work whose duration tracks host speed."""
    rng = np.random.default_rng(_REF_RNG_SEED)
    keys = rng.integers(0, 1 << 30, size=40_000).tolist()
    values = rng.random(400_000)
    acc = 0.0
    for _ in range(_REF_ROUNDS):
        heap: List[int] = []
        for k in keys:
            heapq.heappush(heap, k)
        while heap:
            acc += heapq.heappop(heap) & 1
        table = {k: i for i, k in enumerate(keys)}
        for k in keys:
            acc += table[k] & 1
        acc += float(np.sort(values)[len(values) // 2])
    return acc


def reference_seconds() -> float:
    """Time the reference loop once, in this process."""
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


class ReferenceLoop:
    """Times the reference loop on ``processes`` processes at once and
    returns the slowest.  A workload that keeps several cores busy slows
    down when other tenants take one of them, which one loop on one core
    barely sees.

    The extra processes are started once and stopped by :meth:`close`,
    after the run has read its children's peak resident set: none of
    them is reaped before, so ``RUSAGE_CHILDREN`` holds the workload's
    workers alone.  They are forked: a spawn context would also start
    multiprocessing's resource-tracker process, which outlives the run.
    """

    def __init__(self, processes: int) -> None:
        self._children: list = []
        if processes > 1:
            ctx = get_context("fork")
            self._start = ctx.Barrier(processes + 1)
            self._results = ctx.SimpleQueue()
            self._children = [
                ctx.Process(target=_reference_child,
                            args=(self._start, self._results), daemon=True)
                for _ in range(processes)
            ]
            for child in self._children:
                child.start()

    def seconds(self) -> float:
        if not self._children:
            return reference_seconds()
        # A child that died breaks the barrier instead of hanging the run.
        self._start.wait(timeout=CHILD_TIMEOUT_S)
        return max(self._results.get() for _ in self._children)

    def close(self) -> None:
        if self._children:
            self._start.abort()
            for child in self._children:
                child.join()
            self._children = []


def _reference_child(start, results) -> None:
    while True:
        try:
            start.wait()
        except BrokenBarrierError:
            return
        results.put(reference_seconds())


@dataclass
class Timed:
    """One timed phase and the mean of the reference loops around it."""

    wall_s: float
    reference_s: float

    @property
    def normalized_s(self) -> float:
        return self.wall_s * REFERENCE_NOMINAL_S / self.reference_s


@dataclass
class RunResult:
    setups: List[Timed]
    reps: List[Timed]
    outcomes: List[Outcome]
    attempted: int
    failed: int
    failures: List[str]
    peak_rss_mb: float
    phases: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return statistics.median(t.normalized_s for t in self.setups)

    @property
    def ops_per_s(self) -> float:
        return statistics.median(
            o.ops / t.normalized_s for o, t in zip(self.outcomes, self.reps)
        )

    @property
    def raw_ops_per_s(self) -> float:
        return statistics.median(o.ops / o.wall_s for o in self.outcomes)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has reaped (the
    fleet's workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check(outcome: Outcome, first: Optional[Outcome],
          pinned: Optional[str] = None) -> List[str]:
    """Per-repetition failures: the workload's own checks, the pinned
    digest, and determinism against the first repetition."""
    failures = list(outcome.failures)
    if pinned is not None and outcome.digest != pinned:
        failures.append(
            f"digest {outcome.digest[:12]} != pinned {pinned[:12]}"
        )
    if first is not None and outcome.digest != first.digest:
        failures.append(
            f"digest {outcome.digest[:12]} differs from the first "
            f"repetition's {first.digest[:12]}"
        )
    return failures


def set_up(workload: Workload, seed: int, size: str, workdir: Path):
    """Run ``setup`` ``SETUP_REPEATS`` times; returns (last state,
    timings, the last reference time)."""
    timings = []
    before = reference_seconds()
    state: Optional[State] = None
    for _ in range(SETUP_REPEATS):
        calls = 0
        started = time.perf_counter()
        while not calls or time.perf_counter() - started < SETUP_MIN_SAMPLE_S:
            state = workload.setup(seed, size, workdir)
            calls += 1
        wall = (time.perf_counter() - started) / calls
        after = reference_seconds()
        timings.append(Timed(wall, (before + after) / 2))
        before = after
    return state, timings, before


def measure(workload: Workload, seed: int, seconds: float, size: str,
            workdir: Path, pinned: Optional[str] = None) -> RunResult:
    """Set up, then repeat the workload until ``seconds`` have passed."""
    state, setups, before = set_up(workload, seed, size, workdir)
    reference = ReferenceLoop(workload.processes)
    try:
        if workload.processes > 1:
            before = reference.seconds()
        reps: List[Timed] = []
        outcomes: List[Outcome] = []
        failures: List[str] = []
        attempted = failed = 0
        phases: Dict[str, List[float]] = {}
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or not attempted:
            # Garbage from the previous repetition is not this one's cost.
            gc.collect()
            attempted += 1
            try:
                outcome = workload.run(state)
            except Exception as exc:  # noqa: BLE001 - a failed repetition is a result
                failed += 1
                failures.append(f"{type(exc).__name__}: {exc}")
                continue
            after = reference.seconds()
            reps.append(Timed(outcome.wall_s, (before + after) / 2))
            before = after
            problems = check(outcome, outcomes[0] if outcomes else None, pinned)
            if problems:
                failed += 1
                failures += problems
            outcomes.append(outcome)
            for name, value in outcome.phases.items():
                phases.setdefault(name, []).append(value)
        peak = peak_rss_mb()
    finally:
        reference.close()
    return RunResult(
        setups=setups, reps=reps,
        outcomes=outcomes, attempted=attempted, failed=failed,
        failures=failures, peak_rss_mb=peak, phases=phases,
    )

"""Labeled counters, gauges, and histograms with a Prometheus-style API.

The registry is deliberately tiny — enough to answer "how effective was
the plan cache", "how deep did the queue get", "what batch sizes did the
batcher produce" — while staying deterministic (no wall-clock
timestamps; everything is driven by the virtual clock or by event
counts).

Exporters live in :mod:`repro.obs.export` (Prometheus text format and
JSON).  The disabled registry (:data:`NULL_REGISTRY`) hands out one
shared do-nothing instrument so instrumented code costs almost nothing
when observability is off.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError

#: Default latency-style buckets, in seconds (500 µs .. 10 s, log-ish).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for batch-size style distributions.
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError(f"counter increments must be >= 0, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, in-flight batches)."""

    __slots__ = ("_value", "_max")

    def __init__(self) -> None:
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        self._value = value
        self._max = max(self._max, value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    @property
    def max_value(self) -> float:
        """Highest value ever set (handy for queue-depth high-water marks)."""
        return self._max


class Histogram:
    """Fixed-bucket histogram with sum and count (Prometheus semantics)."""

    __slots__ = ("buckets", "_bucket_counts", "_sum", "_count", "_max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(buckets)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ReproError(
                f"histogram buckets must be strictly increasing: {buckets}"
            )
        self.buckets = ordered
        self._bucket_counts = [0] * len(ordered)   # non-cumulative
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        self._sum += value
        self._count += 1
        if value > self._max:
            self._max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._bucket_counts[i] += 1
                return
        # falls into the explicit +Inf overflow bucket only

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe every value in order, exactly as repeated
        :meth:`observe` calls would: the sum adds left to right through
        a seeded cumsum, so it is bit-identical to the one-by-one adds."""
        arr = np.asarray(values, dtype=np.float64).reshape(-1)
        if not arr.size:
            return
        self._sum = float(np.cumsum(np.concatenate(([self._sum], arr)))[-1])
        self._count += int(arr.size)
        top = values[int(arr.argmax())]
        if top > self._max:
            # Keep the observed value's own type, as observe() does.
            self._max = top.item() if isinstance(top, np.generic) else top
        nb = len(self.buckets)
        hits = np.bincount(
            np.searchsorted(self.buckets, arr, side="left"), minlength=nb + 1
        )
        for i, n in enumerate(hits[:nb].tolist()):
            self._bucket_counts[i] += n

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    @property
    def max_value(self) -> float:
        """Largest observation (exact; bounds the +Inf overflow bucket)."""
        return self._max

    def quantile(self, q: float) -> float:
        """Deterministic nearest-rank quantile from the bucket counts.

        Returns the upper bound of the bucket holding the q-th
        observation; observations past the last bound report the exact
        maximum, so tail quantiles are never understated to a finite
        bound they exceed.
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        if not self._count:
            return 0.0
        rank = max(1, -(-q * self._count // 1))   # ceil(q * count)
        running = 0
        for bound, n in zip(self.buckets, self._bucket_counts):
            running += n
            if running >= rank:
                return min(bound, self._max)
        return self._max

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """[(upper_bound, cumulative_count), ...] ending with (+inf, count)."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self._bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self._count))
        return out

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with a fixed label set and per-label-value children."""

    def __init__(self, name: str, kind: str, help: str,
                 label_names: Tuple[str, ...],
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels: str):
        """The child instrument for one concrete label assignment."""
        if set(labels) != set(self.label_names):
            raise ReproError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self._buckets or DEFAULT_BUCKETS)
            else:
                child = _KINDS[self.kind]()
            self._children[key] = child
        return child

    # Label-free convenience: family proxies to its single child.

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label values, instrument) pairs in insertion order."""
        return list(self._children.items())


class _NullInstrument:
    """Shared sink: accepts every metric operation and discards it."""

    __slots__ = ()

    def labels(self, **labels: str) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: every metric is the shared null instrument."""

    enabled = False

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def families(self) -> List[MetricFamily]:
        return []


#: Process-wide disabled registry (the default everywhere).
NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """Holds every metric family of one observed run."""

    enabled = True

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _get_or_create(self, name: str, kind: str, help: str,
                       labels: Iterable[str],
                       buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        label_names = tuple(labels)
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != label_names:
                raise ReproError(
                    f"metric {name!r} re-registered as {kind} with labels "
                    f"{label_names}; it is a {family.kind} with "
                    f"{family.label_names}"
                )
            return family
        family = MetricFamily(name, kind, help, label_names, buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> MetricFamily:
        return self._get_or_create(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> MetricFamily:
        return self._get_or_create(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        return self._get_or_create(name, "histogram", help, labels, buckets)

    def families(self) -> List[MetricFamily]:
        """All families, sorted by name (export order)."""
        return [self._families[n] for n in sorted(self._families)]

    def family(self, name: str) -> MetricFamily:
        try:
            return self._families[name]
        except KeyError as exc:
            raise ReproError(f"unknown metric {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)

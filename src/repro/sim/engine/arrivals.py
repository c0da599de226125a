"""Merged arrival epochs: numpy arrays instead of heap entries.

Every open-loop arrival process knows its whole trace up front
(:meth:`~repro.workloads.arrivals.ArrivalProcess.as_arrays`), so the
engine merges all streams once — concatenate plus one stable argsort —
and walks a cursor instead of paying ``heappush``/``heappop`` per
request.  Closed-loop follow-ups (arrivals created by completions) go
through a small dynamic side-heap that loses ties against the static
epoch, reproducing the legacy single-heap order where static arrivals
were pushed first and therefore carried smaller sequence numbers.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np


#: How many static arrivals the engine loop converts to Python lists at
#: a time: per-arrival reads stay off numpy scalars without ever holding
#: the whole epoch as a list (a full ``tolist()`` costs ~32 bytes of
#: peak memory per arrival).
CHUNK = 4096


class ArrivalSchedule:
    """Time-ordered arrival epoch plus a closed-loop side-heap.

    ``streams[k]`` is owner ``k``'s sorted arrival array; the merge is
    stable, so same-instant arrivals keep (owner, position) order —
    exactly the order a shared push-counter heap would produce when
    each owner's arrivals are pushed in declaration order.  The
    :class:`~repro.sim.engine.core.EventEngine` walks the static epoch
    itself (in :data:`CHUNK`-sized list views, or whole spans on the
    bulk path) and records how far it got in :attr:`consumed`.
    """

    __slots__ = ("times", "owners", "dynamic", "consumed", "_dseq")

    def __init__(self, streams: Sequence[np.ndarray]) -> None:
        chunks: List[np.ndarray] = []
        owners: List[np.ndarray] = []
        for index, stream in enumerate(streams):
            arr = np.asarray(stream, dtype=np.float64)
            chunks.append(arr)
            owners.append(np.full(len(arr), index, dtype=np.int32))
        times = np.concatenate(chunks) if chunks else np.empty(0)
        owner = np.concatenate(owners) if owners else np.empty(0, np.int32)
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        self.owners = owner[order]
        #: static arrivals already delivered (the epoch cursor).
        self.consumed = 0
        #: dynamic (closed-loop) follow-ups as a heap of (time, seq,
        #: owner); seq starts past the static epoch so dynamics lose
        #: every same-instant tie to it.  The engine loop peeks at it
        #: in place, so the list object is never rebound.
        self.dynamic: List[Tuple[float, int, int]] = []
        self._dseq = len(self.times)

    def __len__(self) -> int:
        return (len(self.times) - self.consumed) + len(self.dynamic)

    def __bool__(self) -> bool:
        return self.consumed < len(self.times) or bool(self.dynamic)

    def push(self, time_s: float, owner: int) -> None:
        """Add one dynamic (closed-loop) arrival."""
        heapq.heappush(self.dynamic, (time_s, self._dseq, owner))
        self._dseq += 1

    def pop_dynamic(self) -> Tuple[float, int]:
        """Pop the earliest dynamic arrival as (time, owner)."""
        time_s, _, owner = heapq.heappop(self.dynamic)
        return time_s, owner

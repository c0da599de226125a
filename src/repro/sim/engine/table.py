"""Request state as a struct of arrays.

One row per request, one numpy column per field — the engine's
replacement for a Python :class:`~repro.serving.request.Request`
object per arrival.  Status codes are small ints mapping 1:1 onto
:class:`~repro.serving.request.RequestStatus`; unset instants are NaN
(materialized back to ``None``).  Consumers that genuinely need
objects (the Chrome-trace export, the CLI) call :meth:`materialize`
once after the run, off the hot path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

#: status codes (int8 column values), in rough lifecycle order.
PENDING = 0
RUNNING = 1
SERVED = 2
SHED = 3
TIMED_OUT = 4
FAILED = 5
REJECTED = 6


def status_of_code() -> Dict[int, object]:
    """Code → :class:`RequestStatus` map (deferred import: the serving
    package imports this engine, so the edge back must stay lazy)."""
    from ...serving.request import RequestStatus

    return {
        PENDING: RequestStatus.PENDING,
        RUNNING: RequestStatus.RUNNING,
        SERVED: RequestStatus.SERVED,
        SHED: RequestStatus.SHED,
        TIMED_OUT: RequestStatus.TIMED_OUT,
        FAILED: RequestStatus.FAILED,
        REJECTED: RequestStatus.REJECTED,
    }


class RequestTable:
    """Growable struct-of-arrays request store."""

    __slots__ = (
        "arrival_s", "finish_s", "dispatch_s", "deadline_s",
        "status", "tenant", "batch_size", "batch", "corrupt", "size",
    )

    def __init__(self, capacity: int = 0) -> None:
        cap = max(int(capacity), 16)
        self.arrival_s = np.empty(cap, dtype=np.float64)
        self.finish_s = np.full(cap, np.nan)
        self.dispatch_s = np.full(cap, np.nan)
        self.deadline_s = np.full(cap, np.nan)
        self.status = np.zeros(cap, dtype=np.int8)
        self.tenant = np.zeros(cap, dtype=np.int32)
        self.batch_size = np.zeros(cap, dtype=np.int32)
        #: index of the executed batch in the simulator's batch log;
        #: -1 for rows never executed (shed, rejected, abandoned in the
        #: queue, or failed at dispatch before reaching the device).
        self.batch = np.full(cap, -1, dtype=np.int32)
        self.corrupt = np.zeros(cap, dtype=bool)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def _grow_to(self, needed: int) -> None:
        cap = len(self.arrival_s)
        if needed <= cap:
            return
        new = max(needed, cap * 2)
        for name, fill in (
            ("arrival_s", 0.0), ("finish_s", np.nan),
            ("dispatch_s", np.nan), ("deadline_s", np.nan),
            ("status", 0), ("tenant", 0), ("batch_size", 0),
            ("batch", -1), ("corrupt", False),
        ):
            old = getattr(self, name)
            col = np.full(new, fill, dtype=old.dtype)
            col[:cap] = old
            setattr(self, name, col)

    def append(self, arrival_s: float, tenant: int) -> int:
        """Add one request row; returns its index (= request id)."""
        idx = self.size
        self._grow_to(idx + 1)
        self.arrival_s[idx] = arrival_s
        self.tenant[idx] = tenant
        self.size = idx + 1
        return idx

    def append_bulk(
        self,
        arrivals_s: np.ndarray,
        tenant: Union[int, np.ndarray],
    ) -> int:
        """Add one row per arrival; returns the first new index."""
        n = len(arrivals_s)
        start = self.size
        self._grow_to(start + n)
        self.arrival_s[start:start + n] = arrivals_s
        self.tenant[start:start + n] = tenant
        self.size = start + n
        return start

    # -- materialization (off the hot path) ------------------------------

    def materialize(
        self, tenant_names: Sequence[str], limit: Optional[int] = None
    ) -> List["object"]:
        """Build legacy :class:`Request` objects for trace export."""
        from ...serving.request import Request

        codes = status_of_code()
        n = self.size if limit is None else min(limit, self.size)
        arrival = self.arrival_s[:n].tolist()
        finish = self.finish_s[:n].tolist()
        dispatch = self.dispatch_s[:n].tolist()
        deadline = self.deadline_s[:n].tolist()
        status = self.status[:n].tolist()
        tenant = self.tenant[:n].tolist()
        batch = self.batch_size[:n].tolist()
        corrupt = self.corrupt[:n].tolist()
        out: List[Request] = []
        isnan = np.isnan
        for i in range(n):
            out.append(Request(
                request_id=i,
                tenant=tenant_names[tenant[i]],
                arrival_s=arrival[i],
                status=codes[status[i]],
                dispatch_s=None if isnan(dispatch[i]) else dispatch[i],
                finish_s=None if isnan(finish[i]) else finish[i],
                batch_size=batch[i],
                deadline_s=None if isnan(deadline[i]) else deadline[i],
                corrupt=corrupt[i],
            ))
        return out

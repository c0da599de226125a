"""Outside-in per-layer tracing: wrap the library's callables, then unwrap.

The library is not edited.  :class:`LayerTracer` replaces each callable
named in :data:`LAYERS` (class attributes, and module functions in every
``repro`` module that imported them) with a timing wrapper, and puts the
originals back on :meth:`LayerTracer.uninstall`.  Calls, total and self
time aggregate in memory per layer; a layer's self time is its wrapped
calls' duration minus the time spent in nested wrapped calls of *other*
layers.  A nested call into the same layer (a subclass ``__init__``
calling its base, ``warm`` calling ``service``) is not counted again.

``EventEngine.run`` takes the simulator's event callbacks as arguments;
the tracer wraps those too and charges their time to the calling
simulator's layer, so ``sim.engine.run`` self time is the engine loop
alone.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_perf = time.perf_counter

#: A target: (module, qualified name, methods).  ``Class+`` also covers
#: every subclass; a ``*`` suffix on a method matches by prefix;
#: ``method=counter`` also counts every call, nested ones too, under
#: ``counter``.  A module-level function has no methods.
Target = Tuple[str, str, Sequence[str]]

LAYERS: Dict[str, List[Target]] = {
    "workloads.arrivals": [
        ("repro.workloads.arrivals", "ArrivalProcess+", ("__init__", "as_arrays")),
    ],
    "sim.engine.run": [("repro.sim.engine.core", "EventEngine", ("run",))],
    "sim.engine.heap": [("repro.sim.engine.heap", "EventHeap", ("push", "pop"))],
    "sim.engine.queue": [
        ("repro.sim.engine.queue", "IndexQueue",
         ("offer", "admit_bulk", "take_batch", "expire")),
    ],
    "sim.engine.table": [
        ("repro.sim.engine.table", "RequestTable", ("append", "append_bulk")),
    ],
    "serving.scheduler": [
        ("repro.serving.scheduler", "WeightedFairScheduler", ("pick", "charge")),
    ],
    "serving.simulator": [("repro.serving.simulator", "ServingSimulator", ("run",))],
    "serving.service_time": [
        ("repro.serving.simulator", "ServiceTimeModel",
         ("service", "warm", "warm_times", "cold")),
    ],
    "serving.report": [
        ("repro.serving.report", "LatencyStats", ("from_latencies",)),
        ("repro.serving.simulator", "ServingSimulator", ("_build_report",)),
    ],
    "core.executor": [
        ("repro.core.executor", "HybridExecutor",
         ("run=core.executor.runs", "step=core.executor.layers",
          "begin", "finish")),
    ],
    "compile.stage.profile": [
        ("repro.core.tuner", "AdaptiveTuner", ("stage_profile",)),
    ],
    "compile.stage.partition": [
        ("repro.core.tuner", "AdaptiveTuner", ("partition_chain_layers",)),
    ],
    "compile.stage.schedule": [
        ("repro.core.tuner", "AdaptiveTuner",
         ("schedule_branch_layers", "assemble_seed_plan", "stage_feedback")),
    ],
    "compile.stage.lower": [("repro.core.tuner", "AdaptiveTuner", ("stage_lower",))],
    "compile.fixed": [("repro.compile.pipeline", "compile_fixed", ())],
    "store.put": [("repro.store.plan_store", "PlanStore", ("put", "register"))],
    "store.get": [("repro.store.plan_store", "PlanStore", ("get",))],
    "fsutil.atomic_write": [("repro.fsutil", "atomic_write_text", ())],
    "tuning.queue": [
        ("repro.tuning.queue", "JobQueue",
         ("claim", "complete", "fail", "expire_leases")),
    ],
    "cluster.router": [("repro.cluster.router", "Router+", ("choose", "note"))],
    "cluster.simulator": [("repro.cluster.simulator", "ClusterSimulator", ("run",))],
    "faults.injector": [
        ("repro.faults.injector", "FaultInjector",
         ("throttle_at", "memory_pressure_at", "kernel_fails",
          "payload_corrupt", "artifact_corrupt", "worker_crashes",
          "artifact_corrupt_keyed")),
    ],
    "obs.metrics": [
        ("repro.obs.metrics", "MetricFamily", ("labels", "inc", "set", "observe")),
        ("repro.obs.metrics", "Histogram", ("observe",)),
        ("repro.obs.metrics", "Counter", ("inc",)),
        ("repro.obs.metrics", "Gauge", ("set", "inc", "dec")),
    ],
    "obs.spans": [("repro.obs.spans", "SpanTracer", ("span", "record", "event"))],
    "obs.timeline.record": [
        ("repro.obs.timeline", "TimelineRecorder", ("record_*",)),
    ],
    "obs.timeline.finish": [("repro.obs.timeline", "TimelineRecorder", ("finish",))],
    "obs.slo": [("repro.obs.timeline", "SloMonitor", ("evaluate",))],
    "obs.provenance": [("repro.obs.provenance", "ProvenanceLog", ("record_*",))],
}

#: The layer whose wrapper also wraps the event callbacks it is handed.
_ENGINE_LAYER = "sim.engine.run"


def _classes(cls: type, with_subclasses: bool) -> List[type]:
    found = [cls]
    if with_subclasses:
        for sub in cls.__subclasses__():
            found += [c for c in _classes(sub, True) if c not in found]
    return found


class LayerTracer:
    """Aggregates calls, total and self seconds per layer, in memory."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.total_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.counts: Dict[str, float] = defaultdict(float)
        #: targets that no longer resolve (renamed or removed API).
        self.unresolved: List[str] = []
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------------

    def _timed(self, layer: str, fn: Callable, counter: Optional[str],
               counted: bool, hook: Optional[Callable]) -> Callable:
        stack, counts, calls = self._stack, self.counts, self.calls
        self_s, total_s = self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if hook is not None:
                hook(counts, args, kwargs)
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if counted:
                calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            started = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - started
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                total_s[layer] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _engine_run(self, fn: Callable) -> Callable:
        """``EventEngine.run`` wrapper that charges callbacks to the caller."""
        timed = self._timed(_ENGINE_LAYER, fn, None, True, None)
        stack = self._stack

        def run(engine, **callbacks):
            owner = stack[-1][0] if stack else None
            if owner is not None:
                callbacks = {
                    name: (self._timed(owner, cb, None, False, None)
                           if callable(cb) else cb)
                    for name, cb in callbacks.items()
                }
            return timed(engine, **callbacks)

        run.__wrapped__ = fn
        run.__name__ = "run"
        run.__qualname__ = getattr(fn, "__qualname__", "run")
        return run

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_attr(self, owner: type, attr: str, layer: str,
                   counter: Optional[str]) -> None:
        raw = owner.__dict__[attr]
        hook = _HOOKS.get(f"{owner.__name__}.{attr}")
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(
                self._timed(layer, raw.__func__, counter, True, hook)
            )
        elif layer == _ENGINE_LAYER:
            wrapped = self._engine_run(raw)
        else:
            wrapped = self._timed(layer, raw, counter, True, hook)
        self._patch(owner, attr, wrapped)

    def install(self) -> "LayerTracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            for module_name, qualname, methods in targets:
                try:
                    module = importlib.import_module(module_name)
                    obj = getattr(module, qualname.rstrip("+"))
                except (ImportError, AttributeError):
                    self.unresolved.append(f"{module_name}:{qualname}")
                    continue
                if not methods:
                    self._wrap_function(qualname, obj, layer)
                    continue
                classes = _classes(obj, qualname.endswith("+"))
                for method in methods:
                    name, _, counter = method.partition("=")
                    hits = 0
                    for cls in classes:
                        for attr in list(cls.__dict__):
                            if (attr.startswith(name[:-1]) if name.endswith("*")
                                    else attr == name) and callable(
                                        getattr(cls, attr, None)):
                                self._wrap_attr(cls, attr, layer, counter or None)
                                hits += 1
                    if not hits:
                        self.unresolved.append(f"{module_name}:{qualname}.{name}")
        return self

    def _wrap_function(self, name: str, fn: Callable, layer: str) -> None:
        wrapped = self._timed(layer, fn, None, True, _HOOKS.get(name))
        for mod_name, module in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    getattr(module, name, None) is fn:
                self._patch(module, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _bulk_rows(counts, args, kwargs) -> None:
    counts["sim.engine.table.bulk_rows"] += len(args[1])


def _one_row(counts, args, kwargs) -> None:
    counts["sim.engine.table.rows"] += 1


def _written_bytes(counts, args, kwargs) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["fsutil.atomic_write.bytes"] += len(text.encode())


#: Argument probes that count work units at a wrapped call.
_HOOKS: Dict[str, Callable] = {
    "RequestTable.append_bulk": _bulk_rows,
    "RequestTable.append": _one_row,
    "atomic_write_text": _written_bytes,
}

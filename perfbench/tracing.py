"""Span tracing from outside the program.

:class:`Tracer` replaces public entry points of the program, as the
modules that call them bind them, with wrappers that record one span per
call: name, start, end, parent span and the unit (step or served round)
it belongs to.  Spans stay in memory; :meth:`Tracer.chrome_trace` writes
them out as Chrome Trace Event JSON and :meth:`Tracer.layer_totals`
gives each span name's self time (its duration minus the part of it
that child spans cover), call count and bytes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Set

import numpy as np


def nbytes_of(*objs) -> int:
    """Bytes of every array in ``objs``, looking one level into lists,
    tuples and dict values (kernel inputs and results)."""
    total = 0
    for obj in objs:
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            total += sum(a.nbytes for a in obj if isinstance(a, np.ndarray))
        elif isinstance(obj, dict):
            total += sum(
                a.nbytes for a in obj.values() if isinstance(a, np.ndarray)
            )
    return total


class Tracer:
    """In-memory span recorder; records only while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        #: Identifier of the step or round the next spans belong to.
        self.unit: str = ""
        #: ``[name, start_s, end_s, parent_index, unit, nbytes]`` per span.
        self.spans: List[list] = []
        #: ``id()`` of every backward plan, so plan runs name their phase.
        self.bwd_plans: Set[int] = set()
        self._stack: List[int] = []
        self._open = Counter()
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit, 0])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _end(self, index: int, nbytes: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = nbytes
        self._stack.pop()
        self._open[span[0]] -= 1

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    # -- wrapping the program's entry points ----------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str = "",
        *,
        name_of: Optional[Callable] = None,
        within: Optional[str] = None,
        count_bytes: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name_of(args)`` names the span per call instead of ``name``;
        ``within`` records only calls made inside an open span of that
        name; ``count_bytes`` charges the arrays passed in and returned.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or (within and not tracer.is_open(within)):
                return original(*args, **kwargs)
            index = tracer._begin(name_of(args) if name_of else name)
            nbytes = 0
            try:
                result = original(*args, **kwargs)
                if count_bytes:
                    nbytes = nbytes_of(*args, *kwargs.values(), result)
                return result
            finally:
                tracer._end(index, nbytes)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (end - start) - child[i]
            for i, (_, start, end, _, _, _) in enumerate(self.spans)
        ]

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``name -> {self_s, calls, bytes, dur_s}`` over every span."""
        totals: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            t = totals.setdefault(
                span[0], {"self_s": 0.0, "calls": 0, "bytes": 0, "dur_s": 0.0}
            )
            t["self_s"] += own
            t["calls"] += 1
            t["bytes"] += span[5]
            t["dur_s"] += span[2] - span[1]
        return totals

    def chrome_trace(self, path) -> None:
        """Write the spans as Chrome Trace Event JSON (complete events)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "unit": unit,
                    "parent": self.spans[parent][0] if parent >= 0 else None,
                    "bytes": nbytes,
                },
            }
            for name, start, end, parent, unit, nbytes in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import importlib

    import repro.serve.server as server_mod
    import repro.train.loop as loop_mod
    from repro.dyn import DynamicGraph, FeatureStore
    from repro.exec import Engine, MultiEngine
    from repro.exec.kernel_registry import BackendKernels
    from repro.frameworks.strategy import CompiledForward
    from repro.gpu.cost_model import CostModel
    from repro.models.base import GNNModel
    from repro.serve import InferenceServer
    from repro.serve.cache import FeatureCache
    from repro.train.optim import Adam

    # ``repro.session`` the attribute is the session() factory; the plan
    # cache's compile calls are bound in the module of the same name.
    session_mod = importlib.import_module("repro.session")

    def phase(prefix: str):
        return lambda args: (
            f"{prefix}.bwd" if id(args[1]) in tracer.bwd_plans else f"{prefix}.fwd"
        )

    short = {"ours": "ours", "dgl-like": "dgl"}

    # repro.exec: kernel dispatch, plan interpretation, partitioned runs.
    for kind in ("gather", "scatter", "apply", "param_grad"):
        tracer.wrap(BackendKernels, kind, f"kernel.{kind}", count_bytes=True)
    tracer.wrap(Engine, "bind", "engine.bind")
    tracer.wrap(Engine, "run_plan", name_of=phase("engine"))
    tracer.wrap(MultiEngine, "run_plan", name_of=phase("multi"))
    # repro.train: loss and optimizer, as the training loop binds them.
    tracer.wrap(loop_mod, "softmax_cross_entropy", "train.loss")
    tracer.wrap(loop_mod, "accuracy", "train.loss")
    tracer.wrap(Adam, "step", "train.optim")
    # Compilation, as the plan cache binds it.
    tracer.wrap(
        session_mod, "compile_training",
        name_of=lambda args: f"compile.{short.get(args[1].name, args[1].name)}",
    )
    tracer.wrap(session_mod, "compile_forward", "compile.forward")
    # repro.serve: the serving control plane and batch execution.
    tracer.wrap(InferenceServer, "serve", "serve.serve")
    inside = {"within": "serve.serve"}
    tracer.wrap(server_mod, "coalesce", "serve.coalesce", **inside)
    tracer.wrap(server_mod, "receptive_field", "serve.field", **inside)
    tracer.wrap(DynamicGraph, "receptive_field", "serve.field", **inside)
    tracer.wrap(CompiledForward, "counters", "serve.cost", **inside)
    for attr in ("check_memory", "latency_seconds", "gather_seconds"):
        tracer.wrap(CostModel, attr, "serve.cost", **inside)
    tracer.wrap(FeatureCache, "gather", "serve.cache", **inside)
    tracer.wrap(server_mod, "place_batches", "serve.place", **inside)
    tracer.wrap(GNNModel, "make_inputs", "serve.inputs", **inside)
    tracer.wrap(InferenceServer, "_execute_batch", "serve.exec", **inside)
    # repro.dyn: writes against the dynamic graph and feature store.
    tracer.wrap(DynamicGraph, "apply", "dyn.apply")
    tracer.wrap(DynamicGraph, "compact", "dyn.compact")
    tracer.wrap(FeatureStore, "put", "dyn.put")

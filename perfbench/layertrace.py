"""Layer spans recorded from outside the program.

:func:`install` replaces a fixed list of public functions of the ``repro``
package with wrappers that time each call into a :class:`Tracer`;
:meth:`Installation.uninstall` puts the originals back. Nothing inside ``src/`` is edited:
the wrappers sit on the module and class attributes the program looks its
callees up through, so a traced call takes exactly the code path an untraced
one does, plus the span bookkeeping.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from harness import Span

ROOT = "op"
"""Name of the client-side span that wraps one whole operation."""


class Tracer:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: Optional[int] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id=span_id,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.span_id if parent is not None else None,
            request=request if parent is None else parent.request,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn: Callable, args, kwargs, count: Optional[Callable] = None):
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        if count is not None:
            span.counts = count(result)
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_json() for span in self.spans], handle)


def _count_window(graph) -> Dict[str, float]:
    return {"nodes": float(graph.num_nodes)}


def _count_weights(weights) -> Dict[str, float]:
    return {"positive": float(len(weights))}


def _count_sampled(sampled) -> Dict[str, float]:
    return {"positive": float(len(sampled.weights))}


def _count_solver(result) -> Dict[str, float]:
    return {k: float(v) for k, v in result.stats.items()}


def _count_route(route) -> Dict[str, float]:
    return {"single_shard": 1.0 if route.shard >= 0 else 0.0}


def _targets():
    """``(owner, attribute, span name, counter, kind)`` for every traced call."""
    import repro.core.instance as instance_mod
    import repro.service.generations as generations
    from repro.core.dense import DenseInstance
    from repro.core.greedy import GreedySolver
    from repro.core.tgen import TGENSolver
    from repro.engine import LCMSREngine
    from repro.service.bundle import IndexBundle
    from repro.service.query_service import QueryService
    from repro.service.sharding import ShardRouter
    from repro.textindex.columnar import WeightPipeline

    return [
        (QueryService, "execute_timed", "query_service", None, "function"),
        (LCMSREngine, "build_instance", "engine.build_instance", None, "function"),
        (instance_mod, "induced_subgraph", "network.window", _count_window, "function"),
        (WeightPipeline, "node_weights", "textindex.sigma", _count_weights, "function"),
        (WeightPipeline, "node_weights_sampled", "textindex.sigma_sampled",
         _count_sampled, "function"),
        (generations.DeltaOverlay, "node_weights", "generations.overlay_sigma",
         _count_weights, "function"),
        (DenseInstance, "from_graph", "dense.build", None, "classmethod"),
        (TGENSolver, "solve", "tgen.solve", _count_solver, "function"),
        (GreedySolver, "solve", "greedy.solve", _count_solver, "function"),
        (generations, "apply_op", "generations.apply_op", None, "function"),
        (generations.Compactor, "compact", "generations.compact", None, "function"),
        (IndexBundle, "load", "persist.load", None, "classmethod"),
        (ShardRouter, "route", "sharding.route", _count_route, "function"),
    ]


class Installation:
    """The patched attributes, so :meth:`uninstall` can restore them exactly."""

    def __init__(self) -> None:
        self.saved: List[Tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every traced call so it records a span into ``tracer``."""
    installation = Installation()
    for owner, attr, name, count, kind in _targets():
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "classmethod":
            func = original.__func__

            def wrapper(cls, *args, _func=func, _name=name, _count=count, **kwargs):
                return tracer.call(_name, _func, (cls,) + args, kwargs, _count)

            functools.update_wrapper(wrapper, func)
            replacement = classmethod(wrapper)
        else:
            def wrapper(*args, _func=original, _name=name, _count=count, **kwargs):
                return tracer.call(_name, _func, args, kwargs, _count)

            functools.update_wrapper(wrapper, original)
            replacement = wrapper
        installation.saved.append((owner, attr, original))
        setattr(owner, attr, replacement)
    return installation

"""Spans and counts recorded around the public functions of each layer.

``install`` replaces every public function of the ``multicat`` modules with
a wrapper, in every module namespace that holds it, so calls made inside a
module (``_solve_potential`` calling ``ground_state``, ``envelope_extrema``
calling ``envelope_derivative``) are caught too.  A span records its name
``<module>.<function>``, the operation id, its parent span, its start and its
end.  Spans stay in memory and are written when the run ends.  Functions in
``COUNT_ONLY`` are called thousands of times per operation; they are counted
but get no span, so their time stays inside the caller's span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

LAYERS = ("states", "wigner", "marginals", "photon", "wellsolver", "cli")

COUNT_ONLY = frozenset({
    "photon.digamma",
    "photon.envelope",
    "photon.envelope_derivative",
    "photon.quad_normalization",
    "states.overlap",
})


def _wigner_flops(args, kwargs) -> float:
    """4 nq np nx: a cosine and a sine matrix-vector product per q row."""
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    half = kwargs.get("x_half_width", args[3] if len(args) > 3 else None)
    step = kwargs.get("x_step", args[4] if len(args) > 4 else 0.02)
    if half is None:
        half = grid.q_max - grid.q_min
    nx = 2 * int(math.ceil(half / step)) + 1
    return 4.0 * grid.nq * grid.np * nx


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        observe: Optional[Callable] = None
        if name == "wellsolver.ground_state":
            def observe(args, kwargs, result):
                tracer.counts["wellsolver.ground_state.iterations"] += result.iterations
        elif name == "wigner.wigner_numeric":
            def observe(args, kwargs, result):
                tracer.counts["wigner.wigner_numeric.flops"] += _wigner_flops(args, kwargs)

        def spanned(*args, **kwargs):
            tracer.counts[name] += 1
            stack = tracer._stack
            span = [name, tracer.op, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return spanned

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            json.dump({"fields": ["name", "op", "parent", "start", "end"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Inclusive and self seconds per span name, over timed operations."""
        child = defaultdict(float)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
        for idx, (name, op, parent, start, end) in enumerate(self.spans):
            if op < 0:
                continue
            out[name]["s"] += end - start
            out[name]["self_s"] += end - start - child[idx]
        return out


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer."""
    package = importlib.import_module("multicat")
    modules = [importlib.import_module(f"multicat.{layer}") for layer in LAYERS]
    for layer, module in zip(LAYERS, modules):
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{attr}", fn)
            for holder in [package, *modules]:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)

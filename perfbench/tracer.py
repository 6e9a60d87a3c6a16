"""Timing wrappers around the public functions of each nlcpoly layer.

The wrappers are installed from outside, after import, by rebinding every
module-level name that refers to a wrapped function. Module globals are
looked up at call time, so calls made inside the package are caught as
well as calls from the benchmark.

Each call of an ordinary function becomes one span (id, parent id, name,
start, end), kept in memory and returned by :meth:`Tracer.report`. The hot
per-element functions are only counted and timed. Self time is computed
online: a call's duration minus the durations of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import time
from typing import Dict, List

LAYERS = ("config", "sequences", "moments", "recurrence", "spectral", "quadrature",
          "measures", "asymptotics", "special", "cli")
HOT = frozenset({"sequences.x_value", "sequences.x_float", "spectral.sturm_count",
                 "special.bessel_k"})
QUADRATURE_RULES = frozenset({"quadrature.tanh_sinh", "quadrature.exp_sinh"})


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[tuple] = []      # (span_id, parent_id, name, start, end)
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}  # outermost calls of each name only
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counters: Dict[str, float] = {
            "quadrature.nodes": 0, "quadrature.levels.max": 0,
            "quadrature.skipped_nodes": 0, "quadrature.unconverged": 0,
            "moments.precision_bits.max": 0,
        }
        self._depth: Dict[str, int] = {}
        self._ids = itertools.count()
        self._stack: List[list] = []      # frames: [start, child_seconds, span_id]

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        clock, stack, calls, depth = self.clock, self._stack, self.calls, self._depth
        ids = self._ids
        inclusive, self_s, spans = self.inclusive, self.self_s, self.spans
        hot = name in HOT
        calls[name] = 0
        inclusive[name] = 0.0
        depth[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            outer = depth[name] == 0
            depth[name] += 1
            parent = stack[-1][2] if stack else None
            span_id = parent if hot else next(ids)
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - frame[0]
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if outer:
                    inclusive[name] += duration
                if not hot:
                    spans.append((span_id, parent, name, frame[0], end))
            if outer:
                self._read_result(name, result)
            return result
        return traced

    def _read_result(self, name: str, result) -> None:
        c = self.counters
        if name in QUADRATURE_RULES:
            c["quadrature.nodes"] += result.nodes_used
            c["quadrature.levels.max"] = max(c["quadrature.levels.max"], result.levels)
            c["quadrature.skipped_nodes"] += result.skipped_nodes
            c["quadrature.unconverged"] += not result.converged
        elif name == "moments.hankel_determinant" and result.precision_bits:
            c["moments.precision_bits.max"] = max(c["moments.precision_bits.max"],
                                                  result.precision_bits)

    def install(self, package) -> None:
        """Wrap the public functions defined in each layer module and rebind
        every reference to them in the package's modules."""
        modules = [getattr(package, m) for m in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        targets = [package, package.cm_generators, *modules]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    def report(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "inclusive": self.inclusive,
                "self_s": self.self_s, "counters": self.counters}

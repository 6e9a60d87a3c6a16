"""Double-exponential quadrature: tanh-sinh on finite intervals, exp-sinh on
the half line.

The transforms push endpoint behavior (algebraic or logarithmic integrable
singularities) into double-exponentially decaying trapezoid tails, so one
rule covers all the measure densities in the catalog.  Levels halve the mesh
and reuse previous nodes; the error estimate is the difference between
consecutive levels, and convergence is judged relative to the integral size.
Each side of the trapezoid sum ends where the map leaves the float range:
where the tanh-sinh weight underflows, or where the exp-sinh node would
underflow or overflow.  If the terms there are still significant and growing
(an integral like that of dr/r, or of dr/(1+r) on the half line), the tail
past the end is cut off at every level, so refinement cannot converge and
the result is reported unconverged at once.

For densities that blow up at an interval endpoint the evaluation of
``1 - |x|`` in double precision is the accuracy bottleneck, not the rule:
such integrands can accept the node's distance to each endpoint, which the
transform provides without cancellation.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Tuple

_HALF_PI = math.pi / 2.0
# the smallest tolerance either rule accepts; a run's tolerance is checked against it
MIN_TOLERANCE = 1e-15
_MAX_LEVEL = 12  # refinements of the mesh h = 1 before a rule reports itself unconverged


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float  # |difference of the last two refinement levels|
    nodes_used: int
    converged: bool
    levels: int
    skipped_nodes: int = 0


class _Nodes:
    """The node guard both rules share: it counts every node, and a node
    where the integrand raises or is not finite counts as skipped and adds 0."""

    def __init__(self):
        self.used = self.skipped = 0

    def term(self, w: float, f: Callable[..., float], *args) -> float:
        self.used += 1
        try:
            fx = f(*args)
        except (ZeroDivisionError, ValueError, OverflowError):
            fx = math.nan
        if not math.isfinite(fx):
            self.skipped += 1
            return 0.0
        return w * fx


def _tanh_sinh_node(t: float):
    # u in (-1, 1), weight du/dt, and the cancellation-free gaps 1 -+ u
    y = _HALF_PI * math.sinh(t)
    e = math.exp(-2.0 * abs(y))
    gap = 2.0 * e / (1.0 + e)          # 1 - |u|
    u = math.copysign(1.0 - gap, y)
    w = _HALF_PI * math.cosh(t) * (4.0 * e / (1.0 + e) ** 2)  # sech^2(y)
    if y >= 0:
        return u, w, 2.0 - gap, gap    # (u, w, u - (-1), 1 - u)
    return u, w, gap, 2.0 - gap


def tanh_sinh(f: Callable[[float], float], a: float, b: float,
              tolerance: float = 1e-11,
              f_edge: Optional[Callable[[float, float, float], float]] = None,
              ) -> QuadratureResult:
    """Integral of f over the finite interval [a, b].

    ``f_edge(x, dist_a, dist_b)``, when given, replaces ``f`` and receives
    the exact distances from the node to each endpoint; use it for weights
    that are singular at an endpoint.
    """
    if not tolerance >= MIN_TOLERANCE:
        raise ValueError(f"tolerance must be at least {MIN_TOLERANCE}")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True, 0)
    if a > b:
        r = tanh_sinh(f, b, a, tolerance, f_edge)
        return QuadratureResult(-r.value, r.error_estimate, r.nodes_used,
                                r.converged, r.levels, r.skipped_nodes)
    mid = 0.5 * (a + b)
    halfspan = 0.5 * (b - a)
    if f_edge is None:
        def f_edge(x, da, db):  # a node rounded onto a (possibly singular) endpoint is skipped
            return f(x) if a < x < b else math.nan
    nodes = _Nodes()

    def sample(t: float) -> Optional[float]:
        u, w, ga, gb = _tanh_sinh_node(t)
        if w == 0.0:  # the weight underflowed
            return None
        return nodes.term(w, f_edge, mid + halfspan * u, halfspan * ga, halfspan * gb)

    return _refine(sample, halfspan, tolerance, nodes)


def exp_sinh(f: Callable[[float], float], tolerance: float = 1e-9) -> QuadratureResult:
    """Integral of f over (0, infinity) for integrands that decay at
    infinity and are integrable at 0."""
    if not tolerance >= MIN_TOLERANCE:
        raise ValueError(f"tolerance must be at least {MIN_TOLERANCE}")
    nodes = _Nodes()

    def sample(t: float) -> Optional[float]:
        y = _HALF_PI * math.sinh(t)
        if y > 690.0:  # x would overflow
            return None
        x = math.exp(y)
        w = _HALF_PI * math.cosh(t) * x
        if w == 0.0 or x == 0.0:  # t < 0 and the node underflowed
            return None
        return nodes.term(w, f, x)

    return _refine(sample, 1.0, tolerance, nodes)


def _negligible(term: float, total: float) -> bool:
    return abs(term) <= 1e-300 or (total != 0.0 and abs(term) <= 1e-18 * abs(total))


def _sum_level(sample: Callable[[float], Optional[float]], h: float, first: float,
               stride: float) -> Tuple[float, bool]:
    """Trapezoid contributions at t = +-(first + k*stride), k = 0, 1, ...;
    each side stops after its terms stay negligible.

    ``sample`` returns None where the map leaves the float range; the side
    ends there.  The second result tells whether that cut off a tail whose
    last term was still significant and not decaying: a tail that still
    decays double exponentially past the cut holds little, and refinement
    may converge."""
    total = 0.0
    cut = False
    for sign in (1.0, -1.0):
        quiet = 0
        k = 0
        last = previous = 0.0
        while True:
            t = sign * (first + k * stride)
            term = sample(t)
            if term is None:
                cut = cut or (abs(last) >= abs(previous) and not _negligible(last, total))
                break
            total += term
            previous, last = last, term
            if _negligible(term, total):
                quiet += 1
                if quiet >= 3:
                    break
            else:
                quiet = 0
            k += 1
    return total * h, cut


def _refine(sample, jacobian: float, tolerance: float, nodes: _Nodes) -> QuadratureResult:
    h = 1.0
    center = sample(0.0) * h
    level_sum, cut = _sum_level(sample, h, h, h)
    total = center + level_sum
    value = total * jacobian
    prev_value = math.inf
    level = 0
    while level < _MAX_LEVEL:
        level += 1
        h *= 0.5
        # reuse: old nodes keep their sum, new nodes sit at odd multiples of h
        level_sum, level_cut = _sum_level(sample, h, h, 2.0 * h)
        cut = cut or level_cut
        total = 0.5 * total + level_sum
        prev_value, value = value, total * jacobian
        err = abs(value - prev_value)
        if cut:  # a truncated tail: no finer level can repair it
            break
        if err <= tolerance * max(1.0, abs(value)) and level >= 3:
            return QuadratureResult(value, err, nodes.used, True, level, nodes.skipped)
    return QuadratureResult(value, abs(value - prev_value), nodes.used, False,
                            level, nodes.skipped)

"""Truncated Jacobi matrices, their spectra and zero bounds.

The symmetric operator built from the shift coefficients has the infinite
tridiagonal matrix with zero diagonal and off-diagonal entries
b_k = sqrt(x_k / 2); the characteristic polynomial of its order-n truncation
is exactly the monic polynomial q_n, so eigenvalues of the truncation are
the polynomial zeros.

Eigenvalues are found by bisection on Sturm sign counts: deterministic,
with a certified enclosure per zero, and bit-reproducible across runs.  All
zeros are bisected together, one numpy lane per zero; each lane does the
float operations of a scalar bisection, so the enclosures do not depend on
how many zeros are computed at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .sequences import Number, SequenceSpec, x_floats, x_limit, x_value

_TINY_PIVOT = 1e-300


@dataclass(frozen=True)
class TruncatedJacobi:
    """Order-n truncation: zero diagonal, squared off-diagonal entries
    b_1^2 .. b_{n-1}^2 exactly as given (Fractions for a rational spec,
    floats otherwise), so the order is one more than their number.

    Sturm counts and bisection round the entries to floats once per call;
    :func:`char_poly` stays exact when x and every entry are exact.
    """
    b_squared: Tuple[Number, ...]

    def __post_init__(self):
        if any(not v > 0 for v in self.b_squared):
            raise ValueError("off-diagonal entries must be positive")

    @property
    def order(self) -> int:
        return len(self.b_squared) + 1


def _float_entries(q: TruncatedJacobi) -> List[float]:
    return [float(v) for v in q.b_squared]


def build_truncated(spec: SequenceSpec, n: int) -> TruncatedJacobi:
    """Truncation of the Jacobi matrix of ``spec`` to its first n rows/columns."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return TruncatedJacobi(tuple(x_value(spec, k) / 2 for k in range(1, n)))


def char_poly(q: TruncatedJacobi, x):
    """det(x I_n - Q_n) by the tridiagonal determinant recurrence
    d_k = x d_{k-1} - b_{k-1}^2 d_{k-2}; exact for rational x and rational
    squared entries, such as b_k^2 = x_k/2 of a rational spec, even when
    b_k is irrational."""
    exact = all(isinstance(v, (int, Fraction)) for v in (x, *q.b_squared))
    if exact:
        x = Fraction(x)
        b2 = q.b_squared
        prev, cur = Fraction(1), x
    else:
        b2 = _float_entries(q)
        x = float(x)
        prev, cur = 1.0, x
    for b in b2:
        prev, cur = cur, x * cur - b * prev
    return cur


def _sturm_counts(b_squared: Sequence[float], sigmas: np.ndarray) -> np.ndarray:
    """Eigenvalues of Q_n strictly below each shift in ``sigmas``: the
    negative pivots of the shifted LDL^T factorization, one lane per shift.

    Every lane does the float operations of the scalar recurrence
    d <- -sigma - b^2/d in the same order, so the counts do not depend on
    how many shifts share the pass.
    """
    neg_sigma = np.negative(sigmas)
    d = neg_sigma.copy()
    count = np.zeros(len(d), dtype=np.intp)
    below = np.empty(len(d), dtype=bool)
    for b2 in b_squared:
        if np.count_nonzero(d) < len(d):
            d[d == 0.0] = -_TINY_PIVOT  # zero pivot: count as crossing from below
        count += np.less(d, 0.0, out=below)
        np.divide(b2, d, out=d)
        np.subtract(neg_sigma, d, out=d)
    if np.count_nonzero(d) < len(d):
        d[d == 0.0] = -_TINY_PIVOT
    return count + (d < 0.0)


def sturm_count(q: TruncatedJacobi, sigma: float) -> int:
    """Number of eigenvalues of Q_n strictly below sigma (negative pivots of
    the shifted LDL^T factorization)."""
    return int(_sturm_counts(_float_entries(q), np.array([sigma], dtype=float))[0])


@dataclass(frozen=True)
class SpectralResult:
    """Zeros in strictly descending order with per-zero enclosures."""
    order: int
    zeros: Tuple[float, ...]
    brackets: Tuple[Tuple[float, float], ...]  # enclosure per zero, same order
    residual_bounds: Tuple[float, ...]
    pairing_defect: float
    enclosure: Tuple[float, float]  # zero-free outer interval (A, B)
    tolerance: float
    bisection_steps: int  # Sturm counts evaluated, summed over the zeros


def jacobi_zeros(q: TruncatedJacobi, tolerance: float = 1e-13) -> SpectralResult:
    """All eigenvalues of the truncation, i.e. the zeros of q_n.

    Each zero is enclosed by Sturm bisection to width <= tolerance (or to
    floating-point resolution), all zeros advancing together, then the
    +-lambda pairs forced by the zero diagonal are averaged in magnitude and
    the middle zero of an odd order is pinned to exactly 0; the pre-pairing
    defect is reported.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    n, b_squared = q.order, _float_entries(q)
    radius = 2.0 * math.sqrt(max(b_squared, default=0.0))  # Ismail--Li: |z| < 2 sqrt(beta)
    pad = 64.0 * math.ulp(max(radius, 1.0))
    lo0, hi0 = -radius - pad, radius + pad
    # one bisection lane per zero, invariant count(lo) < index <= count(hi);
    # a lane retires at width <= tolerance or at floating-point resolution
    lanes = np.arange(n)
    lo, hi = np.full(n, lo0), np.full(n, hi0)
    lo_end, hi_end = np.empty(n), np.empty(n)
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        live = (hi - lo > tolerance) & (mid > lo) & (mid < hi)
        if not live.all():
            lo_end[lanes], hi_end[lanes] = lo, hi
            lanes, lo, hi, mid = lanes[live], lo[live], hi[live], mid[live]
            if not len(lanes):
                break
        steps += len(lanes)
        up = _sturm_counts(b_squared, mid) > lanes  # count(mid) >= index = lane + 1
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    brackets = list(zip(lo_end.tolist(), hi_end.tolist()))
    asc = [0.5 * (a + b) for a, b in brackets]
    defect = 0.0
    sym = list(asc)
    for i in range(n // 2):
        j = n - 1 - i
        defect = max(defect, abs(asc[i] + asc[j]))
        mag = 0.5 * (abs(asc[i]) + abs(asc[j]))
        sym[i], sym[j] = -mag, mag
    if n % 2 == 1:
        defect = max(defect, abs(asc[n // 2]))
        sym[n // 2] = 0.0  # parity is structural, not numerical
    zeros = tuple(reversed(sym))
    desc_brackets = tuple(reversed(brackets))
    residuals = tuple(0.5 * (hi - lo) for (lo, hi) in desc_brackets)
    return SpectralResult(n, zeros, desc_brackets, residuals, defect,
                          (lo0, hi0), tolerance, steps)


def ismail_li_bounds(spec: SequenceSpec, n: int) -> Tuple[float, float]:
    """Open interval (A, B) containing all zeros of q_n.

    With zero diagonal and beta_j = x_j/2 the Ismail--Li points collapse to
    +-sqrt(2 x_j), so B = sqrt(2 max_{j<n} x_j) and A = -B; for increasing
    sequences that is +-sqrt(2 x_{n-1}).
    """
    if n < 2:
        raise ValueError("bounds need order at least 2")
    top = max(x_floats(spec, n - 1).tolist())
    bound = math.sqrt(2.0 * top)
    return -bound, bound


@dataclass(frozen=True)
class SupportEndpoints:
    """Essential-support endpoints for finite-limit sequences.

    ``endpoint`` is +-sqrt(2 M) with M = lim x_n, the value forced by the
    monic coefficients beta_n = x_n/2 (endpoints of a Jacobi matrix spectrum
    are +-2 sqrt(beta_infinity)).
    """
    kind: str  # 'bounded' | 'unbounded' | 'undetermined'
    limit: Optional[float] = None
    endpoint: Optional[float] = None


def support_endpoints(spec: SequenceSpec) -> SupportEndpoints:
    lim = x_limit(spec)
    if lim.kind == "infinite":
        return SupportEndpoints("unbounded")
    if lim.kind == "undetermined":
        return SupportEndpoints("undetermined")
    m = float(lim.value)
    return SupportEndpoints("bounded", m, math.sqrt(2.0 * m))

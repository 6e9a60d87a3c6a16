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
from typing import Optional, Sequence, Tuple

import numpy as np

from .sequences import SequenceSpec, x_floats, x_limit, x_value

_TINY_PIVOT = 1e-300


@dataclass(frozen=True)
class TruncatedJacobi:
    """Order-n truncation: zero diagonal, off-diagonal b_1 .. b_{n-1}.

    ``b2f`` holds the squared entries rounded once from their exact values;
    Sturm counts work on these so that the bisected matrix matches the
    matrix behind the exact characteristic polynomial to one rounding.
    """
    order: int
    b: Tuple[float, ...]
    b2f: Tuple[float, ...]
    b_squared: Optional[Tuple[Fraction, ...]] = None  # exact x_k/2 when available

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if len(self.b) != self.order - 1 or len(self.b2f) != self.order - 1:
            raise ValueError("need exactly order-1 off-diagonal entries")
        if any(not v > 0 for v in self.b):
            raise ValueError("off-diagonal entries must be positive")


def build_truncated(spec: SequenceSpec, n: int) -> TruncatedJacobi:
    """Truncation of the Jacobi matrix of ``spec`` to its first n rows/columns."""
    halves = [x_value(spec, k) / 2 for k in range(1, n)]
    b2f = tuple(float(v) for v in halves)
    b = tuple(math.sqrt(v) for v in b2f)
    b2 = tuple(halves) if spec.is_rational else None
    return TruncatedJacobi(n, b, b2f, b2)


def char_poly(q: TruncatedJacobi, x):
    """det(x I_n - Q_n) by the tridiagonal determinant recurrence
    d_k = x d_{k-1} - b_{k-1}^2 d_{k-2}; exact for rational x because the
    squared entries b_k^2 = x_k/2 are rational even when b_k is not."""
    exact = q.b_squared is not None and isinstance(x, (int, Fraction))
    if exact:
        x = Fraction(x)
        b2 = q.b_squared
        prev, cur = Fraction(1), x
    else:
        b2 = q.b2f
        x = float(x)
        prev, cur = 1.0, x
    for k in range(1, q.order):
        prev, cur = cur, x * cur - b2[k - 1] * prev
    return cur


def _sturm_counts(b2f: Sequence[float], sigmas: np.ndarray) -> np.ndarray:
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
    for b2 in b2f:
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
    return int(_sturm_counts(q.b2f, np.array([sigma], dtype=float))[0])


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
    n = q.order
    radius = max((2.0 * b for b in q.b), default=0.0)  # Ismail--Li: |z| < 2 sqrt(beta)
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
        up = _sturm_counts(q.b2f, mid) > lanes  # count(mid) >= index = lane + 1
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
    are +-2 sqrt(beta_infinity)).  ``endpoint_unhalved`` is 2 sqrt(M), the
    value obtained if the halving in beta_n is dropped; both are reported so
    either convention can be cross-checked.
    """
    kind: str  # 'bounded' | 'unbounded' | 'undetermined'
    limit: Optional[float] = None
    endpoint: Optional[float] = None
    endpoint_unhalved: Optional[float] = None


def support_endpoints(spec: SequenceSpec) -> SupportEndpoints:
    lim = x_limit(spec)
    if lim.kind == "infinite":
        return SupportEndpoints("unbounded")
    if lim.kind == "undetermined":
        return SupportEndpoints("undetermined")
    m = float(lim.value)
    return SupportEndpoints("bounded", m, math.sqrt(2.0 * m), 2.0 * math.sqrt(m))

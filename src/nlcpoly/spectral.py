"""Truncated Jacobi matrices, their spectra and zero bounds.

The symmetric operator built from the shift coefficients has the infinite
tridiagonal matrix with zero diagonal and off-diagonal entries
b_k = sqrt(x_k / 2); the characteristic polynomial of its order-n truncation
is exactly the monic polynomial q_n, so eigenvalues of the truncation are
the polynomial zeros.

Zeros are found on Sturm sign counts: deterministic, with an enclosure per
zero, and bit-reproducible across runs.  :func:`jacobi_zeros` searches the
positive zeros on the half-order block of Q_n^2 and confirms each enclosure
with counts on Q_n itself; all zeros advance together, one numpy lane per
zero, and each lane does the float operations of a scalar search, so the
enclosures do not depend on how many zeros are computed at once.

A Sturm count is the LDL^T pivot recurrence run down a block of rows, two
numpy calls per row for every lane at once.  A zero pivot needs no test:
IEEE infinities carry it through the next row (Demmel, Dhillon & Ren 1995),
with the counts of the classical rule that takes it as a tiny negative.
The zero search runs on the entries scaled by a power of four, which is
exact and keeps the block's products finite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .sequences import Number, SequenceSpec, x_floats, x_limit, x_value

# pivot rows per block of the Sturm sweep, at most 255 for its uint8 counts:
# the scratch is (_ROWS + 1) x lanes floats at every order
_ROWS = 64
_LEAST = math.ulp(0.0)  # the least subnormal, to which a zero off-diagonal is raised


class TruncatedJacobi(NamedTuple("_Entries", [("b_squared", Tuple[Number, ...])])):
    """Order-n truncation: zero diagonal, squared off-diagonal entries
    b_1^2 .. b_{n-1}^2 exactly as given (Fractions for a rational spec,
    floats otherwise), so the order is one more than their number.

    Sturm counts and bisection round the entries to floats once per call;
    :func:`char_poly` stays exact when x and every entry are exact.
    """
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, b_squared: Tuple[Number, ...]):
        if any(not 0 < v < math.inf for v in b_squared):
            raise ValueError("off-diagonal entries must be positive and finite")
        return super().__new__(cls, b_squared)

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


def _half_block(b_squared: Sequence[Number]) -> Tuple[list, list]:
    """Diagonal and squared off-diagonal of the block of Q_n^2 on the odd
    rows, of order ceil(n/2), in the arithmetic of the entries.

    With beta_k = b_k^2 and beta_0 = beta_n = 0 the diagonal is
    beta_{2i-2} + beta_{2i-1} and the squared off-diagonal
    beta_{2i-1} beta_{2i}: no square root, so exact for exact entries.
    Ordered odd rows first, Q_n = [[0, B], [B^T, 0]], and this block is
    B B^T, whose eigenvalues are the squares of the positive zeros, plus
    the structural zero of an odd order (Chihara 1978, Ch. I Sec. 8).
    """
    beta = [0, *b_squared, 0]
    rows = len(beta) // 2
    diagonal = [beta[2 * i] + beta[2 * i + 1] for i in range(rows)]
    off_squared = [beta[2 * i + 1] * beta[2 * i + 2] for i in range(rows - 1)]
    return diagonal, off_squared


def _sturm_counts(diagonal: np.ndarray, off_squared: Sequence[float],
                  sigmas: np.ndarray) -> np.ndarray:
    """Eigenvalues strictly below each shift in ``sigmas`` of the symmetric
    tridiagonal matrix with ``diagonal`` and squared off-diagonals
    ``off_squared``: the negative pivots of the shifted LDL^T factorization,
    one lane per shift and _ROWS rows at a time.  Every lane does the float
    operations of the scalar d <- (a - sigma) - b^2/d in the same order, so
    the counts do not depend on how many shifts share the pass.  A zero
    pivot +-0 makes the next one -+inf, whose b^2/d = -+0 leaves the one
    after unchanged: exactly one of the two counts by its sign bit (Demmel,
    Dhillon & Ren 1995).  A zero last pivot counts as negative.
    """
    off_squared = np.maximum(off_squared, _LEAST)  # no lane computes 0/0
    n, lanes = len(diagonal), len(sigmas)
    block = np.empty((min(n, _ROWS) + 1, lanes))  # row 0: the last pivot carried over
    rows, quotient, count = list(block), np.empty(lanes), np.zeros(lanes, dtype=np.intp)
    with np.errstate(divide="ignore"):
        for start in range(0, n, _ROWS):
            m = min(n - start, _ROWS)
            block[0] = block[-1]
            np.subtract.outer(diagonal[start:start + m], sigmas, out=block[1:m + 1])
            for i in range(1 + (start == 0), m + 1):
                np.divide(off_squared[start + i - 2], rows[i - 1], out=quotient)
                np.subtract(rows[i], quotient, out=rows[i])
            count += np.signbit(block[(start == 0):m]).sum(axis=0, dtype=np.uint8)
    return count + (block[m] <= 0.0)


def sturm_count(q: TruncatedJacobi, sigma: float) -> int:
    """Number of eigenvalues of Q_n strictly below sigma (negative pivots of
    the shifted LDL^T factorization)."""
    return int(_sturm_counts(np.zeros(q.order), _float_entries(q),
                             np.array([sigma], dtype=float))[0])


class SpectralResult(NamedTuple):
    """Zeros in strictly descending order with per-zero enclosures."""
    order: int
    zeros: Tuple[float, ...]
    brackets: Tuple[Tuple[float, float], ...]  # enclosure per zero, same order
    residual_bounds: Tuple[float, ...]
    count_mismatches: int  # positive brackets that the counts on Q_n refute
    enclosure: Tuple[float, float]  # zero-free outer interval (A, B)
    tolerance: float
    bisection_steps: int  # Sturm counts evaluated, on the block and on Q_n


# each sweep splits a lane's bracket into this many equal parts; 8 measured no
# faster at order 400 and slower at order 2000
_SECTIONS = 4
_POSITIONS = np.arange(1, _SECTIONS)
_FRACTIONS = _POSITIONS / _SECTIONS


def _quadrisect(count: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                hi: np.ndarray, index: np.ndarray,
                tolerance: float) -> Tuple[np.ndarray, np.ndarray, int]:
    """Narrow each lane's bracket of eigenvalue ``index`` (1-based,
    ascending), invariant count(lo) < index <= count(hi), where ``count``
    maps points to eigenvalues below them.  Each sweep counts at the
    _SECTIONS - 1 interior points of every live lane and keeps the part from
    the last point below the eigenvalue to the next point; a lane retires at
    width <= tolerance or once its points no longer fall strictly inside its
    bracket.  Returns the final brackets and the number of counts."""
    lanes = np.arange(len(lo))
    lo_end, hi_end = np.empty(len(lo)), np.empty(len(lo))
    steps = 0
    while len(lanes):
        grid = np.empty((len(lanes), _SECTIONS + 1))
        grid[:, 0], grid[:, -1] = lo, hi
        grid[:, 1:-1] = lo[:, None] + (hi - lo)[:, None] * _FRACTIONS
        live = (hi - lo > tolerance) & (np.diff(grid, axis=1) > 0.0).all(axis=1)
        if not live.all():
            lo_end[lanes], hi_end[lanes] = lo, hi
            lanes, grid = lanes[live], grid[live]
            if not len(lanes):
                break
        points = grid[:, 1:-1]
        counts = count(points.ravel())
        steps += counts.size
        below = counts.reshape(points.shape) < index[lanes][:, None]
        # the last point below and the next one keep the invariant whatever
        # order the counts come in
        k = (below * _POSITIONS).max(axis=1)
        rows = np.arange(len(lanes))
        lo, hi = grid[rows, k], grid[rows, k + 1]
    return lo_end, hi_end, steps


def _encloses(count: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
              hi: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per lane, whether count(lo) < index <= count(hi): one pass for both ends."""
    counts = count(np.concatenate((lo, hi)))
    return (counts[:len(lo)] < index) & (index <= counts[len(lo):])


def jacobi_zeros(q: TruncatedJacobi, tolerance: float = 1e-13) -> SpectralResult:
    """All eigenvalues of the truncation, i.e. the zeros of q_n.

    Ordered odd rows first, Q_n = [[0, B], [B^T, 0]], so the spectrum is
    symmetric and the squares of the floor(n/2) positive zeros are
    eigenvalues of B B^T, the half-order block of :func:`_half_block`.  Only
    the positive zeros are searched, each in its own lane, by quadrisection
    (:func:`_quadrisect`) on [0, R + pad] with R = 2 sqrt(max b_k^2), counting
    on the block at sigma = t^2.  The negative zeros and brackets are the
    mirror images, and the middle zero of an odd order is exactly 0.0 with
    bracket (0.0, 0.0), since Q_n is then singular.

    A count on the block is exact for a block a few ulps away, which can
    move a small zero t by about eps R^2 / t, against eps R for a count on
    Q_n.  So one Sturm sweep on Q_n itself checks every positive bracket,
    count(lo) < index <= count(hi) with no pad.  A bracket it refutes is
    widened by 16 eps R^2 / (lo + hi), a bound on the block's rounding; if
    Q_n's counts enclose the zero there, the lane is quadrisected again on
    Q_n, so every returned bracket holds its zero up to the rounding of the
    counts on Q_n.  ``count_mismatches`` is the number of brackets still
    refuted: the block missed by more than its rounding.
    ``bisection_steps`` is the number of Sturm counts evaluated, on the
    block and on Q_n.

    The search runs on the entries times 4^-k, the largest in [1/2, 2), and
    on t / 2^k, so the block's products beta_{2i-1} beta_{2i} stay finite
    at any scale of x_k; the brackets are scaled back.  Scaling by a power
    of two is exact, so wherever nothing over- or underflowed the brackets
    are those of the unscaled search.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    n, b_squared = q.order, _float_entries(q)
    largest = max(b_squared, default=0.0)
    radius = 2.0 * math.sqrt(largest)  # Ismail--Li: |z| < 2 sqrt(beta)
    top = radius + 64.0 * math.ulp(max(radius, 1.0))
    k = math.frexp(largest)[1] // 2  # the search runs on t / unit, b^2 / unit^2
    unit = math.ldexp(1.0, k)
    b_squared = np.ldexp(b_squared, -2 * k)
    diagonal, off_squared = map(np.array, _half_block(b_squared))
    zero_diagonal = np.zeros(n)

    def on_block(t):
        return _sturm_counts(diagonal, off_squared, np.square(t))

    def on_q(t):
        return _sturm_counts(zero_diagonal, b_squared, t)

    # lane j holds t_j, the (j+1)-th positive zero: eigenvalue j + 1 + n % 2
    # of the block and n - half + 1 + j of Q_n
    half = n // 2
    lo, hi, steps = _quadrisect(on_block, np.zeros(half), np.full(half, top / unit),
                                np.arange(half) + (1 + n % 2), tolerance / unit)
    index = np.arange(half) + (n - half + 1)
    refuted = np.flatnonzero(~_encloses(on_q, lo, hi, index))
    steps += 2 * half
    mismatches = len(refuted)
    if mismatches:
        pad = 16.0 * math.ulp(1.0) * (radius / unit) ** 2 / (lo[refuted] + hi[refuted])
        wide_lo = np.maximum(lo[refuted] - pad, 0.0)
        wide_hi = np.minimum(hi[refuted] + pad, top / unit)
        held = _encloses(on_q, wide_lo, wide_hi, index[refuted])
        steps += 2 * mismatches
        redo = refuted[held]
        lo[redo], hi[redo], more = _quadrisect(on_q, wide_lo[held], wide_hi[held],
                                               index[redo], tolerance / unit)
        steps += more
        mismatches -= len(redo)
    positive = list(zip((lo * unit).tolist(), (hi * unit).tolist()))
    brackets = (positive[::-1] + [(0.0, 0.0)] * (n % 2)
                + [(0.0 - hi, 0.0 - lo) for lo, hi in positive])  # 0.0 - 0.0 is +0.0
    zeros = tuple(0.5 * (lo + hi) for lo, hi in brackets)
    residuals = tuple(0.5 * (hi - lo) for lo, hi in brackets)
    return SpectralResult(n, zeros, tuple(brackets), residuals, mismatches,
                          (-top, top), tolerance, steps)


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


class SupportEndpoints(NamedTuple):
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

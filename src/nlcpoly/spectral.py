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
zero.  One first sweep, shared by all lanes, isolates the zeros on an even
grid; after it each lane does the float operations of a scalar search, a
secant step on the last pivot of the count where its bracket holds one zero
and no pole, and quadrisection elsewhere, so the enclosures do not depend on
how many zeros are computed at once.

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

    Sturm counts and the zero search round the entries to floats once per call;
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
                  sigmas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues strictly below each shift in ``sigmas`` of the symmetric
    tridiagonal matrix T with ``diagonal`` and squared off-diagonals
    ``off_squared``: the negative pivots of the shifted LDL^T factorization,
    one lane per shift and _ROWS rows at a time.  Every lane does the float
    operations of the scalar d <- (a - sigma) - b^2/d in the same order, so
    the counts do not depend on how many shifts share the pass.  A zero
    pivot +-0 makes the next one -+inf, whose b^2/d = -+0 leaves the one
    after unchanged: exactly one of the two counts by its sign bit (Demmel,
    Dhillon & Ren 1995).  A zero last pivot counts as negative.

    Also returns each lane's last pivot d_n(sigma) = det(T - sigma) /
    det(T_{n-1} - sigma), which decreases strictly between its poles.
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
    last = block[m]
    return count + (last <= 0.0), last


def sturm_count(q: TruncatedJacobi, sigma: float) -> int:
    """Number of eigenvalues of Q_n strictly below sigma (negative pivots of
    the shifted LDL^T factorization)."""
    return int(_sturm_counts(np.zeros(q.order), _float_entries(q),
                             np.array([sigma], dtype=float))[0][0])


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


# a sweep counts at three points per lane: its quarter points, or the secant's
_POSITIONS = np.arange(1, 4)
_QUARTERS = _POSITIONS / 4
# the secant's half-width, in units of the error that the curvature predicts
_SAFETY = 2.0
# points -> (eigenvalues below each, last pivot at each), as _sturm_counts gives
_Count = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _search(count: _Count, lo: np.ndarray, hi: np.ndarray, index: np.ndarray,
            tolerance: float) -> Tuple[np.ndarray, np.ndarray, int]:
    """Narrow each lane's bracket of eigenvalue ``index`` (1-based,
    ascending), invariant count(lo) < index <= count(hi), where ``count``
    maps points to the eigenvalues below them and the last pivots there.

    When more than one lane starts from one bracket, the first sweep is
    shared: it counts at three points per lane spread evenly over the
    bracket, and each lane starts from the part between the last of them
    below its eigenvalue and the next.  Every other sweep counts at three
    points of each live lane's bracket and keeps the part from the last
    point below the eigenvalue to the next.
    Where the bracket holds one eigenvalue and no pole of the last pivot d,
    count(hi) - count(lo) = 1 with d(lo) > 0 >= d(hi), d falls through one
    zero there, and the points are r - delta, r + delta and the midpoint of
    the wider side left over: r is the regula falsi root of d between the
    ends, and delta is _SAFETY times the error of r that the second divided
    difference of d over the last sweep's three points predicts, at least
    tolerance / 4.  Elsewhere, or where those points do not fall strictly
    inside the bracket, they are its quarter points.  A lane retires at
    width <= tolerance or once its quarter points no longer fall strictly
    inside its bracket.  Returns the final brackets and the number of
    counts.
    """
    lanes = len(index)
    if not lanes:
        return lo, hi, 0
    # per lane: point, count and last pivot at lo, the three points swept, hi
    state = np.full((3, lanes, 5), np.nan)
    state[0, :, 0], state[0, :, 4] = lo, hi
    steps = 0
    if lanes > 1 and (lo == lo[0]).all() and (hi == hi[0]).all():
        steps = 3 * lanes
        known = np.full((3, steps + 2), np.nan)  # grid, counts, last pivots; the ends uncounted
        grid = known[0]
        grid[0], grid[-1] = lo[0], hi[0]
        grid[1:-1] = lo[0] + (hi[0] - lo[0]) * (np.arange(1, steps + 1) / (steps + 1))
        known[1:, 1:-1] = count(grid[1:-1])
        # the last grid point below each eigenvalue, whatever order the counts come in
        k = np.searchsorted(np.minimum.accumulate(known[1, -2:0:-1])[::-1], index)
        state[:, :, 0], state[:, :, 4] = known[:, k], known[:, k + 1]
    lane, target = np.arange(lanes), index[:, None]
    lo_end, hi_end = np.empty(lanes), np.empty(lanes)
    while True:
        with np.errstate(all="ignore"):  # NaN and inf where a lane has no secant
            x, c, d = state
            slopes = (d[:, 2:4] - d[:, 1:3]) / (x[:, 2:4] - x[:, 1:3])
            curve = _SAFETY * np.abs((slopes[:, 1] - slopes[:, 0]) / (x[:, 3] - x[:, 1]))
            lo, hi = x[:, 0], x[:, 4]
            x[:, 1:4] = lo[:, None] + (hi - lo)[:, None] * _QUARTERS
            live = (hi - lo > tolerance) & _increasing(x)
            if not live.all():
                lo_end[lane], hi_end[lane] = lo, hi
                lane, target, state, curve = lane[live], target[live], state[:, live], curve[live]
                if not len(lane):
                    return lo_end, hi_end, steps
                x, c, d = state
                lo, hi = x[:, 0], x[:, 4]
            width, drop = hi - lo, d[:, 0] - d[:, 4]
            r = lo + width * (d[:, 0] / drop)
            delta = np.maximum(curve * ((r - lo) * (hi - r)) * (width / drop), tolerance / 4)
            a, b = r - delta, r + delta
            left = a - lo > hi - b
            mid = np.where(left, lo + a, b + hi) * 0.5
            ring = np.array((mid, a, b, mid))  # (mid, a, b) if left, else (a, b, mid)
            secant = x.copy()
            secant[:, 1:4] = np.where(left, ring[:3], ring[1:]).T
            use = ((c[:, 4] - c[:, 0] == 1) & (d[:, 0] > 0.0) & (d[:, 4] <= 0.0)
                   & _increasing(secant))
            x[use] = secant[use]
        counts, last = count(x[:, 1:4].ravel())
        steps += counts.size
        c[:, 1:4], d[:, 1:4] = counts.reshape(-1, 3), last.reshape(-1, 3)
        # the last point below and the next one keep the invariant whatever
        # order the counts come in
        k = np.maximum.reduce((c[:, 1:4] < target) * _POSITIONS, axis=1)
        rows = np.arange(len(lane))
        state[:, :, 0], state[:, :, 4] = state[:, rows, k], state[:, rows, k + 1]


def _increasing(rows: np.ndarray) -> np.ndarray:
    """Per row, whether its entries increase strictly."""
    return np.logical_and.reduce(rows[:, 1:] > rows[:, :-1], axis=1)


def _encloses(count: _Count, lo: np.ndarray, hi: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per lane, whether count(lo) < index <= count(hi): one pass for both ends."""
    counts = count(np.concatenate((lo, hi)))[0]
    return (counts[:len(lo)] < index) & (index <= counts[len(lo):])


def jacobi_zeros(q: TruncatedJacobi, tolerance: float = 1e-13) -> SpectralResult:
    """All eigenvalues of the truncation, i.e. the zeros of q_n.

    Ordered odd rows first, Q_n = [[0, B], [B^T, 0]], so the spectrum is
    symmetric and the squares of the floor(n/2) positive zeros are
    eigenvalues of B B^T, the half-order block of :func:`_half_block`.  Only
    the positive zeros are searched, each in its own lane, by
    :func:`_search` on [0, R + pad] with R = 2 sqrt(max b_k^2), counting on
    the block at sigma = t^2: a first sweep of 3 floor(n/2) points spread
    evenly over that interval, shared by all lanes, then secant steps on the
    block's last pivot where a lane's bracket holds one zero and no pole,
    and quadrisection elsewhere.  The negative zeros and brackets are the
    mirror images, and the middle zero of an odd order is exactly 0.0 with
    bracket (0.0, 0.0), since Q_n is then singular.

    A count on the block is exact for a block a few ulps away, which can
    move a small zero t by about eps R^2 / t, against eps R for a count on
    Q_n.  So one Sturm sweep on Q_n itself checks every positive bracket,
    count(lo) < index <= count(hi) with no pad.  A bracket it refutes is
    widened by 16 eps R^2 / (lo + hi), a bound on the block's rounding; if
    Q_n's counts enclose the zero there, the lane is searched again on Q_n,
    so every returned bracket holds its zero up to the rounding of the
    counts on Q_n.  ``count_mismatches`` is the number of brackets still
    refuted: the block missed by more than its rounding.
    ``bisection_steps`` is the number of Sturm counts evaluated, on the
    block and on Q_n: three per lane and sweep, and two per checked bracket.

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
    lo, hi, steps = _search(on_block, np.zeros(half), np.full(half, top / unit),
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
        lo[redo], hi[redo], more = _search(on_q, wide_lo[held], wide_hi[held],
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

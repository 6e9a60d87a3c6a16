"""Even moment sequences, Hankel determinants and determinant polynomials.

The even extension of the radial measure behind a sequence spec has moments
mu_{2n} = x_1 x_2 ... x_n and mu_{2n+1} = 0.  Hankel determinants of these
moments certify positive definiteness (Sylvester criterion), and the monic
polynomials orthogonal with respect to the even moment functional are the
bordered Hankel determinants divided by D_{n-1}.

The moments are exact Fractions for every spec.  For a spec with float
parameters, mu_{2n} is the float running product x_1 ... x_n lifted to the
dyadic rational it is, so everything below is exact on the moments as
given, and a running product that overflows raises PrecisionError where it
is formed.  One pass of the exact Chebyshev algorithm (Gautschi,
*Orthogonal Polynomials: Computation and Approximation*, 2004,
section 2.1.7) turns mu_0 .. mu_{2n+1} into the recurrence coefficients
P_{k+1} = (x - a_k) P_k - b_k P_{k-1} and the pivots
sigma_kk = <P_k, x^k> = D_k / D_{k-1} for k <= n, in O(n^2) exact
operations.  D_n is then the product of the pivots and P_n follows from the
recurrence.  The pass stops at a pivot that is exactly zero (a singular
leading Hankel block); beyond it, fraction-free (Bareiss) elimination and
bordered minors give the same quantities.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Union

from .recurrence import monic_polynomials
from .sequences import SequenceSpec, _max_index, x_floats, x_value
from .special import cm_sequence_test, CMReport


class PrecisionError(ArithmeticError):
    """Raised when a float running product x_1 ... x_n overflows, so the
    moment it should give does not exist in floating point."""


class DegenerateMomentsError(ZeroDivisionError):
    """Raised when a singular Hankel block leaves a determinant polynomial
    undefined: the moments are not those of a measure with infinite support."""


class MomentSequence:
    """Lazily computed even moments of one sequence spec.

    mu_{2n} = x_n! and mu_{2n+1} = 0, all Fractions.  A float sequence
    rule multiplies its running product in floats, x_1, x_2, ... in order,
    and each product is kept as the exact dyadic rational it is.  Extension,
    and the longest Chebyshev pass with its polynomials, are memoized behind
    a lock so concurrent readers see value-identical prefixes.
    """

    def __init__(self, spec: SequenceSpec):
        self.spec = spec
        self._even: List[Fraction] = [Fraction(1)]
        self._product: Union[Fraction, float] = 1  # x_k! in the rule's own arithmetic
        self._lock = threading.RLock()
        self._pass: Optional[ChebyshevPass] = None
        self._pass_order = -1
        self._polys: Optional[List[list]] = None

    def _extend(self, count: int) -> None:
        with self._lock:
            while len(self._even) < count:
                k = len(self._even)
                product = self._product * x_value(self.spec, k)
                if isinstance(product, float) and not math.isfinite(product):
                    raise PrecisionError(
                        f"mu_{2 * k} = {product}: the float product x_1 ... x_{k} "
                        f"leaves the float range")
                self._product = product
                self._even.append(Fraction(product))

    def even_moment(self, k: int) -> Fraction:
        """mu_{2k} = x_k!."""
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        self._extend(k + 1)
        return self._even[k]

    def moment(self, m: int) -> Fraction:
        """mu_m, including the vanishing odd orders."""
        if m % 2:
            return Fraction(0)
        return self.even_moment(m // 2)

    def hankel_matrix(self, n: int) -> list:
        """(n+1) x (n+1) matrix [mu_{i+j}]."""
        self._extend(n + 1)
        return [[self.moment(i + j) for j in range(n + 1)] for i in range(n + 1)]

    def chebyshev(self, n: int) -> "ChebyshevPass":
        """:func:`exact_chebyshev` over mu_0 .. mu_{2n+1}, i.e. for k <= n.

        a_k, b_k and sigma_kk depend only on mu_0 .. mu_{2k+1}, so the
        longest pass run so far is kept and a shorter order is its prefix.
        """
        with self._lock:
            if n > self._pass_order:
                self._pass = exact_chebyshev([self.moment(m) for m in range(2 * n + 2)])
                self._pass_order = n
                self._polys = None
            full = self._pass
        return ChebyshevPass(full.alpha[:n + 1], full.beta[:n + 1], full.pivots[:n + 1])

    def chebyshev_polynomials(self, n: int) -> List[list]:
        """``chebyshev(n).polynomials()``, built once from the kept pass."""
        degree = len(self.chebyshev(n).alpha)
        with self._lock:
            if self._polys is None:
                self._polys = self._pass.polynomials()
            return [list(p) for p in self._polys[:degree + 1]]


# ---------------------------------------------------------------------------
# exact Chebyshev algorithm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChebyshevPass:
    """Recurrence data of the monic polynomials orthogonal for a moment list.

    ``alpha[k]``, ``beta[k]`` give P_{k+1} = (x - a_k) P_k - b_k P_{k-1}
    (b_0 = mu_0 multiplies P_{-1} = 0); ``pivots[k]`` is
    sigma_kk = <P_k, x^k> = D_k / D_{k-1}.  A pass that meets a zero pivot
    ends with it: ``pivots`` then has one entry more than ``alpha``.
    """
    alpha: tuple
    beta: tuple
    pivots: tuple

    def polynomials(self) -> List[list]:
        """P_0 .. P_m (m = len(alpha)) as ascending coefficient lists."""
        return monic_polynomials(self, Fraction(1))


def exact_chebyshev(moments: Sequence) -> ChebyshevPass:
    """Exact Chebyshev algorithm on mu_0 .. mu_{2n+1}: a_k, b_k and sigma_kk
    for k <= n (Gautschi 2004, section 2.1.7).

    sigma_{k,l} = <P_k, x^l> obeys sigma_{k,l} = sigma_{k-1,l+1}
    - a_{k-1} sigma_{k-1,l} - b_{k-1} sigma_{k-2,l}, with
    a_k = sigma_{k,k+1}/sigma_kk - sigma_{k-1,k}/sigma_{k-1,k-1} and
    b_k = sigma_kk/sigma_{k-1,k-1}.  O(n^2) exact operations; the pass stops
    at the first pivot that is exactly zero.
    """
    n = len(moments) // 2 - 1
    alpha: list = []
    beta: list = []
    pivots: list = []
    prev: list = [0] * len(moments)  # sigma_{k-1, l}, indexed by l
    cur = moments                    # sigma_{k, l}
    prev_pivot = Fraction(1)
    for k in range(n + 1):
        if k:
            nxt = [0] * len(moments)
            for l in range(k, 2 * n + 2 - k):
                nxt[l] = cur[l + 1] - alpha[-1] * cur[l] - beta[-1] * prev[l]
            prev, cur = cur, nxt
        pivot = cur[k]
        pivots.append(pivot)
        if pivot == 0:
            break
        alpha.append(cur[k + 1] / pivot - prev[k] / prev_pivot)
        beta.append(pivot / prev_pivot)
        prev_pivot = pivot
    return ChebyshevPass(tuple(alpha), tuple(beta), tuple(pivots))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def bareiss_determinant(matrix: list) -> Union[Fraction, int]:
    """Exact determinant by fraction-free elimination with row pivoting."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class HankelResult:
    """D_n with its sign.  Every determinant is exact, so ``exact`` is always
    True and ``precision_bits`` always None; both stay because the
    ``exact`` column of ``hankel.csv`` and existing readers of the result
    still name them."""
    order: int
    value: Fraction
    positive: bool
    exact: bool = True
    precision_bits: Optional[int] = None


def hankel_determinant(moments: MomentSequence, n: int) -> HankelResult:
    """D_n = det [mu_{i+j}], 0 <= i, j <= n.

    Positive for every moment sequence of a measure with infinite support.
    The product of the Chebyshev pivots sigma_00 .. sigma_nn, or Bareiss
    elimination when an earlier pivot is zero; exact either way.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    pivots = moments.chebyshev(n).pivots
    if len(pivots) == n + 1:
        value = math.prod(pivots)
    else:
        value = bareiss_determinant(moments.hankel_matrix(n))
    return HankelResult(n, value, value > 0)


def hankel_polynomial(moments: MomentSequence, n: int) -> list:
    """Monic degree-n polynomial orthogonal to 1, x, ..., x^(n-1) under the
    even moment functional, as ascending coefficients.

    Exact Fractions.  The polynomial is the bordered Hankel determinant
    divided by D_{n-1}; it is computed from the three-term recurrence of one
    Chebyshev pass over mu_0 .. mu_{2n-1}.  When a pivot sigma_kk with
    k < n - 1 is exactly zero the recurrence breaks down although P_n may
    still exist; coefficient j is then the signed n x n minor that deletes
    power column j, divided by D_{n-1}, both by Bareiss elimination.
    D_{n-1} = 0 raises DegenerateMomentsError, a ZeroDivisionError.

    On the even moments x_n! this equals the rescaled recurrence polynomial
    2^(n/2) q_n(x/sqrt 2) only for n <= 2; from degree 3 on the two families
    are orthogonal for different measures (P_3 = x^3 - x_2 x, against
    x^3 - (x_1 + x_2) x).
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    polys = moments.chebyshev_polynomials(n - 1)
    if len(polys) == n + 1:
        return polys[n]
    d_prev = bareiss_determinant(moments.hankel_matrix(n - 1))
    if d_prev == 0:
        raise DegenerateMomentsError(
            f"degenerate moment sequence: D_{n - 1} = 0, no monic polynomial of degree {n}")
    rows = [[moments.moment(i + j) for j in range(n + 1)] for i in range(n)]
    coeffs = []
    for k in range(n + 1):
        minor = [[row[j] for j in range(n + 1) if j != k] for row in rows]
        cof = bareiss_determinant(minor)
        coeffs.append((-1) ** (n + k) * cof / d_prev)
    return coeffs


# ---------------------------------------------------------------------------
# Berg--Duran style classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BergDuranReport:
    hausdorff_ok: bool
    stieltjes_hankels_ok: bool
    cm_report: CMReport
    first_nonpositive_hankel: Optional[tuple]  # (shift, order)
    effective_n_max: int = 0


def berg_duran_check(spec: SequenceSpec, n_max: int, order: int = 8) -> BergDuranReport:
    """Test the hypothesis and the conclusion of the Berg--Duran theorem.

    (i) {1/x_n} should be a Hausdorff moment sequence: run the
    finite-difference criterion on a(n) = 1/x_{n+1} (x_0 = 0 is excluded by
    shifting the index).  (ii) The partial products s_n = x_n! should then be
    a Stieltjes moment sequence: verify positivity of the Hankel
    determinants of [s_{i+j}] and of the shifted [s_{i+j+1}] up to order
    floor(n_max / 2).  Both verdicts are reported; neither is an error.

    List-backed sequences with fewer than n_max + order + 1 values are
    scanned over the range they can support (see ``effective_n_max``).
    """
    top = _max_index(spec)
    if top is not None:
        order = min(order, max(1, top - 2))
        n_max = max(1, min(n_max, top - order - 1))
    xs = x_floats(spec, n_max + order + 1).tolist()
    cm = cm_sequence_test(lambda n: 1.0 / xs[n], n_max, order)

    top = n_max // 2
    moments = MomentSequence(spec)
    s = [moments.even_moment(k) for k in range(2 * top + 2)]
    first_bad = None
    for shift in (0, 1):
        # while D_1 .. D_{size-1} > 0, D_size has the sign of its pivot
        signs = exact_chebyshev(s[shift:shift + 2 * top]).pivots
        first_bad = next(((shift, size) for size, sign in enumerate(signs, 1)
                          if not sign > 0), None)
        if first_bad:
            break
    return BergDuranReport(cm.passed, first_bad is None, cm, first_bad, n_max)

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
section 2.1.7) turns mu_0 .. mu_{2n} into the recurrence coefficients
P_{k+1} = x P_k - b_k P_{k-1} (a_k = 0, as the odd moments vanish) and the
pivots sigma_kk = <P_k, x^k> = D_k / D_{k-1} for k <= n, in O(n^2) exact
operations.  D_n is then the running product of the pivots and P_n follows
from the recurrence.  A MomentSequence keeps its pass and extends it by one
even moment when a larger order is asked for, so D_0, D_1, ..., D_n asked
in any order cost one O(n^2) pass.  The pass stops at a pivot that is exactly
zero (a singular leading Hankel block); beyond it, fraction-free (Bareiss)
elimination and bordered minors give the same quantities.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

from .recurrence import _extend_monic_polynomials, monic_polynomials
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
    and each product is kept as the exact dyadic rational it is.  The
    moments, one Chebyshev pass and its polynomials are kept behind a lock
    and extended when a larger order is asked for, so concurrent readers
    see value-identical prefixes and any order of calls costs one pass.
    """

    def __init__(self, spec: SequenceSpec):
        self.spec = spec
        self._even: List[Fraction] = [Fraction(1)]
        self._product: Union[Fraction, float] = 1  # x_k! in the rule's own arithmetic
        self._lock = threading.RLock()
        self._pass = _GrowingPass()
        self._polys: List[list] = [[Fraction(1)]]

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
        """The Chebyshev pass over mu_0 .. mu_{2n}, i.e. for k <= n.

        b_k and sigma_kk depend only on mu_0 .. mu_{2k}, so one pass is
        kept: a shorter order is its prefix, and a longer one grows it by
        one even moment per order.
        """
        with self._lock:
            self._extend(n + 1)
            return self._pass.grow_to(n, self.even_moment)

    def chebyshev_polynomials(self, n: int) -> List[list]:
        """``chebyshev(n).polynomials()``, appended to the kept P_k."""
        with self._lock:
            cheb = self.chebyshev(n)
            _extend_monic_polynomials(self._polys, cheb)
            return [list(p) for p in self._polys[:len(cheb.alpha) + 1]]


# ---------------------------------------------------------------------------
# exact Chebyshev algorithm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChebyshevPass:
    """Recurrence data of the monic polynomials orthogonal for a moment list.

    ``alpha[k]``, ``beta[k]`` give P_{k+1} = (x - a_k) P_k - b_k P_{k-1}
    (b_0 = mu_0 multiplies P_{-1} = 0); ``pivots[k]`` is
    sigma_kk = <P_k, x^k> = D_k / D_{k-1} and ``determinants[k]`` is
    D_k = sigma_00 ... sigma_kk.  A pass that meets a zero pivot ends with
    it: ``pivots`` and ``determinants`` then have one entry more than
    ``alpha``.
    """
    alpha: tuple
    beta: tuple
    pivots: tuple
    determinants: tuple

    def polynomials(self) -> List[list]:
        """P_0 .. P_m (m = len(alpha)) as ascending coefficient lists."""
        return monic_polynomials(self, Fraction(1))


class _GrowingPass:
    """The exact Chebyshev pass (Gautschi 2004, section 2.1.7) on even
    moments, grown one even moment at a time.

    sigma_{k,l} = <P_k, x^l> obeys sigma_{k,l} = sigma_{k-1,l+1}
    - a_{k-1} sigma_{k-1,l} - b_{k-1} sigma_{k-2,l}, with
    b_k = sigma_kk/sigma_{k-1,k-1}.  The odd moments vanish, so every P_k
    has the parity of k: a_k = 0 and sigma_{k,l} = 0 when k + l is odd.
    The pass keeps only the other entries, sigma_{k,l} = sigma_{k-1,l+1}
    - b_{k-1} sigma_{k-2,l} for l = k mod 2.  At order n row k reaches
    l = 2n-k; the next even moment mu_{2n+2} adds l = 2n+2-k to every row,
    in increasing k, and the last row it fills is the new row n+1.  The new
    entry reads that of row k-1 and the top entry that row k-2 had before
    the step, so each row keeps only its top entry.  Reaching order n costs
    O(n^2) exact operations however the growth is split.  The pass stops at
    the first pivot that is exactly zero.
    """

    def __init__(self):
        self.alpha: list = []
        self.beta: list = []
        self.pivots: list = []
        self.determinants: list = []
        self._tops: list = []  # sigma_{k,2n-k} for k <= n

    def grow_to(self, n: int, even_moment) -> ChebyshevPass:
        """Grow to order n, reading mu_{2k} as ``even_moment(k)``, and
        return the pass for k <= n as far as it went."""
        # a zero pivot leaves alpha one entry short and ends the growth
        while len(self.pivots) <= n and len(self.alpha) == len(self.pivots):
            self._grow(even_moment(len(self.pivots)))
        return ChebyshevPass(tuple(self.alpha[:n + 1]), tuple(self.beta[:n + 1]),
                             tuple(self.pivots[:n + 1]), tuple(self.determinants[:n + 1]))

    def _grow(self, even) -> None:
        """Take mu_{2n+2} and add row n+1, where n + 1 is the number of
        pivots so far."""
        old = self._tops
        new = [even]
        for k, b in enumerate(self.beta, 1):
            # sigma_{k-1,2n+3-k} - b_{k-1} sigma_{k-2,2n+2-k}
            new.append(new[k - 1] - b * old[k - 2] if k > 1 else new[0])
        self._tops = new
        pivot = new[-1]
        self.pivots.append(pivot)
        self.determinants.append(
            pivot * self.determinants[-1] if self.determinants else pivot)
        if pivot == 0:
            return
        self.alpha.append(Fraction(0))
        # sigma_{-1,-1} = 1 starts the pass at k = 0
        self.beta.append(pivot / old[-1] if old else pivot)


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
    The running product of the Chebyshev pivots sigma_00 .. sigma_nn, or
    Bareiss elimination when an earlier pivot is zero; exact either way.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    determinants = moments.chebyshev(n).determinants
    if len(determinants) == n + 1:
        value = determinants[n]
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
    floor(n_max / 2), all sizes of [s_{i+j}] first, from the pivots of one
    Chebyshev pass of the even moments, and past a zero pivot by Bareiss
    elimination.  Both verdicts are reported; neither is an error.

    List-backed sequences with fewer than n_max + order + 1 values are
    scanned over the range they can support (see ``effective_n_max``).
    """
    top = _max_index(spec)
    if top is not None:
        order = min(order, max(1, top - 2), top - 1)
        n_max = max(0, min(n_max, top - order - 1))
    xs = x_floats(spec, n_max + order + 1).tolist()
    cm = cm_sequence_test(lambda n: 1.0 / xs[n], n_max, order)

    top = n_max // 2
    moments = MomentSequence(spec)
    s = moments.even_moment
    # with mu_{2k} = s_k, D_{2k} = H0_k H1_{k-1} and D_{2k+1} = H0_k H1_k for
    # H0_k = det [s_{i+j}] and H1_k = det [s_{i+j+1}] of size k + 1 (Chihara
    # 1978, ch. I), so pivot 2k + shift of the even functional is the pivot
    # of [s_{i+j+shift}] at size k + 1; the pass and the Bareiss fallback
    # read only s_0 .. s_{2 top - 1}
    pivots = moments.chebyshev(2 * top - 1).pivots if top else ()

    def positive(shift: int, size: int) -> bool:
        # while sizes 1 .. size - 1 are positive, size has the sign of its
        # pivot; past a zero pivot, that of its determinant
        index = 2 * size - 2 + shift
        if index < len(pivots):
            return pivots[index] > 0
        return bareiss_determinant(
            [[s(i + j + shift) for j in range(size)] for i in range(size)]) > 0

    first_bad = next(((shift, size) for shift in (0, 1) for size in range(1, top + 1)
                      if not positive(shift, size)), None)
    return BergDuranReport(cm.passed, first_bad is None, cm, first_bad, n_max)

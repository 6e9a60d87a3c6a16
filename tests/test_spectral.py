import math
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nlcpoly import (
    SequenceSpec, TruncatedJacobi, build_truncated, char_poly, ismail_li_bounds,
    jacobi_zeros, monic_q_coefficients, sturm_count, support_endpoints, x_float, x_floats,
)
from nlcpoly import spectral
from conftest import catalog_specs, horner


# -- construction -----------------------------------------------------------------

def test_build_canonical_order_two(canonical):
    q = build_truncated(canonical, 2)
    assert q.b_squared == (Fraction(1, 2),)
    assert q.order == 2


def test_build_su11_order_three(su11_j1):
    q = build_truncated(su11_j1, 3)
    assert q.b_squared == (Fraction(1, 4), Fraction(1, 3))
    assert q.order == 3


def test_build_order_one_zero_matrix(canonical):
    q = build_truncated(canonical, 1)
    assert q.b_squared == () and q.order == 1
    assert jacobi_zeros(q).zeros == (0.0,)


# -- characteristic polynomial -------------------------------------------------------

def test_char_poly_by_hand(canonical):
    q = build_truncated(canonical, 2)
    assert char_poly(q, Fraction(1)) == Fraction(1, 2)  # 1 - 1/2
    assert char_poly(q, Fraction(0)) == Fraction(-1, 2)


def test_char_poly_order_one_at_zero(canonical):
    assert char_poly(build_truncated(canonical, 1), Fraction(0)) == 0


FAMILIES_FOR_IDENTITY = [
    SequenceSpec("canonical"),
    SequenceSpec("su11", j=1),
    SequenceSpec("ultraspherical", nu=1),
    SequenceSpec("jacobi_type", alpha=1, beta=1),
    SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4)),
]


@pytest.mark.parametrize("spec", FAMILIES_FOR_IDENTITY, ids=lambda s: s.family)
def test_char_poly_equals_monic_recurrence_exactly(spec):
    rng = random.Random(53)
    points = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(10)]
    for n in range(1, 16):
        q = build_truncated(spec, n)
        coeffs = monic_q_coefficients(spec, n)
        for x in points:
            assert char_poly(q, x) == horner(coeffs, x), (spec.family, n, x)


# -- zeros -----------------------------------------------------------------------------

def test_zeros_order_two(canonical):
    result = jacobi_zeros(build_truncated(canonical, 2))
    assert result.zeros[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert result.zeros[1] == pytest.approx(-math.sqrt(0.5), abs=1e-12)


def test_zeros_middle_is_exactly_zero(su11_j1):
    for n in (3, 7, 11):
        result = jacobi_zeros(build_truncated(su11_j1, n))
        assert result.zeros[n // 2] == 0.0


def test_zeros_order_four_closed_form(canonical):
    # q_4 = x^4 - 3x^2 + 3/4
    result = jacobi_zeros(build_truncated(canonical, 4), 1e-14)
    u_hi = (3 + math.sqrt(6)) / 2
    u_lo = (3 - math.sqrt(6)) / 2
    expected = [math.sqrt(u_hi), math.sqrt(u_lo), -math.sqrt(u_lo), -math.sqrt(u_hi)]
    for z, e in zip(result.zeros, expected):
        assert z == pytest.approx(e, abs=1e-12)


def test_zeros_strictly_descending_and_symmetric(canonical):
    result = jacobi_zeros(build_truncated(canonical, 9), 1e-13)
    zs = result.zeros
    assert all(a > b for a, b in zip(zs, zs[1:]))
    for j in range(9):
        assert zs[j] == -zs[9 - 1 - j]
    assert result.count_mismatches == 0


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_zero_structure_through_order_twelve(spec):
    tol = 1e-13
    prev = None
    for n in range(1, 13):
        result = jacobi_zeros(build_truncated(spec, n), tol)
        assert result.count_mismatches == 0
        if n >= 2:
            a, b = ismail_li_bounds(spec, n)
            assert all(a < z < b for z in result.zeros)
            # the same bound expressed through the largest coefficient
            edge = math.sqrt(2.0 * max(x_float(spec, k) for k in range(1, n)))
            assert all(abs(z) < edge for z in result.zeros)
        if prev is not None:
            for i in range(n - 1):
                assert result.zeros[i] > prev[i] > result.zeros[i + 1]
        prev = result.zeros


def test_zero_brackets_certify_sign_change(canonical):
    for n in (5, 8, 13):
        q = build_truncated(canonical, n)
        result = jacobi_zeros(q, 1e-13)
        for lo, hi in result.brackets:
            s_lo = char_poly(q, Fraction(lo))
            s_hi = char_poly(q, Fraction(hi))
            assert s_lo == 0 or s_hi == 0 or (s_lo < 0) != (s_hi < 0)


def test_sturm_count_endpoints(canonical):
    q = build_truncated(canonical, 6)
    a, b = ismail_li_bounds(canonical, 6)
    assert sturm_count(q, a - 1e-9) == 0
    assert sturm_count(q, b + 1e-9) == 6


def test_extreme_zero_increases_toward_endpoint():
    spec = SequenceSpec("ultraspherical", nu=1)
    endpoint = support_endpoints(spec).endpoint
    largest = [jacobi_zeros(build_truncated(spec, n)).zeros[0]
               for n in (5, 10, 20, 40, 80)]
    assert all(b > a for a, b in zip(largest, largest[1:]))
    assert all(z < endpoint for z in largest)
    # approach is O(1/n) for this family: the gap shrinks by ~16x over 5->80
    assert endpoint - largest[-1] < (endpoint - largest[0]) / 10.0


# -- bounds -----------------------------------------------------------------------------

def test_ismail_li_canonical_order_two(canonical):
    a, b = ismail_li_bounds(canonical, 2)
    assert (a, b) == (pytest.approx(-math.sqrt(2.0)), pytest.approx(math.sqrt(2.0)))


def test_ismail_li_explicit_single_value():
    spec = SequenceSpec("explicit", values=[2, 3])
    a, b = ismail_li_bounds(spec, 2)
    assert (a, b) == (-2.0, 2.0)


def test_ismail_li_ultraspherical_inside_sqrt_two():
    spec = SequenceSpec("ultraspherical", nu=1)
    for n in (2, 5, 20):
        a, b = ismail_li_bounds(spec, n)
        assert -math.sqrt(2.0) < a < b < math.sqrt(2.0)


def test_ismail_li_precondition(canonical):
    with pytest.raises(ValueError):
        ismail_li_bounds(canonical, 1)


# -- support endpoints ---------------------------------------------------------------------

def test_support_endpoints_values():
    assert support_endpoints(SequenceSpec("canonical")).kind == "unbounded"
    supp = support_endpoints(SequenceSpec("ultraspherical", nu=1))
    assert supp.endpoint == pytest.approx(math.sqrt(2.0))
    supp2 = support_endpoints(SequenceSpec("jacobi_type", alpha=1, beta=1))
    assert supp2.endpoint == pytest.approx(math.sqrt(2.0))


def test_zeros_match_gauss_hermite_nodes(canonical):
    # independent oracle: the canonical zeros are Gauss-Hermite nodes
    import numpy as np
    for n in (3, 6, 9, 14):
        nodes, _ = np.polynomial.hermite.hermgauss(n)
        mine = jacobi_zeros(build_truncated(canonical, n), 1e-14).zeros
        for a, b in zip(sorted(nodes), sorted(mine)):
            assert b == pytest.approx(a, abs=5e-14)


@pytest.mark.parametrize("spec", catalog_specs()[:6], ids=lambda s: s.family)
def test_zeros_match_lapack_tridiagonal(spec):
    from scipy.linalg import eigh_tridiagonal
    import numpy as np
    for n in (5, 12, 21):
        q = build_truncated(spec, n)
        lam = eigh_tridiagonal(np.zeros(n), np.sqrt(np.array(q.b_squared, dtype=float)),
                               eigvals_only=True)[::-1]
        mine = jacobi_zeros(q, 1e-13).zeros
        scale = max(1.0, abs(lam[0]))
        for a, b in zip(lam, mine):
            assert b == pytest.approx(a, abs=1e-12 * scale)


def test_zero_enclosures_respect_tolerance(su11_j1):
    for tol in (1e-10, 1e-13):
        result = jacobi_zeros(build_truncated(su11_j1, 9), tol)
        assert max(result.residual_bounds) <= tol / 2 + 1e-16
        for (lo, hi), z in zip(result.brackets, result.zeros):
            assert hi - lo <= tol


# -- the lane-parallel search against the scalar reference --------------------------------

# the scalar reference counts a zero pivot as the tiny negative -_TINY_PIVOT;
# the lane kernel lets IEEE infinities carry it, with the same counts
_TINY_PIVOT = 1e-300


def _reference_count(b_squared, sigma, tiny=_TINY_PIVOT, diagonal=None):
    diagonal = diagonal or [0.0] * (len(b_squared) + 1)
    count = 0
    d = diagonal[0] - sigma
    for a, b2 in zip(diagonal[1:], b_squared):
        if d == 0.0 and tiny is not None:
            d = -tiny
        if d < 0.0:
            count += 1
        d = (a - sigma) - b2 / d
    if d == 0.0 and tiny is not None:
        d = -tiny
    if d < 0.0:
        count += 1
    return count


def _reference_pivots(b_squared, sigma, diagonal=None):
    """(count, last pivot) of the lane kernel, one Python float at a time:
    b^2 / +-0 is +-inf as in IEEE division, every pivot but the last counts
    by its sign bit and the last counts when <= 0."""
    diagonal = diagonal or [0.0] * (len(b_squared) + 1)
    count = 0
    d = diagonal[0] - sigma
    for a, b2 in zip(diagonal[1:], b_squared):
        count += math.copysign(1.0, d) < 0.0
        b2 = max(b2, math.ulp(0.0))
        d = (a - sigma) - (b2 / d if d else math.copysign(math.inf, d))
    return count + (d <= 0.0), d


def _reference_search(count, lo, hi, index, tolerance):
    """The search of each lane (1-based eigenvalue ``index``, invariant
    count(lo) < index <= count(hi)) as scalar Python, where ``count(t)`` is
    (count, last pivot): when more than one lane starts from one bracket, a
    first sweep at 3 points per lane spread evenly over it, shared by all;
    then per lane a secant step on the last pivot where the bracket holds
    one eigenvalue and no pole, and quarter points elsewhere.  Returns the
    brackets and the number of counts."""
    points = 3 * len(index)
    shared = len(index) > 1 and len(set(lo)) == len(set(hi)) == 1
    swept = [(t, *count(t)) for t in (lo[0] + (hi[0] - lo[0]) * (i / (points + 1))
                                      for i in range(1, points + 1))] if shared else []
    steps, brackets = len(swept), []
    for low, high, j in zip(lo, hi, index):
        k = max((i for i, (_, c, _) in enumerate(swept) if c < j), default=-1)
        below = swept[k] if k >= 0 else (low, math.nan, math.nan)
        above = swept[k + 1] if k + 1 < len(swept) else (high, math.nan, math.nan)
        last_three = None
        while True:
            (low, c_lo, d_lo), (high, c_hi, d_hi) = below, above
            width = high - low
            chosen = [low + width * 0.25, low + width * 0.5, low + width * 0.75]
            if not (width > tolerance and low < chosen[0] < chosen[1] < chosen[2] < high):
                break
            if last_three and c_hi - c_lo == 1 and d_lo > 0.0 and d_hi <= 0.0:
                (x1, _, d1), (x2, _, d2), (x3, _, d3) = last_three
                curve = 2.0 * abs(((d3 - d2) / (x3 - x2) - (d2 - d1) / (x2 - x1)) / (x3 - x1))
                drop = d_lo - d_hi
                r = low + width * (d_lo / drop)
                delta = max(curve * ((r - low) * (high - r)) * (width / drop), tolerance / 4)
                a, b = r - delta, r + delta
                secant = ([(low + a) * 0.5, a, b] if a - low > high - b
                          else [a, b, (b + high) * 0.5])
                if low < secant[0] < secant[1] < secant[2] < high:
                    chosen = secant
            last_three = [(t, *count(t)) for t in chosen]
            steps += 3
            row = [below, *last_three, above]
            k = max((i for i in (1, 2, 3) if row[i][1] < j), default=0)
            below, above = row[k], row[k + 1]
        brackets.append((low, high))
    return brackets, steps


def _reference_zeros(q, tolerance):
    """The scalar search of the positive zeros on the odd-row block of Q_n^2,
    checked by counts on Q_n and searched again on Q_n from the widened
    bracket where they refute it, then the mirror images: (zeros, brackets,
    Sturm evaluations, mismatches, lanes searched again on Q_n), zeros and
    brackets descending."""
    n = q.order
    b_squared = [float(v) for v in q.b_squared]  # rounded once, as jacobi_zeros does
    beta = [0.0, *b_squared, 0.0]
    rows, half = (n + 1) // 2, n // 2
    diagonal = [beta[2 * i - 2] + beta[2 * i - 1] for i in range(1, rows + 1)]
    off_squared = [beta[2 * i - 1] * beta[2 * i] for i in range(1, rows)]
    radius = 2.0 * math.sqrt(max(beta))
    top = radius + 64.0 * math.ulp(max(radius, 1.0))

    def on_block(t):
        return _reference_pivots(off_squared, t * t, diagonal=diagonal)

    def on_q(t):
        return _reference_pivots(b_squared, t)

    def encloses(lo, hi, index):
        return on_q(lo)[0] < index <= on_q(hi)[0]

    positive, steps = _reference_search(on_block, [0.0] * half, [top] * half,
                                        [j + 1 + n % 2 for j in range(half)], tolerance)
    steps += 2 * half
    index = [n - half + 1 + j for j in range(half)]  # t_j among the eigenvalues of Q_n
    refuted = [j for j, (lo, hi) in enumerate(positive) if not encloses(lo, hi, index[j])]
    steps += 2 * len(refuted)
    redo, wide = [], []
    for j in refuted:
        lo, hi = positive[j]
        pad = 16.0 * math.ulp(1.0) * radius ** 2 / (lo + hi)
        wide_lo, wide_hi = max(lo - pad, 0.0), min(hi + pad, top)
        if encloses(wide_lo, wide_hi, index[j]):
            redo.append(j)
            wide.append((wide_lo, wide_hi))
    again, used = _reference_search(on_q, [lo for lo, _ in wide], [hi for _, hi in wide],
                                    [index[j] for j in redo], tolerance)
    steps += used
    for j, bracket in zip(redo, again):
        positive[j] = bracket
    brackets = (positive[::-1] + [(0.0, 0.0)] * (n % 2)
                + [(0.0 - hi, 0.0 - lo) for lo, hi in positive])
    zeros = tuple(0.5 * (lo + hi) for lo, hi in brackets)
    return zeros, tuple(brackets), steps, len(refuted) - len(redo), len(redo)


def _assert_matches_reference(q, tolerance):
    result = jacobi_zeros(q, tolerance)
    zeros, brackets, steps, mismatches, _ = _reference_zeros(q, tolerance)
    assert result.brackets == brackets
    assert result.zeros == zeros
    assert result.bisection_steps == steps
    assert result.count_mismatches == mismatches == 0
    return result


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_brackets_bit_identical_to_scalar_bisection_through_order_64(spec):
    for n in range(1, 65):
        _assert_matches_reference(build_truncated(spec, n), 1e-11)


def test_brackets_bit_identical_at_order_400():
    result = _assert_matches_reference(
        build_truncated(SequenceSpec("su11", j=Fraction(3, 2)), 400), 1e-11)
    # 600 counts in the shared sweep, 3 per lane in each later sweep, then
    # both ends of each of the 200 positive zeros on Q_n, where none is refuted
    assert result.bisection_steps == 4102
    # at most half the 19 quadrisection sweeps of every lane plus the check
    assert 2 * result.bisection_steps <= 19 * 3 * 200 + 2 * 200


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_no_count_mismatch_at_order_400(spec):
    q = TruncatedJacobi(tuple((x_floats(spec, 399) / 2).tolist()))
    result = jacobi_zeros(q, 1e-11)
    assert result.count_mismatches == 0
    assert max(hi - lo for lo, hi in result.brackets) <= 1e-11


def test_lanes_stop_at_floating_point_resolution(canonical):
    # below every zero's ulp, each lane ends where its quarter points no
    # longer fall strictly inside its bracket
    q = build_truncated(canonical, 12)
    done = []
    worker = threading.Thread(target=lambda: done.append(jacobi_zeros(q, 1e-300)),
                              daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert done, "the search did not stop at floating-point resolution"
    assert done[0].brackets == _reference_zeros(q, 1e-300)[1]
    for lo, hi in done[0].brackets:
        quarters = [lo + (hi - lo) * f for f in (0.25, 0.5, 0.75)]
        assert hi - lo > 1e-300 and not lo < quarters[0] < quarters[1] < quarters[2] < hi


def test_symmetric_enclosure_takes_the_zero_pivot(su11_j1):
    for n in range(2, 13):
        q = build_truncated(su11_j1, n)
        lo0, hi0 = jacobi_zeros(q).enclosure
        assert lo0 == -hi0 and 0.5 * (lo0 + hi0) == 0.0  # symmetric about 0
        # the first pivot at sigma = 0 is exactly zero and counts as a crossing
        # from below, so an odd order's middle zero 0 counts as below 0
        with pytest.raises(ZeroDivisionError):
            _reference_count(q.b_squared, 0.0, tiny=None)
        assert sturm_count(q, 0.0) == _reference_count(q.b_squared, 0.0) == (n + 1) // 2


def test_structural_zero_is_exact_through_order_three(canonical):
    one = jacobi_zeros(build_truncated(canonical, 1))
    assert one.zeros == (0.0,) and one.bisection_steps == 0
    for n in (1, 2, 3):
        result = jacobi_zeros(build_truncated(canonical, n), 1e-13)
        assert ((0.0, 0.0) in result.brackets) is (n % 2 == 1)
        if n % 2:
            assert result.zeros[n // 2] == 0.0 and result.brackets[n // 2] == (0.0, 0.0)
            assert result.residual_bounds[n // 2] == 0.0
        assert result.count_mismatches == 0


def test_half_block_is_exact_in_t_squared():
    # det(t I - Q_n) t^(n mod 2) = det(t^2 I - block), in exact arithmetic
    spec = SequenceSpec("su11", j=Fraction(3, 2))
    for n in range(1, 12):
        q = build_truncated(spec, n)
        diagonal, off_squared = spectral._half_block(q.b_squared)
        assert len(diagonal) == (n + 1) // 2
        for t in (Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7)):
            s = t * t
            prev, cur = Fraction(1), s - diagonal[0]
            for a, e in zip(diagonal[1:], off_squared):
                prev, cur = cur, (s - a) * cur - e * prev
            assert char_poly(q, t) * t ** (n % 2) == cur, (n, t)


def test_count_mismatches_catch_a_wrong_block(monkeypatch):
    # the block's counts steer the search and the counts on Q_n judge it: a
    # block scaled by (1 + r)^2 moves every positive zero t up by r t, here
    # at least 3 tolerances, far beyond the block's rounding
    tol = 1e-12
    q = build_truncated(SequenceSpec("su11", j=Fraction(3, 2)), 12)
    right = jacobi_zeros(q, tol)
    assert right.count_mismatches == 0
    r = 3 * tol / right.zeros[q.order // 2 - 1]
    half_block = spectral._half_block

    def wrong(b_squared):
        diagonal, off_squared = half_block(b_squared)
        return ([(1 + r) ** 2 * a for a in diagonal],
                [(1 + r) ** 4 * e for e in off_squared])

    monkeypatch.setattr(spectral, "_half_block", wrong)
    result = jacobi_zeros(q, tol)
    for (lo, _), (_, right_hi) in zip(result.brackets, right.brackets[:q.order // 2]):
        assert lo > right_hi + tol  # the bracket misses its zero
    assert result.count_mismatches == q.order // 2


def test_repaired_brackets_bit_identical_to_scalar_reference():
    # at 1e-14 the block's rounding at small zeros of these growing families
    # exceeds the tolerance, so counts on Q_n refute some lanes (one to seven
    # here) and the search runs again on Q_n from their widened brackets,
    # which differ, so no first sweep is shared
    for spec in catalog_specs():
        if spec.family not in ("barut_girardello", "meixner_pollaczek_bessel",
                               "bessel_k_abs"):
            continue
        q = build_truncated(spec, 64)
        _assert_matches_reference(q, 1e-14)
        assert _reference_zeros(q, 1e-14)[4] > 0, spec.family


def test_brackets_contain_lapack_eigenvalues_at_order_1000():
    import numpy as np
    from scipy.linalg import eigvalsh_tridiagonal
    tol = 1e-11
    q = build_truncated(SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2),
                                     a3=Fraction(1, 4)), 1000)
    result = jacobi_zeros(q, tol)
    oracle = eigvalsh_tridiagonal(np.zeros(q.order),
                                  np.sqrt(np.array(q.b_squared, dtype=float)))[::-1]
    for e, (lo, hi) in zip(oracle, result.brackets):
        assert lo - tol <= e <= hi + tol
    _, brackets, steps, _, _ = _reference_zeros(q, tol)
    assert result.brackets == brackets and result.bisection_steps == steps


# -- the lane kernel at zero pivots, its scratch, and entries of any scale -----------------

def _zero_pivot_rows(diagonal, b_squared, sigma):
    """Rows where the recurrence d <- (a - sigma) - b^2/d meets an exact zero
    pivot when, as in the lane kernel, IEEE infinities carry it."""
    rows, d = [], np.float64(diagonal[0]) - sigma
    with np.errstate(divide="ignore"):
        for k, (a, b2) in enumerate(zip(diagonal[1:], b_squared)):
            rows += [k] * bool(d == 0.0)
            d = (a - sigma) - b2 / d
    return rows + [len(diagonal) - 1] * bool(d == 0.0)


def _pivot_bits(b_squared, sigma, diagonal):
    count, last = _reference_pivots(b_squared, sigma, diagonal)
    return count, last.hex()


def test_lane_counts_equal_the_scalar_reference_at_zero_pivots():
    # small integers (and -0.0) with half-integer shifts make exact zero
    # pivots of either sign, which the kernel carries by infinities and the
    # reference by -_TINY_PIVOT: in the first row, several in one sweep,
    # across a block edge and in the last row
    rng = random.Random(22)
    sigmas = [k / 2 for k in range(-2, 10)]
    seen = dict.fromkeys(("first", "several", "block edge", "last"), 0)
    for _ in range(300):
        n = rng.randint(1, 150)
        diagonal = [rng.choice((-0.0, 0.0, 1.0, 2.0, 3.0)) for _ in range(n)]
        if rng.random() < 0.25:  # at sigma = a, a zero pivot in every other row
            diagonal = [diagonal[0]] * n
        b_squared = [float(rng.randint(1, 4)) for _ in range(n - 1)]
        counts, lasts = spectral._sturm_counts(np.array(diagonal), b_squared,
                                               np.array(sigmas))
        for sigma, count, last in zip(sigmas, counts, lasts.tolist()):
            assert count == _reference_count(b_squared, sigma, diagonal=diagonal)
            assert (count, last.hex()) == _pivot_bits(b_squared, sigma, diagonal)
            rows = _zero_pivot_rows(diagonal, b_squared, sigma)
            seen["first"] += 0 in rows
            seen["several"] += len(rows) > 1
            seen["block edge"] += bool({63, 64} & set(rows))
            seen["last"] += n - 1 in rows
    assert min(seen.values()) > 0, seen
    # at sigma = 0 an odd zero-diagonal Q_n has a zero pivot in every other row
    for n in (1, 3, 63, 65, 129):
        b_squared = [float(k) for k in range(1, n)]
        count = spectral._sturm_counts(np.zeros(n), b_squared, np.zeros(1))[0][0]
        assert count == _reference_count(b_squared, 0.0) == (n + 1) // 2
        assert _reference_pivots(b_squared, 0.0)[0] == count


def test_a_lane_counts_the_same_alone_and_in_a_batch():
    rng = random.Random(7)
    diagonal = np.array([float(rng.randint(0, 3)) for _ in range(100)])
    b_squared = [float(rng.randint(1, 4)) for _ in range(99)]
    sigmas = np.array([rng.randint(-4, 14) / 2 for _ in range(1000)])
    counts, lasts = spectral._sturm_counts(diagonal, b_squared, sigmas)
    alone = [spectral._sturm_counts(diagonal, b_squared, sigmas[j:j + 1])
             for j in range(len(sigmas))]
    assert counts.tolist() == [count[0] for count, _ in alone]
    assert [v.hex() for v in lasts.tolist()] == [last[0].hex() for _, last in alone]


def test_sturm_scratch_does_not_grow_with_the_order():
    sigmas = np.linspace(0.0, 4.0, 2000)
    peaks = []
    for n in (1000, 8000):
        diagonal, b_squared = np.full(n, 2.0), np.ones(n - 1)
        tracemalloc.start()
        spectral._sturm_counts(diagonal, b_squared, sigmas)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_zeros_where_the_block_products_overflow():
    # x_n = n^60 at order 400: the largest b^2 is 5.7e155, so the products
    # beta_{2i-1} beta_{2i} of the block overflow unless the entries are scaled
    from scipy.linalg import eigvalsh_tridiagonal
    spec = SequenceSpec("rational", num=(0,) * 60 + (1,), den=(1,))
    q = TruncatedJacobi(tuple((x_floats(spec, 399) / 2).tolist()))
    assert q.b_squared[-2] * q.b_squared[-1] == math.inf
    result = jacobi_zeros(q, 1e-11)
    assert result.count_mismatches == 0
    oracle = eigvalsh_tridiagonal(np.zeros(q.order), np.sqrt(np.array(q.b_squared)))[::-1]
    slack = 64 * np.finfo(float).eps * oracle[0]  # LAPACK's own error
    for e, (lo, hi) in zip(oracle, result.brackets):
        assert lo - slack <= e <= hi + slack
    assert result.zeros[:4] == pytest.approx(oracle[:4], rel=1e-14)


def test_scaled_entries_give_scaled_brackets_bit_for_bit():
    q = build_truncated(SequenceSpec("su11", j=Fraction(3, 2)), 40)
    result = jacobi_zeros(q, 1e-12)
    for k in (1, 2, 200, 500):  # R = 1.38 times 2^k stays above 1, where top scales too
        scaled = jacobi_zeros(TruncatedJacobi(tuple(math.ldexp(float(v), 2 * k)
                                                    for v in q.b_squared)),
                              math.ldexp(1e-12, k))
        assert scaled.brackets == tuple((math.ldexp(lo, k), math.ldexp(hi, k))
                                        for lo, hi in result.brackets)
        assert scaled.bisection_steps == result.bisection_steps


def test_truncation_rejects_non_finite_entries():
    for entries in ((1.0, math.inf, 2.0), (math.inf,), (Fraction(1), -math.inf)):
        with pytest.raises(ValueError):
            TruncatedJacobi(entries)


def test_replace_checks_the_entries():
    q = TruncatedJacobi((1.0, 2.0))
    assert q._replace(b_squared=(3.0,)).order == 2
    with pytest.raises(ValueError):
        q._replace(b_squared=(1.0, math.inf))


def test_no_lane_forms_nan_where_an_entry_rounds_to_zero():
    # b_2^2 = 10^-400 is positive but its float is 0.0; at sigma = 1 the second
    # pivot is 0, so a zero coupling would make the third pivot 0/0
    q = TruncatedJacobi((1.0, Fraction(1, 10 ** 400), 1.0))
    with np.errstate(invalid="raise"):
        assert [sturm_count(q, s) for s in (-1.5, -0.5, 0.5, 1.5)] == [0, 2, 2, 4]
        assert 2 <= sturm_count(q, 1.0) <= 4
        zeros = jacobi_zeros(q, 1e-12).zeros
    assert zeros == pytest.approx((1.0, 1.0, -1.0, -1.0), abs=1e-12)


# -- one tuple of squared off-diagonals ----------------------------------------------------

def test_truncation_rejects_non_positive_entries():
    for entries in ((Fraction(1, 2), Fraction(0)), (-1.0,), (math.nan,), (Fraction(-1, 3),)):
        with pytest.raises(ValueError):
            TruncatedJacobi(entries)
    with pytest.raises(ValueError):
        build_truncated(SequenceSpec("canonical"), 0)


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_float_and_exact_entries_give_identical_counts_and_brackets(spec):
    # the float view x_floats / 2 is the rounding of the exact x_k / 2, and a
    # float tuple lifted to Fractions rounds back to itself
    for n in (2, 7, 30):
        exact = build_truncated(spec, n)
        floats = TruncatedJacobi(tuple((x_floats(spec, n - 1) / 2).tolist()))
        lifted = TruncatedJacobi(tuple(map(Fraction, floats.b_squared)))
        reference = jacobi_zeros(exact, 1e-12)
        for q in (floats, lifted):
            result = jacobi_zeros(q, 1e-12)
            assert result.brackets == reference.brackets
            assert result.bisection_steps == reference.bisection_steps
            for sigma in (*ismail_li_bounds(spec, n), 0.0, reference.zeros[0]):
                assert sturm_count(q, sigma) == sturm_count(exact, sigma)


def test_char_poly_is_exact_only_for_exact_entries(su11_j1):
    exact = build_truncated(su11_j1, 4)
    floats = TruncatedJacobi(tuple(map(float, exact.b_squared)))
    assert isinstance(char_poly(exact, Fraction(1, 3)), Fraction)
    assert isinstance(char_poly(exact, 0.5), float)
    assert isinstance(char_poly(floats, Fraction(1, 3)), float)
    assert char_poly(floats, Fraction(1, 2)) == pytest.approx(float(char_poly(exact, Fraction(1, 2))))


def _exact_sign(b_squared, t):
    """Sign of det(t I - Q_n) for float t and entries, in integers: every
    value scaled by a common power of two, so char_poly's recurrence runs
    without a gcd."""
    ratios = [v.as_integer_ratio() for v in (t, *b_squared)]
    scale = max(den for _, den in ratios)  # each denominator is a power of two
    x, *entries = [num * (scale // den) for num, den in ratios]
    prev, cur = 1, x
    for b2 in entries:
        prev, cur = cur, x * cur - b2 * scale * prev
    return (cur > 0) - (cur < 0)


def test_brackets_hold_small_zeros_of_a_growing_family_at_order_1000():
    # barut_girardello's x_n grows like n^2, so R^2 / t is largest at its
    # small zeros: there the block's counts alone miss by more than 1e-12
    import numpy as np
    from scipy.linalg import eigvalsh_tridiagonal
    tol, eps = 1e-12, np.finfo(float).eps
    spec = SequenceSpec("barut_girardello", j=1)
    q = TruncatedJacobi(tuple((x_floats(spec, 999) / 2).tolist()))
    result = jacobi_zeros(q, tol)
    assert result.count_mismatches == 0
    oracle = eigvalsh_tridiagonal(np.zeros(q.order), np.sqrt(np.array(q.b_squared)))[::-1]
    slack = tol + 64 * eps * abs(oracle[0])  # LAPACK's own error, as perfbench allows
    for e, (lo, hi) in zip(oracle, result.brackets):
        assert lo - slack <= e <= hi + slack
    # LAPACK's error hides that of the small zeros; the exact polynomial of
    # the float entries changes sign across each of the 20 smallest positive
    # brackets
    for lo, hi in result.brackets[q.order // 2 - 20:q.order // 2]:
        assert _exact_sign(q.b_squared, lo) != _exact_sign(q.b_squared, hi), (lo, hi)

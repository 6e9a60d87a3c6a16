import math
import random
import threading
from fractions import Fraction

import pytest

from nlcpoly import (
    SequenceSpec, build_truncated, char_poly, ismail_li_bounds, jacobi_zeros,
    monic_q_value, sturm_count, support_endpoints, x_float,
)
from nlcpoly.spectral import _TINY_PIVOT
from conftest import catalog_specs


# -- construction -----------------------------------------------------------------

def test_build_canonical_order_two(canonical):
    q = build_truncated(canonical, 2)
    assert q.b == (pytest.approx(math.sqrt(0.5)),)
    assert q.b_squared == (Fraction(1, 2),)


def test_build_su11_order_three(su11_j1):
    q = build_truncated(su11_j1, 3)
    assert q.b[0] == pytest.approx(math.sqrt(0.25))
    assert q.b[1] == pytest.approx(math.sqrt(1.0 / 3.0))


def test_build_order_one_zero_matrix(canonical):
    q = build_truncated(canonical, 1)
    assert q.b == ()
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
        for x in points:
            assert char_poly(q, x) == monic_q_value(spec, n, x), (spec.family, n, x)


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
    assert result.pairing_defect <= 10 * result.tolerance


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_zero_structure_through_order_twelve(spec):
    tol = 1e-13
    prev = None
    for n in range(1, 13):
        result = jacobi_zeros(build_truncated(spec, n), tol)
        assert result.pairing_defect <= 10 * tol
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
    assert supp.endpoint_unhalved == pytest.approx(2.0)
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
        lam = eigh_tridiagonal(np.zeros(n), np.array(q.b),
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


# -- lane-parallel bisection against the scalar reference --------------------------------

def _reference_count(b2f, sigma, tiny=_TINY_PIVOT):
    count = 0
    d = -sigma
    for b2 in b2f:
        if d == 0.0 and tiny is not None:
            d = -tiny
        if d < 0.0:
            count += 1
        d = -sigma - b2 / d
    if d == 0.0 and tiny is not None:
        d = -tiny
    if d < 0.0:
        count += 1
    return count


def _reference_zeros(q, tolerance):
    """One scalar Sturm bisection per eigenvalue, then the +-pairing:
    (zeros, brackets, Sturm evaluations), zeros and brackets descending."""
    n = q.order
    radius = max((2.0 * b for b in q.b), default=0.0)
    pad = 64.0 * math.ulp(max(radius, 1.0))
    asc, brackets, steps = [], [], 0
    for index in range(1, n + 1):
        lo, hi = -radius - pad, radius + pad
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            steps += 1
            if _reference_count(q.b2f, mid) >= index:
                hi = mid
            else:
                lo = mid
        asc.append(0.5 * (lo + hi))
        brackets.append((lo, hi))
    sym = list(asc)
    for i in range(n // 2):
        mag = 0.5 * (abs(asc[i]) + abs(asc[n - 1 - i]))
        sym[i], sym[n - 1 - i] = -mag, mag
    if n % 2:
        sym[n // 2] = 0.0
    return tuple(reversed(sym)), tuple(reversed(brackets)), steps


def _assert_matches_reference(q, tolerance):
    result = jacobi_zeros(q, tolerance)
    zeros, brackets, steps = _reference_zeros(q, tolerance)
    assert result.brackets == brackets
    assert result.zeros == zeros
    assert result.bisection_steps == steps
    return result


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_brackets_bit_identical_to_scalar_bisection_through_order_64(spec):
    for n in range(1, 65):
        _assert_matches_reference(build_truncated(spec, n), 1e-11)


def test_brackets_bit_identical_at_order_400():
    result = _assert_matches_reference(
        build_truncated(SequenceSpec("su11", j=Fraction(3, 2)), 400), 1e-11)
    assert result.bisection_steps == 39 * 400


def test_lanes_stop_at_floating_point_resolution(canonical):
    # below every zero's ulp, each lane ends where the midpoint no longer
    # falls strictly inside its bracket
    q = build_truncated(canonical, 12)
    done = []
    worker = threading.Thread(target=lambda: done.append(jacobi_zeros(q, 1e-300)),
                              daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert done, "bisection did not stop at floating-point resolution"
    assert done[0].brackets == _reference_zeros(q, 1e-300)[1]
    for lo, hi in done[0].brackets:
        assert hi - lo > 1e-300 and 0.5 * (lo + hi) in (lo, hi)


def test_symmetric_enclosure_takes_the_zero_pivot(su11_j1):
    for n in range(2, 13):
        q = build_truncated(su11_j1, n)
        lo0, hi0 = jacobi_zeros(q).enclosure
        assert lo0 == -hi0 and 0.5 * (lo0 + hi0) == 0.0  # the first midpoint
        # the first pivot at sigma = 0 is exactly zero and counts as a crossing
        # from below, so an odd order's middle zero 0 counts as below 0
        with pytest.raises(ZeroDivisionError):
            _reference_count(q.b2f, 0.0, tiny=None)
        assert sturm_count(q, 0.0) == _reference_count(q.b2f, 0.0) == (n + 1) // 2


def test_brackets_contain_lapack_eigenvalues_at_order_1000():
    import numpy as np
    from scipy.linalg import eigvalsh_tridiagonal
    tol = 1e-11
    q = build_truncated(SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2),
                                     a3=Fraction(1, 4)), 1000)
    result = jacobi_zeros(q, tol)
    oracle = eigvalsh_tridiagonal(np.zeros(q.order), np.array(q.b))[::-1]
    for e, (lo, hi) in zip(oracle, result.brackets):
        assert lo - tol <= e <= hi + tol
    _, brackets, steps = _reference_zeros(q, tol)
    assert result.brackets == brackets and result.bisection_steps == steps

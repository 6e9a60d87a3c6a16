import math
import random
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest

from nlcpoly import SequenceSpec, cm_sequence_test, sqrt_deviation_scaled, x_float, x_value
from nlcpoly.sequences import ParameterDomainError


# -- closed forms ------------------------------------------------------------

def test_gamma_quotient_substitution():
    assert x_value(SequenceSpec("gamma_quotient", a=2, b=1, c=1), 1) == 1  # (1)(2)/((2)(1))
    assert x_value(SequenceSpec("gamma_quotient", a=3, b=2, c=1), 2) == Fraction(2 * 5, 4 * 3)


def test_gamma_quotient_full_cancellation():
    spec = SequenceSpec("gamma_quotient", a=Fraction(3, 2), b=Fraction(3, 2), c=Fraction(3, 2))
    for n in (1, 2, 7):
        assert x_value(spec, n) == 1


def test_gamma_quotient_ultraspherical_parameters():
    nu = Fraction(3, 2)
    x1 = x_value(SequenceSpec("gamma_quotient", a=nu + 1, b=nu, c=1), 1)
    assert x1 == 2 * nu / (nu * (nu + 1))


def test_q_quotient_limit_one():
    val = x_value(SequenceSpec("q_gamma_quotient", A=0.125, B=0.25, C=0.5, q=0.5), 60)
    assert val == pytest.approx(1.0, abs=1e-15)


def test_q_quotient_exact_value():
    # s = q^(n-1) = 1 at n = 1; AB/C = 1/16
    val = x_value(SequenceSpec("q_gamma_quotient", A=Fraction(1, 8), B=Fraction(1, 4),
                               C=Fraction(1, 2), q=Fraction(1, 2)), 1)
    expected = (1 - Fraction(1, 2)) * (1 - Fraction(1, 16)) \
        / ((1 - Fraction(1, 8)) * (1 - Fraction(1, 4)))
    assert val == expected


def test_q_quotient_equal_parameters_constant():
    half = Fraction(1, 2)
    spec = SequenceSpec("q_gamma_quotient", A=half, B=half, C=half, q=half)
    for n in (1, 2, 5):
        assert x_value(spec, n) == 1


def test_grinshpan_s3_substitution():
    assert x_value(SequenceSpec("grinshpan_ismail_s3", a1=1, a2=0, a3=0), 1) == 1
    assert x_value(SequenceSpec("grinshpan_ismail_s3", a1=1, a2=1, a3=0), 2) \
        == Fraction(2 * 4 * 3 * 3, 3 * 3 * 2 * 4)
    spec = SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4))
    direct = (3 * (3 + Fraction(3, 2)) * (3 + Fraction(5, 4)) * (3 + Fraction(3, 4))) \
        / ((3 + 1) * (3 + Fraction(1, 2)) * (3 + Fraction(1, 4)) * (3 + Fraction(7, 4)))
    assert x_value(spec, 3) == direct


def test_grinshpan_ordering_enforced():
    with pytest.raises(ParameterDomainError):
        x_value(SequenceSpec("grinshpan_ismail_s3", a1=0, a2=1, a3=0), 1)


# -- the F_3 gamma product ------------------------------------------------------

def _f3(x, a1, a2, a3):
    # F_3(x): Gamma at x plus the even-size subset sums of (a1, a2, a3) over
    # Gamma at x plus the odd-size ones
    return mpmath.gammaprod([x, x + a1 + a2, x + a1 + a3, x + a2 + a3],
                            [x + a1, x + a2, x + a3, x + a1 + a2 + a3])


def _from_shifts(shifts):
    # ascending coefficients of prod (n + t) over the shifts t
    coeffs = [Fraction(1)]
    for t in shifts:
        coeffs = [t * c + d for c, d in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_fs_term_counts_match_power_of_two(s):
    # F_s(n + 1) / F_s(n) is the rational function of n with a factor n + t
    # for each even-size subset sum t of (a_1, ..., a_s) on top and each
    # odd-size one below: 2^(s-1) factors each
    a = [Fraction(1, k + 2) for k in range(s)]
    even, odd = ([sum(c) for k in range(p, s + 1, 2) for c in combinations(a, k)] for p in (0, 1))
    assert len(even) == len(odd) == 2 ** (s - 1)
    spec = SequenceSpec("rational", num=_from_shifts(even), den=_from_shifts(odd))
    num, den = spec.poly_pair()
    assert len(num) == len(den) == 2 ** (s - 1) + 1
    with mpmath.workdps(30):
        for n in range(1, 11):
            direct = mpmath.gammaprod([n + 1 + t for t in even] + [n + t for t in odd],
                                      [n + 1 + t for t in odd] + [n + t for t in even])
            assert x_float(spec, n) == pytest.approx(float(direct), rel=1e-14), n


def test_fs_subset_sums_symmetric_total():
    # the even- and odd-size subset sums have one total, so the n^3
    # coefficients of the s = 3 closed form agree and x_n = 1 + O(1/n^2)
    a1, a2, a3 = Fraction(1), Fraction(1, 2), Fraction(1, 3)
    num, den = SequenceSpec("grinshpan_ismail_s3", a1=a1, a2=a2, a3=a3).poly_pair()
    assert num[-1] == den[-1]
    assert num[-2] / num[-1] == den[-2] / den[-1] == 2 * (a1 + a2 + a3)


def test_fs_quotient_matches_closed_form_at_a0_one():
    # x_n = F_3(n + a0) / F_3(n + a0 - 1) with the association choice a0 = 1
    spec = SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4))
    with mpmath.workdps(30):
        for n in range(1, 31):
            direct = float(_f3(n + 1, 1, 0.5, 0.25) / _f3(n, 1, 0.5, 0.25))
            assert direct == pytest.approx(x_float(spec, n), rel=1e-14)


def test_fs_quotient_degenerate_parameters():
    spec = SequenceSpec("grinshpan_ismail_s3", a1=0, a2=0, a3=0)
    with mpmath.workdps(30):
        for n in range(1, 11):
            direct = float(_f3(n + 1, 0, 0, 0) / _f3(n, 0, 0, 0))
            assert direct == pytest.approx(x_float(spec, n), rel=1e-13)


def test_fs_quotient_association_shift_differs():
    # a0 = 2 gives F_3(n + 2) / F_3(n + 1), the closed form shifted by one
    spec = SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4))
    with mpmath.workdps(30):
        for n in range(1, 11):
            shifted = float(_f3(n + 2, 1, 0.5, 0.25) / _f3(n + 1, 1, 0.5, 0.25))
            assert shifted == pytest.approx(x_float(spec, n + 1), rel=1e-14)
            assert abs(shifted - x_float(spec, n)) > 1e-6 * shifted


def test_fs_quotient_samples_are_cm():
    rng = random.Random(31)
    with mpmath.workdps(30):
        for _ in range(10):
            a3 = rng.uniform(0.0, 0.5)
            a2 = a3 + rng.uniform(0.0, 0.5)
            a1 = a2 + rng.uniform(0.0, 0.5)
            base = _f3(1, a1, a2, a3)
            samples = [float(_f3(n + 1, a1, a2, a3) / base) for n in range(40)]
            rep = cm_sequence_test(lambda n: samples[n], 30, 8)
            assert rep.passed, (a1, a2, a3, rep.first_failure)


# -- q -> 1 consistency ----------------------------------------------------------

def test_q_quotient_approaches_gamma_quotient():
    a, b, c = 2.5, 1.5, 1.0
    gamma = SequenceSpec("gamma_quotient", a=a, b=b, c=c)
    for n in range(1, 11):
        gaps = []
        for q in (0.9, 0.99, 0.999):
            qv = x_value(SequenceSpec("q_gamma_quotient", A=q ** a, B=q ** b, C=q ** c, q=q), n)
            gv = float(x_value(gamma, n))
            gaps.append(abs(float(qv) - gv))
        assert gaps[0] > gaps[1] > gaps[2]


# -- partial products -------------------------------------------------------------

def test_partial_product_matches_gamma_quotient_g():
    # g(n) = Gamma(a) Gamma(b) Gamma(n + c) Gamma(n + a + b - c)
    #        / (Gamma(c) Gamma(a + b - c) Gamma(n + a) Gamma(n + b))
    a, b, c = 3.0, 2.0, 1.0
    spec = SequenceSpec("gamma_quotient", a=a, b=b, c=c)
    product = 1.0
    with mpmath.workdps(30):
        for n in range(1, 51):
            product *= float(x_value(spec, n))
            g = mpmath.gammaprod([a, b, n + c, n + a + b - c], [c, a + b - c, n + a, n + b])
            assert product == pytest.approx(float(g), rel=1e-12)


# -- tail property -----------------------------------------------------------------

def test_sqrt_deviation_scan_bounded_and_attained_early():
    ns = np.arange(1, 100001)
    vals = sqrt_deviation_scaled(1, Fraction(1, 2), Fraction(1, 4), ns)
    assert np.all(np.isfinite(vals))
    peak = float(vals.max())
    assert peak < 1.0
    # doubling the range does not move the supremum
    ns2 = np.arange(1, 200001)
    vals2 = sqrt_deviation_scaled(1, Fraction(1, 2), Fraction(1, 4), ns2)
    assert float(vals2.max()) == pytest.approx(peak, rel=1e-12)


def test_sqrt_deviation_scalar_matches_direct_math():
    a = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    spec = SequenceSpec("grinshpan_ismail_s3", a1=a[0], a2=a[1], a3=a[2])
    for n in (1, 5, 50):
        x = float(x_value(spec, n))
        assert sqrt_deviation_scaled(*a, n) == pytest.approx(
            n * n * abs(math.sqrt(x) - 1.0), rel=1e-9)
    # a numpy integer parameter is exact, as a Python int is
    assert sqrt_deviation_scaled(np.int64(1), *a[1:], 5) == sqrt_deviation_scaled(*a, 5)

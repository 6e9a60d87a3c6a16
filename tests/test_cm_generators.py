import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nlcpoly import (
    SequenceSpec, cm_sequence_test, fs_quotient, fs_quotient_consistency, fs_subset_sums,
    sqrt_deviation_scaled, x_value,
)
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


# -- F_s machinery -------------------------------------------------------------

@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_fs_term_counts_match_power_of_two(s):
    a = [Fraction(1, k + 2) for k in range(s)]
    even_sums, odd_sums = fs_subset_sums(s, a)
    assert len(even_sums) == 2 ** (s - 1)
    assert len(odd_sums) == 2 ** (s - 1)


def test_fs_subset_sums_symmetric_total():
    # total argument sums agree between numerator and denominator sides
    a = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    even_sums, odd_sums = fs_subset_sums(3, a)
    assert sum(even_sums) == sum(odd_sums)


def test_fs_quotient_matches_closed_form_at_a0_one():
    report = fs_quotient_consistency(1, 1, Fraction(1, 2), Fraction(1, 4), 30)
    assert report.max_rel_deviation <= 1e-12
    assert report.closed_form_is_a0_one


def test_fs_quotient_degenerate_parameters():
    report = fs_quotient_consistency(1, 0, 0, 0, 10)
    assert report.max_rel_deviation <= 1e-13


def test_fs_quotient_association_shift_differs():
    # a0 = 2 defines a shifted sequence; the report is informational
    report = fs_quotient_consistency(2, 1, Fraction(1, 2), Fraction(1, 4), 10)
    assert report.max_rel_deviation > 1e-6
    assert not report.closed_form_is_a0_one
    direct = fs_quotient(3, (1.0, 0.5, 0.25), 2.0, 1)
    closed_shifted = float(x_value(SequenceSpec(
        "grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4)), 2))
    assert direct == pytest.approx(closed_shifted, rel=1e-12)


def test_fs_quotient_samples_are_cm():
    from nlcpoly import log_fs
    rng = random.Random(31)
    for _ in range(10):
        a3 = rng.uniform(0.0, 0.5)
        a2 = a3 + rng.uniform(0.0, 0.5)
        a1 = a2 + rng.uniform(0.0, 0.5)
        base = log_fs(3, (a1, a2, a3), 1.0)
        samples = [math.exp(log_fs(3, (a1, a2, a3), n + 1.0) - base) for n in range(40)]
        # tolerance reflects log-gamma noise amplified by eighth differences
        rep = cm_sequence_test(lambda n: samples[n], 30, 8, tolerance=1e-11)
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
    from nlcpoly import gamma_quotient_g
    a, b, c = 3.0, 2.0, 1.0
    spec = SequenceSpec("gamma_quotient", a=a, b=b, c=c)
    product = 1.0
    for n in range(1, 51):
        product *= float(x_value(spec, n))
        assert product == pytest.approx(gamma_quotient_g(n, a, b, c), rel=1e-12)


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

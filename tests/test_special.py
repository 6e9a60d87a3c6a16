import math
import random
from fractions import Fraction

import mpmath
import pytest

from nlcpoly import (
    DomainError, QParams, bessel_k, cm_sequence_test, gamma, gamma_quotient_g, log_gamma, pochhammer, q_gamma,
    q_gamma_quotient_h, q_pochhammer, exp_sinh,
)


# -- gamma ---------------------------------------------------------------------

def test_gamma_classical_values():
    assert gamma(5) == pytest.approx(24.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_against_high_precision():
    with mpmath.workdps(40):
        ref = float(mpmath.gamma("7.5"))
    assert gamma(7.5) == pytest.approx(ref, rel=1e-13)


def test_gamma_accuracy_sweep():
    rng = random.Random(11)
    with mpmath.workdps(40):
        for _ in range(60):
            x = rng.uniform(1e-3, 169.0)
            assert gamma(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-13)


def test_gamma_domain_error():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.0)


def test_log_gamma_large_argument():
    assert log_gamma(1e5) == pytest.approx(float(mpmath.loggamma(1e5)), rel=1e-13)


def test_pochhammer_exact():
    assert pochhammer(2, 3) == 24
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(0.5, 2) == pytest.approx(0.75)


# -- q-gamma ---------------------------------------------------------------------

def test_q_gamma_initial_values():
    for q in (0.1, 0.5, 0.9):
        assert q_gamma(1.0, q) == pytest.approx(1.0, rel=1e-13)
        assert q_gamma(2.0, q) == pytest.approx(1.0, rel=1e-13)


def test_q_gamma_three_halves_value():
    # Gamma_q(3) = (1 - q^2)/(1 - q) = 1 + q
    assert q_gamma(3.0, 0.5) == pytest.approx(1.5, rel=1e-13)


def test_q_gamma_functional_equation_random():
    rng = random.Random(3)
    for _ in range(100):
        q = rng.uniform(0.05, 0.95)
        x = rng.uniform(0.1, 8.0)
        lhs = q_gamma(x + 1.0, q)
        rhs = (1.0 - q ** x) / (1.0 - q) * q_gamma(x, q)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_q_gamma_functional_equation_q_near_one():
    for q in (0.99, 0.999):
        for x in (0.7, 2.3, 5.1):
            lhs = q_gamma(x + 1.0, q)
            rhs = (1.0 - q ** x) / (1.0 - q) * q_gamma(x, q)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_q_gamma_tends_to_gamma():
    for x in (1.5, 2.5, 3.7):
        gaps = [abs(q_gamma(x, q) - gamma(x)) for q in (0.9, 0.99, 0.999)]
        assert gaps[0] > gaps[1] > gaps[2]


def test_q_gamma_against_q_pochhammer_oracle():
    # Gamma_q(x) = (q;q)_inf / (q^x;q)_inf * (1-q)^(1-x), truncated products
    q, x = 0.4, 2.7
    num = q_pochhammer(q, q, 200)
    den = q_pochhammer(q ** x, q, 200)
    assert q_gamma(x, q) == pytest.approx((1 - q) ** (1 - x) * num / den, rel=1e-13)


def test_q_gamma_domain_errors():
    with pytest.raises(DomainError):
        q_gamma(1.0, 1.5)
    with pytest.raises(DomainError):
        q_gamma(-1.0, 0.5)


def test_qparams_admissibility():
    p = QParams(q=0.5, a=2, b=1.5, c=1)
    assert p.A == pytest.approx(0.25)
    with pytest.raises(DomainError):
        QParams(q=0.5, a=1, b=1, c=2)


# -- Bessel ------------------------------------------------------------------------

def test_bessel_k_half_order_closed_form():
    # both branches (Temme's series below x = 2, Steed's fraction above) and
    # the order reduction K_{-1/2} = K_{1/2}
    for x in (1e-12, 1e-3, 0.5, 1.0, 1.999, 2.0, 3.0, 10.0, 600.0):
        ref = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(ref, rel=1e-13)
        assert bessel_k(-0.5, x) == bessel_k(0.5, x)


def test_bessel_accuracy_against_mpmath():
    rng = random.Random(5)
    with mpmath.workdps(40):
        for _ in range(40):
            nu = rng.uniform(-20.0, 20.0)
            x = rng.uniform(1e-2, 650.0)
            assert bessel_k(nu, x) == pytest.approx(float(mpmath.besselk(nu, x)), rel=1e-12)


def test_bessel_k_small_argument_and_special_orders_against_mpmath():
    # half-integer, integer, near-integer (gam1 without cancellation),
    # negative and large orders, on a log grid of x in [1e-12, 1e-2] and
    # across the x = 2 switch between the two algorithms
    orders = (0.0, 1e-9, 0.25, 0.5, 0.5 + 1e-7, 1.0, 1.5, 2.0, 3.0 - 1e-9, 3.5,
              -1.0, -2.5, -0.3, 19.5, 20.0, 20.3)
    xs = [10.0 ** e for e in range(-12, -1)] + [0.3, 1.0, 1.999999, 2.0, 2.000001, 7.0]
    with mpmath.workdps(40):
        for nu in orders:
            for x in xs:
                ref = float(mpmath.besselk(nu, x))
                if math.isinf(ref):
                    continue  # beyond the double range: see the overflow test
                assert bessel_k(nu, x) == pytest.approx(ref, rel=1e-12), (nu, x)


def test_bessel_k_underflow_and_overflow():
    assert bessel_k(1.0, 800.0) == 0.0       # e^-x underflows
    assert bessel_k(3.5, 1e4) == 0.0
    assert bessel_k(1.0, math.inf) == 0.0
    for nu, x in ((200.0, 1e-10), (40.0, 1e-12), (3.0, 1e-300)):
        assert bessel_k(nu, x) == math.inf   # inf, never nan
    assert math.isfinite(bessel_k(0.5, 1e-300))


def test_bessel_wronskian_identity():
    # I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x, with I from mpmath
    rng = random.Random(9)
    for _ in range(30):
        nu = rng.uniform(-5.0, 5.0)
        x = rng.uniform(0.1, 30.0)
        i_nu, i_nu1 = float(mpmath.besseli(nu, x)), float(mpmath.besseli(nu + 1, x))
        val = i_nu * bessel_k(nu + 1, x) + i_nu1 * bessel_k(nu, x)
        assert val == pytest.approx(1.0 / x, rel=1e-11)


def test_bessel_domain_errors():
    for x in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            bessel_k(1.0, x)


def test_bessel_k_moment_integral_closed_form():
    # integral_0^inf K_{2 nu}(t) t^(2 mu - 1) dt = 2^(2mu-2) Gamma(mu+nu) Gamma(mu-nu)
    mu, nu = 1.0, 0.25
    res = exp_sinh(lambda t: bessel_k(2 * nu, t) * t ** (2 * mu - 1), 1e-11)
    assert res.converged
    assert res.value == pytest.approx(gamma(1.25) * gamma(0.75), rel=1e-10)


# -- complete monotonicity ------------------------------------------------------------

def test_cm_uniform_density_moments_pass():
    rep = cm_sequence_test(lambda n: 1.0 / (n + 1), 40, 8)
    assert rep.passed
    assert rep.min_signed_difference >= 0


def test_cm_reciprocal_canonical_with_patched_head():
    a = lambda n: 2.0 if n == 0 else 1.0 / n
    rep = cm_sequence_test(a, 40, 8, n_min=1)
    assert rep.passed


def test_cm_linear_sequence_fails_at_first_difference():
    rep = cm_sequence_test(lambda n: float(n), 20, 4)
    assert not rep.passed
    assert rep.first_failure is not None
    n, k = rep.first_failure
    assert k == 1


def test_cm_report_fields():
    rep = cm_sequence_test(lambda n: 0.5 ** n, 30, 6)
    assert rep.passed and rep.tested_order == 6 and rep.tolerance > 0


# -- gamma quotient --------------------------------------------------------------------

def test_gamma_quotient_normalization():
    assert gamma_quotient_g(0.0, 2.5, 1.5, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_quotient_first_value():
    nu = 1.5
    a, b, c = nu + 1, nu, 1.0
    expected = c * (a + b - c) / (a * b)
    assert gamma_quotient_g(1.0, a, b, c) == pytest.approx(expected, rel=1e-13)


def test_gamma_quotient_telescopes_partial_products():
    from nlcpoly import SequenceSpec, x_value
    a, b, c = Fraction(5, 2), Fraction(3, 2), 1
    spec = SequenceSpec("gamma_quotient", a=a, b=b, c=c)
    product = 1.0
    for n in range(1, 51):
        product *= float(x_value(spec, n))
        assert gamma_quotient_g(n, float(a), float(b), float(c)) == pytest.approx(
            product, rel=1e-12)


def test_gamma_quotient_pole_error():
    with pytest.raises(DomainError):
        gamma_quotient_g(0.0, 1.0, 2.0, 0.0)  # Gamma(c) at c = 0


def test_gamma_quotient_samples_are_cm_sequences():
    rng = random.Random(21)
    for _ in range(20):
        c = rng.uniform(0.1, 2.0)
        a = c + rng.uniform(0.0, 3.0)
        b = c + rng.uniform(0.0, 3.0)
        rep = cm_sequence_test(lambda n: gamma_quotient_g(float(n), a, b, c), 30, 8)
        assert rep.passed, (a, b, c, rep.first_failure)


def test_q_gamma_quotient_h_matches_x_products():
    from nlcpoly import SequenceSpec, x_value
    q, a, b, c = 0.5, 3.0, 2.0, 1.0
    spec = SequenceSpec("q_gamma_quotient", A=q ** a, B=q ** b, C=q ** c, q=q)
    product = 1.0
    for n in range(1, 21):
        product *= float(x_value(spec, n))
        assert q_gamma_quotient_h(float(n), a, b, c, q) == pytest.approx(
            product, rel=1e-11)


def test_q_gamma_against_mpmath_infinite_product():
    with mpmath.workdps(40):
        for q in (0.3, 0.77, 0.95):
            for x in (0.6, 1.9, 3.4, 7.2):
                ref = float((1 - q) ** (1 - x) * mpmath.qp(q, q) / mpmath.qp(q ** x, q))
                assert q_gamma(x, q) == pytest.approx(ref, rel=1e-13)


def test_q_gamma_large_argument_against_mpmath():
    with mpmath.workdps(40):
        for q in (0.4, 0.9):
            for x in (15.0, 40.0):
                ref = float((1 - q) ** (1 - x) * mpmath.qp(q, q) / mpmath.qp(q ** x, q))
                assert q_gamma(x, q) == pytest.approx(ref, rel=1e-12)

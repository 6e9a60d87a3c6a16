import math
import random
from fractions import Fraction

import mpmath
import pytest

from nlcpoly import (
    DomainError, MomentSequence, SequenceSpec, bessel_k, cm_sequence_test, log_gamma, exp_sinh, x_float,
    x_floats, x_value,
)
from nlcpoly.sequences import ParameterDomainError


# -- log-gamma -------------------------------------------------------------------

def test_gamma_classical_values():
    assert log_gamma(1.0) == 0.0 and log_gamma(2.0) == 0.0
    assert log_gamma(5) == pytest.approx(math.log(24.0), rel=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_gamma_against_high_precision():
    with mpmath.workdps(40):
        ref = float(mpmath.loggamma("7.5"))
    assert log_gamma(7.5) == pytest.approx(ref, rel=1e-14)


def test_gamma_accuracy_sweep():
    rng = random.Random(11)
    with mpmath.workdps(40):
        for _ in range(60):
            x = rng.uniform(1e-3, 169.0)
            ref = float(mpmath.loggamma(x))
            assert abs(log_gamma(x) - ref) <= 1e-15 * max(1.0, abs(ref)), x

def test_gamma_domain_error():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.0)


def test_log_gamma_large_argument():
    assert log_gamma(1e5) == pytest.approx(float(mpmath.loggamma(1e5)), rel=1e-13)


def test_pochhammer_exact():
    # exact partial products are Pochhammer quotients: su11 with j = 1 has
    # x_n! = n! / (2)_n, and bessel_k_exp with mu = 1, nu = 0 has
    # x_n! = (1)_n^2 / (2^n (3/2)_n)
    def rf(a, n):
        return math.prod(a + k for k in range(n))

    su11 = SequenceSpec("su11", j=1)
    facts = [MomentSequence(su11).even_moment(n) for n in range(9)]
    assert facts[3] == Fraction(6, 24)  # (2)_3 = 24
    assert facts == [Fraction(math.factorial(n), rf(2, n)) for n in range(9)]
    bessel = SequenceSpec("bessel_k_exp", mu=1, nu=0)
    facts = [MomentSequence(bessel).even_moment(n) for n in range(9)]
    assert facts[3] == Fraction(36, 105)  # 1^2 2^2 3^2 / (2^3 (3/2)_3), (3/2)_3 = 105/8
    assert facts == [rf(1, n) ** 2 / (2 ** n * rf(Fraction(3, 2), n)) for n in range(9)]


# -- q-gamma ---------------------------------------------------------------------

def _h(n, a, b, c, q):
    # h(n) = Gamma_q(a) Gamma_q(b) Gamma_q(n + c) Gamma_q(n + a + b - c)
    #        / (Gamma_q(c) Gamma_q(a + b - c) Gamma_q(n + a) Gamma_q(n + b)),
    # with h(0) = 1 and h(n) = x_1 ... x_n for the q_gamma_quotient family
    num = [mpmath.qgamma(t, q) for t in (a, b, n + c, n + a + b - c)]
    den = [mpmath.qgamma(t, q) for t in (c, a + b - c, n + a, n + b)]
    return mpmath.fprod(num) / mpmath.fprod(den)


def _q_spec(a, b, c, q):
    return SequenceSpec("q_gamma_quotient", A=q ** a, B=q ** b, C=q ** c, q=q)


def _q_pochhammer_product(a, b, c, q, n):
    # x_1 ... x_n = (q^c; q)_n (q^(a+b-c); q)_n / ((q^a; q)_n (q^b; q)_n)
    return (mpmath.qp(q ** c, q, n) * mpmath.qp(q ** (a + b - c), q, n)
            / (mpmath.qp(q ** a, q, n) * mpmath.qp(q ** b, q, n)))


def test_q_gamma_initial_values():
    a, b, c = 3.0, 2.0, 1.0
    with mpmath.workdps(30):
        for q in (0.1, 0.5, 0.9):
            spec = _q_spec(a, b, c, q)
            assert x_float(spec, 1) == pytest.approx(float(_h(1, a, b, c, q)), rel=1e-13)
            assert x_float(spec, 1) * x_float(spec, 2) == pytest.approx(
                float(_h(2, a, b, c, q)), rel=1e-13)


def test_q_gamma_three_halves_value():
    # a, b, c = 3, 2, 1: x_1 = Gamma_q(5) / Gamma_q(4)^2 with Gamma_q(k + 1) the
    # q-factorial [k]_q!, i.e. (1 + q^2) / (1 + q + q^2); 5/7 at q = 1/2
    q = Fraction(1, 2)
    spec = SequenceSpec("q_gamma_quotient", A=q ** 3, B=q ** 2, C=q, q=q)
    assert x_value(spec, 1) == (1 + q ** 2) / (1 + q + q ** 2) == Fraction(5, 7)


def test_q_gamma_functional_equation_random():
    # Gamma_q(x + 1) = (1 - q^x) / (1 - q) Gamma_q(x) makes x_n = h(n) / h(n - 1)
    rng = random.Random(3)
    with mpmath.workdps(30):
        for _ in range(20):
            q = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.1, 2.0)
            a = c + rng.uniform(0.0, 3.0)
            b = c + rng.uniform(0.0, 3.0)
            n = rng.randint(1, 8)
            ratio = float(_h(n, a, b, c, q) / _h(n - 1, a, b, c, q))
            assert x_float(_q_spec(a, b, c, q), n) == pytest.approx(ratio, rel=1e-12), (q, a, b, c, n)


def test_q_gamma_functional_equation_q_near_one():
    # mpmath.qgamma does not converge this close to q = 1, so the reference is
    # the functional equation itself: each Gamma_q(x + 1) / Gamma_q(x) in
    # h(n) / h(n - 1) is (1 - q^x) / (1 - q), and the (1 - q) cancel
    a, b, c = 5.1, 2.3, 0.7
    with mpmath.workdps(40):
        for q in (0.99, 0.999):
            spec = _q_spec(a, b, c, q)
            for n in (1, 2, 5):
                t = [1 - mpmath.mpf(q) ** (n - 1 + e) for e in (c, a + b - c, a, b)]
                ratio = float(t[0] * t[1] / (t[2] * t[3]))
                assert x_float(spec, n) == pytest.approx(ratio, rel=1e-12), (q, n)


def test_q_gamma_tends_to_gamma():
    # the partial products h(n) tend to the gamma quotient's g(n) as q -> 1
    a, b, c = 3.7, 2.5, 1.5
    g = math.prod(x_floats(SequenceSpec("gamma_quotient", a=a, b=b, c=c), 10))
    gaps = [abs(math.prod(x_floats(_q_spec(a, b, c, q), 10)) - g) for q in (0.9, 0.99, 0.999)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3 * g


def test_q_gamma_domain_errors():
    with pytest.raises(ParameterDomainError, match="q must lie in"):
        SequenceSpec("q_gamma_quotient", A=0.5, B=0.5, C=0.5, q=1.5)
    with pytest.raises(ParameterDomainError, match="A must lie in"):
        SequenceSpec("q_gamma_quotient", A=-0.5, B=0.25, C=0.5, q=0.5)


def test_q_gamma_against_mpmath_infinite_product():
    a, b, c = 1.9, 3.4, 0.6
    with mpmath.workdps(40):
        for q in (0.3, 0.77, 0.95):
            xs = x_floats(_q_spec(a, b, c, q), 10)
            for n in range(1, 11):
                ref = float(_q_pochhammer_product(a, b, c, q, n))
                assert math.prod(xs[:n]) == pytest.approx(ref, rel=1e-13), (q, n)


def test_q_gamma_large_argument_against_mpmath():
    a, b, c = 7.2, 3.4, 1.9
    with mpmath.workdps(40):
        for q in (0.4, 0.9):
            xs = x_floats(_q_spec(a, b, c, q), 40)
            for n in (15, 40):
                ref = float(_q_pochhammer_product(a, b, c, q, n))
                assert math.prod(xs[:n]) == pytest.approx(ref, rel=1e-12), (q, n)


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


def test_bessel_k_returns_inf_at_the_first_infinite_order():
    # K_m(x) increases with m: once the upward recurrence reaches inf, every
    # later order is inf, so no step per order is taken past it
    assert bessel_k(1e300, 1.0) == math.inf
    assert bessel_k(1e300, 700.0) == math.inf


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
    assert res.value == pytest.approx(math.gamma(1.25) * math.gamma(0.75), rel=1e-10)


# -- complete monotonicity ------------------------------------------------------------

def test_cm_uniform_density_moments_pass():
    rep = cm_sequence_test(lambda n: 1.0 / (n + 1), 40, 8)
    assert rep.passed
    assert rep.min_signed_difference >= 0


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

def _g(n, a, b, c):
    # the normalized gamma quotient g(n), with g(0) = 1 and g(n) = x_1 ... x_n
    return float(mpmath.gammaprod([a, b, n + c, n + a + b - c], [c, a + b - c, n + a, n + b]))


def test_gamma_quotient_normalization():
    # g(0) = 1, and for a, b >= 1 the products fall to
    # Gamma(a) Gamma(b) / (Gamma(c) Gamma(a + b - c)) with a gap below
    # 2 (a - c)(b - c) / N at N, since 1 - x_n <= (a - c)(b - c) / n^2
    a, b, c = 2.5, 1.5, 1.0
    spec = SequenceSpec("gamma_quotient", a=a, b=b, c=c)
    assert MomentSequence(spec).even_moment(0) == 1
    limit = float(mpmath.gammaprod([a, b], [c, a + b - c]))
    for N in (100, 1000):
        gap = math.prod(x_floats(spec, N)) / limit - 1.0
        assert 0.0 < gap <= 2 * (a - c) * (b - c) / N, (N, gap)


def test_gamma_quotient_first_value():
    nu = Fraction(3, 2)
    a, b, c = nu + 1, nu, 1
    expected = c * (a + b - c) / (a * b)
    assert x_value(SequenceSpec("gamma_quotient", a=a, b=b, c=c), 1) == expected
    with mpmath.workdps(30):
        assert _g(1, float(a), float(b), float(c)) == pytest.approx(float(expected), rel=1e-13)


def test_gamma_quotient_telescopes_partial_products():
    from nlcpoly import SequenceSpec, x_value
    a, b, c = Fraction(5, 2), Fraction(3, 2), 1
    spec = SequenceSpec("gamma_quotient", a=a, b=b, c=c)
    product = 1.0
    with mpmath.workdps(30):
        for n in range(1, 51):
            product *= float(x_value(spec, n))
            assert _g(n, float(a), float(b), float(c)) == pytest.approx(product, rel=1e-12)


def test_gamma_quotient_pole_error():
    # Gamma(c) has a pole at c = 0, where x_1 = c (a + b - c) / (a b) vanishes
    with pytest.raises(ParameterDomainError, match="not certified positive"):
        SequenceSpec("gamma_quotient", a=1, b=2, c=0)


def test_gamma_quotient_samples_are_cm_sequences():
    rng = random.Random(21)
    with mpmath.workdps(30):
        for _ in range(20):
            c = rng.uniform(0.1, 2.0)
            a = c + rng.uniform(0.0, 3.0)
            b = c + rng.uniform(0.0, 3.0)
            rep = cm_sequence_test(lambda n: _g(n, a, b, c), 30, 8)
            assert rep.passed, (a, b, c, rep.first_failure)


def test_q_gamma_quotient_h_matches_x_products():
    q, a, b, c = 0.5, 3.0, 2.0, 1.0
    spec = _q_spec(a, b, c, q)
    product = 1.0
    with mpmath.workdps(30):
        for n in range(1, 21):
            product *= float(x_value(spec, n))
            assert float(_h(n, a, b, c, q)) == pytest.approx(product, rel=1e-13)

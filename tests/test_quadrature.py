import math
from fractions import Fraction

import pytest

from nlcpoly import exp_sinh, get_measure, tanh_sinh
from nlcpoly.measures import moment_integral


def test_sine_integral():
    res = tanh_sinh(math.sin, 0.0, math.pi, 1e-13)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-13)
    assert res.error_estimate <= 1e-13 * max(1.0, abs(res.value))


def test_orientation_and_empty_interval():
    assert tanh_sinh(math.sin, 1.0, 1.0).value == 0.0
    fwd = tanh_sinh(math.sin, 0.0, 1.0, 1e-12).value
    rev = tanh_sinh(math.sin, 1.0, 0.0, 1e-12).value
    assert rev == pytest.approx(-fwd, rel=1e-14)


def test_algebraic_endpoint_singularity_plain_form():
    # through the plain integrand the node position near 0 is limited to
    # ~sqrt(ulp) accuracy; the rule converges to that realistic tolerance
    res = tanh_sinh(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 1e-7)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-7)


def test_algebraic_endpoint_singularity_edge_form():
    res = tanh_sinh(None, 0.0, 1.0, 1e-12,
                    f_edge=lambda x, da, db: 1.0 / math.sqrt(da))
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_log_endpoint_singularity():
    res = tanh_sinh(math.log, 0.0, 1.0, 1e-12)
    assert res.converged
    assert res.value == pytest.approx(-1.0, rel=1e-12)


def test_edge_distance_integrand():
    # (1-x)^(-0.6) is only integrable through the distance form: evaluating
    # 1-x directly loses the digits that matter near the endpoint
    res = tanh_sinh(None, 0.0, 1.0, 1e-11,
                    f_edge=lambda x, da, db: db ** (-0.6))
    assert res.converged
    assert res.value == pytest.approx(2.5, rel=1e-11)  # 1/(1-0.6)


def test_gaussian_radial_mass():
    res = exp_sinh(lambda r: 2.0 * r * math.exp(-r * r), 1e-12)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_gaussian_radial_second_moment():
    res = exp_sinh(lambda r: r * r * 2.0 * r * math.exp(-r * r), 1e-12)
    assert res.value == pytest.approx(1.0, rel=1e-12)  # 1!


def test_disc_moment_antiderivative_oracle():
    # j = 1: integral_0^1 r^2 * 2r dr = 1/2
    res = tanh_sinh(lambda r: r * r * 2.0 * r, 0.0, 1.0, 1e-13)
    assert res.value == pytest.approx(0.5, rel=1e-13)


def test_half_line_polynomial_times_exponential():
    # integral r^5 e^-r dr = 120
    res = exp_sinh(lambda r: r ** 5 * math.exp(-r), 1e-12)
    assert res.value == pytest.approx(120.0, rel=1e-11)


def test_error_estimate_contract():
    for tol in (1e-8, 1e-11):
        res = tanh_sinh(lambda x: math.exp(-x * x), -1.0, 1.0, tol)
        assert res.converged
        assert res.error_estimate <= tol * max(1.0, abs(res.value))


def test_nonfinite_integrand_values_are_skipped():
    res = tanh_sinh(lambda x: 1.0 / x, 0.0, 1.0, 1e-6)
    # divergent integral: must not converge to a finite answer silently; the
    # rule runs out of its 12 levels and reports itself unconverged
    assert not res.converged and res.levels == 12


def test_tolerance_floor():
    with pytest.raises(ValueError):
        tanh_sinh(math.sin, 0.0, 1.0, 1e-16)


# -- exp-sinh tail cut by underflow ----------------------------------------------

@pytest.mark.parametrize("f", [lambda r: math.exp(-r) / r,
                               lambda r: 1.0 / (r * (1.0 + r)),
                               lambda r: r ** -0.999 * math.exp(-r)])
def test_divergent_half_line_integral_stops_at_the_cut_tail(f):
    # the terms still grow when the node x = exp(pi/2 sinh t) underflows at
    # t < 0; every level cuts the same tail, so refinement is pointless
    res = exp_sinh(f, 1e-9)
    assert not res.converged
    assert res.levels <= 2
    assert res.nodes_used < 100


def test_decaying_terms_at_the_underflow_do_not_cut():
    # r^-0.95 e^-r: the last level-0 term before the underflow is about 1e-5
    # of the total, but the terms decay double exponentially past it and the
    # part below the underflow is near 1e-14 relative
    res = exp_sinh(lambda r: r ** -0.95 * math.exp(-r), 1e-9)
    assert res.converged
    assert res.value == pytest.approx(math.gamma(0.05), rel=1e-12)


def test_growing_but_negligible_terms_at_the_underflow_do_not_cut():
    # a 1e-22 r^-0.999 e^-r part grows toward the underflow but stays below
    # 1e-18 of the total; an absolute threshold alone would call it a cut
    res = exp_sinh(lambda r: (1.0 + 1e-22 * r ** -0.999) * math.exp(-r), 1e-9)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_slowly_decaying_cut_tail_is_refined_and_stays_unconverged():
    # r^-0.99 e^-r loses about 8e-4 of its value below the underflow; its
    # terms decay there, so levels are refined, but it never reads converged
    res = exp_sinh(lambda r: r ** -0.99 * math.exp(-r), 1e-9)
    assert not res.converged


@pytest.mark.parametrize("rule", [
    lambda: exp_sinh(lambda r: 1.0 / (1.0 + r), 1e-9),
    lambda: tanh_sinh(None, 0.0, 1.0, 1e-11, f_edge=lambda x, da, db: db ** -1.0),
], ids=["exp_sinh_overflow_side", "tanh_sinh_weight_underflow"])
def test_growing_terms_where_the_range_ends_stop_after_one_level(rule):
    # dr/(1+r) and db^-1 diverge: the terms still grow where x would
    # overflow, or where the tanh-sinh weight underflows, so the side is cut
    # as on the exp-sinh underflow side
    res = rule()
    assert not res.converged
    assert res.levels == 1
    assert res.nodes_used < 100


def test_integrable_endpoint_singularity_on_half_line_converges():
    res = exp_sinh(lambda r: math.exp(-r) / math.sqrt(r), 1e-12)
    assert res.converged
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_slow_algebraic_decay_on_half_line_converges():
    # the t > 0 side ends where x overflows with terms near 1e-15 of the
    # total; that is no cut tail, and the integral still converges
    res = exp_sinh(lambda r: (1.0 + r) ** -1.05, 1e-9)
    assert res.converged
    assert res.value == pytest.approx(20.0, rel=1e-9)


def test_negligible_terms_at_the_underflow_do_not_cut():
    # bessel_k_abs, mu = 3/2, nu = 1/2, n = 0: the last term before the node
    # underflows is about 5e-298, negligible only relative to the total
    measure = get_measure("bessel_k_abs_even", mu=Fraction(3, 2), nu=Fraction(1, 2))
    res = moment_integral(measure, 0, 1e-11)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-11)

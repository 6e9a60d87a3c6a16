import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest

import nlcpoly.measures
import nlcpoly.sequences
from nlcpoly import (
    SequenceSpec, get_measure, measure_names, select_bessel_ladder_measure,
    verify_moment_problem,
)
from nlcpoly.measures import MomentRow, moment_integral
from nlcpoly.moments import MomentSequence
from nlcpoly.sequences import x_factorials, x_floats, x_limit, x_log_factorials


# -- catalog ------------------------------------------------------------------

def test_catalog_names_cover_families():
    names = measure_names()
    for expected in ("gaussian_radial", "disc_radial", "bessel_ladder_radial",
                     "ultraspherical_even", "jacobi_even", "bessel_k_exp_even",
                     "hermite_even"):
        assert expected in names


def test_unknown_measure_lists_names():
    with pytest.raises(KeyError, match="gaussian_radial"):
        get_measure("no_such_measure")


def test_total_mass_one():
    for measure in (get_measure("gaussian_radial"),
                    get_measure("disc_radial", j=Fraction(3, 2)),
                    get_measure("ultraspherical_even", nu=1),
                    get_measure("jacobi_even", alpha=1, beta=1),
                    get_measure("hermite_even")):
        res = moment_integral(measure, 0, 1e-11)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-10), measure.name


# -- moment quadrature -------------------------------------------------------------

_HALF = Fraction(1, 2)

# each catalog density, at parameters that make its weight singular where it
# can be, with the closed-form even moments of its docstring; the plain
# ladder form has int (2/pi) K_{1/2}(2r) r^(2n + 1/2) dr = n! Gamma(n + 1/2) / (2 pi)
_CLOSED_FORM_MOMENTS = {
    "gaussian_radial": ({}, lambda n: mpmath.factorial(n)),
    "disc_radial": ({"j": Fraction(3, 4)},
                    lambda n: mpmath.factorial(n) / mpmath.rf(Fraction(3, 2), n)),
    "bessel_ladder_radial": ({"j": Fraction(3, 2)},
                             lambda n: mpmath.factorial(n) * mpmath.rf(3, n)),
    "bessel_ladder_radial_plain": ({"j": Fraction(3, 4)},
                                   lambda n: mpmath.factorial(n) * mpmath.gamma(n + _HALF)
                                   / (2 * mpmath.pi)),
    "ultraspherical_even": ({"nu": Fraction(3, 10)},
                            lambda n: mpmath.rf(_HALF, n) / mpmath.rf(Fraction(13, 10), n)),
    "jacobi_even": ({"alpha": Fraction(1, 4), "beta": -_HALF},
                    lambda n: mpmath.rf(Fraction(3, 4), n) / mpmath.rf(Fraction(5, 4), n)),
    "bessel_mp_even": ({"mu": 1, "nu": Fraction(1, 4), "beta": 2},
                       lambda n: mpmath.rf(Fraction(5, 4), n) * mpmath.rf(Fraction(3, 4), n)),
    "bessel_k_exp_even": ({"mu": Fraction(17, 10), "nu": Fraction(3, 10)},
                          lambda n: mpmath.rf(2, n) * mpmath.rf(Fraction(7, 5), n)
                          / (2 ** n * mpmath.rf(Fraction(11, 5), n))),
    "bessel_k_abs_even": ({"mu": Fraction(3, 2), "nu": _HALF},
                          lambda n: mpmath.rf(2, 2 * n) * mpmath.rf(1, 2 * n)
                          / (4 ** n * mpmath.rf(2, 2 * n))),
    "hermite_even": ({}, lambda n: mpmath.rf(_HALF, n)),
}


def test_closed_form_moments_cover_the_catalog():
    assert sorted(_CLOSED_FORM_MOMENTS) == measure_names()


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_MOMENTS))
def test_moment_integral_gives_each_catalog_density_its_closed_form_moments(name):
    # exp-sinh on the half line, the edge form of tanh-sinh on [0, 1]
    params, closed = _CLOSED_FORM_MOMENTS[name]
    measure = get_measure(name, **params)
    for n in (0, 1, 4, 9):
        res = moment_integral(measure, n, 1e-11)
        assert res.converged
        assert res.value == pytest.approx(float(closed(n)), rel=1e-13), (name, n)


def test_moment_integral_without_an_edge_form_integrates_the_plain_density():
    edge = get_measure("jacobi_even", alpha=1, beta=1)
    plain = dataclasses.replace(edge, density_edge=None)
    for n in (0, 3, 8):
        res = moment_integral(plain, n, 1e-11)
        assert res.converged
        expected = mpmath.rf(Fraction(3, 2), n) / mpmath.rf(Fraction(7, 2), n)
        assert res.value == pytest.approx(float(expected), rel=1e-13), n
        assert res.value == pytest.approx(moment_integral(edge, n, 1e-11).value, rel=1e-14)


@pytest.mark.parametrize("name, params", [
    ("gaussian_radial", {}), ("disc_radial", {"j": 2}), ("hermite_even", {}),
])
def test_moment_integral_damping_divides_by_exp_log_scale(name, params):
    measure = get_measure(name, **params)
    for n in (0, 5):
        plain = moment_integral(measure, n, 1e-11).value
        damped = moment_integral(measure, n, 1e-11, log_scale=3.0)
        assert damped.converged
        assert damped.value == pytest.approx(plain * math.exp(-3.0), rel=1e-14), n


# -- moment problems ---------------------------------------------------------------

def test_gaussian_moments_match_factorials():
    report = verify_moment_problem(get_measure("gaussian_radial"),
                                   SequenceSpec("canonical"), 15, 1e-11)
    assert report.verdict
    assert report.max_abs_rel_error <= 1e-11


@pytest.mark.parametrize("j", [1, Fraction(3, 2), 2])
def test_disc_moments_match(j):
    report = verify_moment_problem(get_measure("disc_radial", j=j),
                                   SequenceSpec("su11", j=j), 15, 1e-11)
    assert report.verdict, (j, report.max_abs_rel_error)


def test_disc_moments_singular_weight():
    # j in (1/2, 1): the endpoint weight blows up; the edge-aware density
    # keeps full accuracy
    j = Fraction(3, 4)
    report = verify_moment_problem(get_measure("disc_radial", j=j),
                                   SequenceSpec("su11", j=j, strict=False), 10, 1e-10)
    assert report.verdict, report.max_abs_rel_error


def _moment_rows_by_partial_products(measure, spec, n_max, tolerance):
    """Reference: the rows as formed from the moments x_n! and the logs of
    the float view."""
    moments = MomentSequence(spec)
    log_products = list(x_log_factorials(x_floats(spec, n_max).tolist()))
    rows = []
    for n in range(n_max + 1):
        log_expected = log_products[n]
        if log_expected > 640.0:
            res = moment_integral(measure, n, tolerance, log_scale=log_expected)
            rows.append(MomentRow(n, res.value, math.inf, abs(res.value - 1.0), res.converged))
        else:
            expected = float(moments.even_moment(n))
            res = moment_integral(measure, n, tolerance)
            rel = abs(res.value - expected) / max(abs(expected), 1e-300)
            rows.append(MomentRow(n, res.value, expected, rel, res.converged))
    return tuple(rows)


@pytest.mark.parametrize("measure_name, measure_params, family, params, n_max", [
    ("disc_radial", {"j": Fraction(3, 2)}, "su11", {"j": Fraction(3, 2)}, 40),
    ("gaussian_radial", {}, "canonical", {}, 165),  # rows past n = 158 are damped
    ("bessel_k_exp_even", {"mu": 1.7, "nu": 0.3}, "bessel_k_exp", {"mu": 1.7, "nu": 0.3}, 8),
    ("jacobi_even", {"alpha": 1, "beta": 1}, "jacobi_type", {"alpha": 1, "beta": 1}, 8),
])
def test_verify_moment_problem_reads_each_x_once(monkeypatch, measure_name, measure_params,
                                                 family, params, n_max):
    measure = get_measure(measure_name, **measure_params)
    calls = []
    original = nlcpoly.sequences.x_value

    def counted(spec, n):
        calls.append(n)
        return original(spec, n)

    monkeypatch.setattr(nlcpoly.sequences, "x_value", counted)
    monkeypatch.setattr(nlcpoly.measures, "x_value", counted)
    report = verify_moment_problem(measure, SequenceSpec(family, **params), n_max)
    assert len(calls) <= n_max + 1
    monkeypatch.undo()
    expected = _moment_rows_by_partial_products(measure, SequenceSpec(family, **params),
                                                n_max, 1e-11)
    assert report.rows == expected
    assert report.verdict is True


def _counting(fn, calls):
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


@pytest.mark.parametrize("measure_name, measure_params, family, params, n_max, distinct", [
    # exp-sinh on the half line: density(r)
    ("bessel_ladder_radial", {"j": 1}, "barut_girardello", {"j": 1}, 12, 292),
    # tanh-sinh through the edge form: density_edge(x, da, db)
    ("ultraspherical_even", {"nu": Fraction(3, 10)}, "ultraspherical",
     {"nu": Fraction(3, 10)}, 12, 127),
])
def test_verify_moment_problem_evaluates_each_node_once(measure_name, measure_params, family,
                                                        params, n_max, distinct):
    built = get_measure(measure_name, **measure_params)
    density_calls, edge_calls = [], []
    edge = built.density_edge
    measure = dataclasses.replace(
        built, density=_counting(built.density, density_calls),
        density_edge=edge and _counting(edge, edge_calls))
    spec = SequenceSpec(family, **params)
    report = verify_moment_problem(measure, spec, n_max)
    calls = edge_calls if edge else density_calls
    assert (density_calls if edge else edge_calls) == []
    assert len(calls) == len(set(calls)) == distinct  # one evaluation per distinct node
    # the memo returns the density's own values: the rows match n_max + 1
    # independent quadratures bit for bit
    assert report.rows == _moment_rows_by_partial_products(built, spec, n_max, 1e-11)
    assert report.verdict is True
    # nothing is kept between calls: a second check evaluates every node again
    first = list(calls)
    assert verify_moment_problem(measure, spec, n_max) == report
    assert calls[len(first):] == first


@pytest.mark.parametrize("family, measure_name, extra", [
    ("bessel_k_abs", "bessel_k_abs_even", {}),  # n = 0 integrand t^-0.95
    ("bessel_k_exp", "bessel_k_exp_even", {}),  # t^-0.9
    ("meixner_pollaczek_bessel", "bessel_mp_even", {"beta": 1}),  # x^-0.9
])
def test_bessel_moments_converge_with_mu_close_to_nu(family, measure_name, extra):
    # mu - |nu| = 1/20: the n = 0 density is barely integrable at 0, and its
    # exp-sinh terms are still visible where the nodes underflow
    params = {"mu": Fraction(11, 20), "nu": Fraction(1, 2), **extra}
    report = verify_moment_problem(get_measure(measure_name, **params),
                                   SequenceSpec(family, **params), 6)
    assert all(row.converged for row in report.rows)
    assert report.verdict is True


@pytest.mark.parametrize("j", [1, Fraction(3, 2)])
def test_bessel_ladder_moments_match(j):
    measure, selection = select_bessel_ladder_measure(j)
    assert selection.chosen == "bessel_ladder_radial"
    report = verify_moment_problem(measure, SequenceSpec("barut_girardello", j=j),
                                   8, 1e-8)
    assert report.verdict, report.max_abs_rel_error


def test_bessel_ladder_selection_is_exclusive():
    _, selection = select_bessel_ladder_measure(1)
    assert selection.consistent
    assert selection.max_rel_error_chosen <= 1e-8
    assert selection.max_rel_error_rejected > 1e-2


def test_ultraspherical_moments_match():
    report = verify_moment_problem(get_measure("ultraspherical_even", nu=1),
                                   SequenceSpec("ultraspherical", nu=1), 12, 1e-9)
    assert report.verdict, report.max_abs_rel_error


def test_jacobi_moments_match():
    report = verify_moment_problem(get_measure("jacobi_even", alpha=1, beta=1),
                                   SequenceSpec("jacobi_type", alpha=1, beta=1),
                                   12, 1e-9)
    assert report.verdict, report.max_abs_rel_error


def test_bessel_mp_moments_match():
    mu, nu, beta = 1, Fraction(1, 4), 2
    measure = get_measure("bessel_mp_even", mu=mu, nu=nu, beta=beta)
    spec = SequenceSpec("meixner_pollaczek_bessel", mu=mu, nu=nu, beta=beta)
    report = verify_moment_problem(measure, spec, 8, 1e-8)
    assert report.verdict, report.max_abs_rel_error
    # the closed-form Pochhammer moments 4^n (mu + nu)_n (mu - nu)_n / beta^(2n)
    for n in range(5):
        closed = 4 ** n * mpmath.rf(mu + nu, n) * mpmath.rf(mu - nu, n) / beta ** (2 * n)
        assert float(closed) == pytest.approx(report.rows[n].expected, rel=1e-13)


def test_bessel_k_exp_moments_match():
    mu, nu = Fraction(3, 2), Fraction(1, 2)
    measure = get_measure("bessel_k_exp_even", mu=mu, nu=nu)
    spec = SequenceSpec("bessel_k_exp", mu=mu, nu=nu)
    report = verify_moment_problem(measure, spec, 8, 1e-8)
    assert report.verdict, report.max_abs_rel_error
    # the closed-form Pochhammer moments (mu + nu)_n (mu - nu)_n / (2^n (mu + 1/2)_n)
    # agree with the partial products
    for n in range(6):
        closed = (mpmath.rf(mu + nu, n) * mpmath.rf(mu - nu, n)
                  / (2 ** n * mpmath.rf(mu + Fraction(1, 2), n)))
        assert float(closed) == pytest.approx(report.rows[n].expected, rel=1e-14)


def test_bessel_k_abs_moments_match():
    mu, nu = Fraction(3, 2), Fraction(1, 2)
    measure = get_measure("bessel_k_abs_even", mu=mu, nu=nu)
    spec = SequenceSpec("bessel_k_abs", mu=mu, nu=nu)
    report = verify_moment_problem(measure, spec, 8, 1e-8)
    assert report.verdict, report.max_abs_rel_error
    # (mu + nu)_2n (mu - nu)_2n / (4^n (mu + 1/2)_2n)
    for n in range(6):
        closed = (mpmath.rf(mu + nu, 2 * n) * mpmath.rf(mu - nu, 2 * n)
                  / (4 ** n * mpmath.rf(mu + Fraction(1, 2), 2 * n)))
        assert float(closed) == pytest.approx(report.rows[n].expected, rel=1e-14)


def test_moment_rows_carry_relative_errors():
    report = verify_moment_problem(get_measure("gaussian_radial"),
                                   SequenceSpec("canonical"), 4, 1e-11)
    assert [row.n for row in report.rows] == [0, 1, 2, 3, 4]
    assert report.rows[3].expected == pytest.approx(6.0)


# -- resolution of the identity -------------------------------------------------------

def test_resolution_fails_for_mismatched_pair():
    report = verify_moment_problem(get_measure("disc_radial", j=1),
                                   SequenceSpec("canonical"), 4, 1e-10)
    assert report.verdict is False
    assert report.rows[1].rel_error > 0.4  # 1/2 against 1


# -- normalization series -----------------------------------------------------------------

def _normalization_terms(spec, r2, terms):
    # the terms r^(2n) / x_n! of the normalization series N(r^2), n < terms
    return [r2 ** n / f for n, f in enumerate(x_factorials(spec, x_floats(spec, terms - 1)))]


def test_normalization_canonical_is_exp():
    assert math.fsum(_normalization_terms(SequenceSpec("canonical"), 1.0, 30)) == pytest.approx(
        math.e, rel=1e-13)


def test_normalization_at_zero_is_one():
    spec = SequenceSpec("su11", j=2)
    assert next(x_factorials(spec, x_floats(spec, 5))) == 1
    assert math.fsum(_normalization_terms(spec, 0.0, 10)) == 1.0


def test_normalization_su11_geometric_derivative():
    # x_n! = 1 / (n + 1) for j = 1, so N(1/2) = sum (n+1) 2^-n = 4
    terms = _normalization_terms(SequenceSpec("su11", j=1), 0.5, 100)
    assert math.fsum(terms) == pytest.approx(4.0, rel=1e-12)


def test_normalization_strictly_increasing():
    # below the radius L^2 = lim x_n = 1 the series settles, and it grows with r^2
    spec = SequenceSpec("ultraspherical", nu=1)
    assert x_limit(spec).value == 1
    values = []
    for r2 in (0.0, 0.2, 0.5, 0.8, 0.95):
        terms = _normalization_terms(spec, r2, 2000)
        values.append(math.fsum(terms))
        assert terms[-1] < 1e-30 * values[-1]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_normalization_divergence_names_radius():
    # su11 with j = 1 has L^2 = 1; at r^2 = 1 the terms n + 1 never decay
    spec = SequenceSpec("su11", j=1)
    limit = x_limit(spec)
    assert limit.is_finite and limit.value == 1
    terms = _normalization_terms(spec, float(limit.value), 50)
    assert terms == pytest.approx([n + 1 for n in range(50)], rel=1e-13)


def test_bessel_ladder_log_singular_order():
    # j = 1/2: the kernel order is 0 with a logarithmic singularity at the
    # origin and moments (n!)^2
    measure, _ = select_bessel_ladder_measure(Fraction(1, 2))
    spec = SequenceSpec("barut_girardello", j=Fraction(1, 2))
    report = verify_moment_problem(measure, spec, 6, 1e-8)
    assert report.verdict, report.max_abs_rel_error
    assert report.rows[3].expected == pytest.approx(36.0)  # (3!)^2


def test_hermite_even_is_the_moment_measure_of_half_shifted_integers():
    # the Gaussian probability density solves the moment problem of the
    # rational sequence x_n = n - 1/2 (mu_2n = (2n-1)!!/2^n)
    spec = SequenceSpec("rational", num=[Fraction(-1, 2), 1], den=[1])
    report = verify_moment_problem(get_measure("hermite_even"), spec, 10, 1e-10)
    assert report.verdict, report.max_abs_rel_error

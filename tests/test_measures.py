import math
from fractions import Fraction

import pytest

import nlcpoly.measures
import nlcpoly.sequences
from nlcpoly import (
    DivergenceError, SequenceSpec, coherent_normalization, get_measure,
    integrate, measure_names, select_bessel_ladder_measure, verify_moment_problem, verify_orthonormality,
)
from nlcpoly.measures import (MomentRow, bessel_k_abs_even_moment, bessel_k_exp_even_moment,
                              bessel_mp_even_moment, moment_integral)
from nlcpoly.moments import MomentSequence
from nlcpoly.sequences import x_floats, x_log_factorials


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
        res = integrate(measure, lambda t: 1.0, 1e-11)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-10), measure.name


def test_even_extension_half_mass_per_side():
    # the even extension of each radial density carries mass 1/2 per side
    from nlcpoly.measures import _integrate_half
    for measure in (get_measure("gaussian_radial"),
                    get_measure("disc_radial", j=2)):
        res = _integrate_half(measure, lambda r: 0.5, 1e-11)
        assert res.value == pytest.approx(0.5, rel=1e-10)
    even = get_measure("ultraspherical_even", nu=1)
    res = _integrate_half(even, lambda r: 1.0, 1e-11)  # 2*int_0^1 w = 1
    assert res.value == pytest.approx(1.0, rel=1e-10)


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
    for n in range(5):
        assert bessel_mp_even_moment(mu, nu, beta, n) == pytest.approx(
            report.rows[n].expected, rel=1e-13)


def test_bessel_k_exp_moments_match():
    mu, nu = Fraction(3, 2), Fraction(1, 2)
    measure = get_measure("bessel_k_exp_even", mu=mu, nu=nu)
    spec = SequenceSpec("bessel_k_exp", mu=mu, nu=nu)
    report = verify_moment_problem(measure, spec, 8, 1e-8)
    assert report.verdict, report.max_abs_rel_error
    # the closed-form Pochhammer moments agree with the partial products
    for n in range(6):
        assert bessel_k_exp_even_moment(mu, nu, n) == pytest.approx(
            report.rows[n].expected, rel=1e-14)


def test_bessel_k_abs_moments_match():
    mu, nu = Fraction(3, 2), Fraction(1, 2)
    measure = get_measure("bessel_k_abs_even", mu=mu, nu=nu)
    spec = SequenceSpec("bessel_k_abs", mu=mu, nu=nu)
    report = verify_moment_problem(measure, spec, 8, 1e-8)
    assert report.verdict, report.max_abs_rel_error
    for n in range(6):
        assert bessel_k_abs_even_moment(mu, nu, n) == pytest.approx(
            report.rows[n].expected, rel=1e-14)


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


# -- orthonormality --------------------------------------------------------------------

def test_hermite_gram_is_identity():
    report = verify_orthonormality(get_measure("hermite_even"),
                                   SequenceSpec("canonical"), 6, 1e-11,
                                   side="spectral")
    assert report.max_abs_deviation <= 1e-10
    assert not report.unconverged_entries


def test_ultraspherical_spectral_gram_with_sqrt2_argument():
    # phi_n of the quotient family are orthonormal against the
    # ultraspherical density under y -> sqrt(2) y
    report = verify_orthonormality(get_measure("ultraspherical_even", nu=1),
                                   SequenceSpec("gamma_quotient", a=2, b=1, c=1),
                                   6, 1e-11, side="spectral",
                                   argument_scale=math.sqrt(2.0))
    assert report.max_abs_deviation <= 1e-10


def test_moment_side_gram_identity_for_catalog_pairs():
    pairs = [
        (get_measure("gaussian_radial"), SequenceSpec("canonical")),
        (get_measure("ultraspherical_even", nu=1), SequenceSpec("ultraspherical", nu=1)),
        (get_measure("jacobi_even", alpha=1, beta=1),
         SequenceSpec("jacobi_type", alpha=1, beta=1)),
        (get_measure("disc_radial", j=Fraction(3, 2)), SequenceSpec("su11", j=Fraction(3, 2))),
    ]
    for measure, spec in pairs:
        report = verify_orthonormality(measure, spec, 6, 1e-11, side="moment")
        assert report.max_abs_deviation <= 1e-9, (measure.name, report.max_abs_deviation)


@pytest.mark.parametrize("measure, spec", [
    (get_measure("disc_radial", j=Fraction(3, 2)), SequenceSpec("su11", j=Fraction(3, 2))),
    (get_measure("ultraspherical_even", nu=1), SequenceSpec("ultraspherical", nu=1)),
    (get_measure("jacobi_even", alpha=1, beta=1), SequenceSpec("jacobi_type", alpha=1, beta=1)),
], ids=lambda v: v.name if hasattr(v, "name") else v.family)
def test_moment_side_gram_at_order_8_is_within_a_few_ulp(measure, spec):
    # P_n evaluated by its recurrence, not by Horner on monomial coefficients,
    # which cancel to about 4e-15 at order 8 on these measures
    report = verify_orthonormality(measure, spec, 8)
    assert not report.unconverged_entries
    assert report.max_abs_deviation <= 2e-15, report.max_abs_deviation


def test_moment_side_gram_on_a_float_spec():
    # float parameters: the Hankel polynomials come from the lifted float
    # moments, which agree with the Bessel-weight moments to rounding
    spec = SequenceSpec("bessel_k_exp", mu=1.7, nu=0.3)
    report = verify_orthonormality(get_measure("bessel_k_exp_even", mu=1.7, nu=0.3), spec, 4)
    assert report.side == "moment" and not report.unconverged_entries
    assert report.max_abs_deviation <= 1e-10


def test_gram_matrix_is_symmetric():
    report = verify_orthonormality(get_measure("hermite_even"),
                                   SequenceSpec("canonical"), 5, 1e-11,
                                   side="spectral")
    g = report.gram
    for m in range(6):
        for n in range(6):
            assert g[m][n] == g[n][m]


# -- normalization series -----------------------------------------------------------------

def test_normalization_canonical_is_exp():
    assert coherent_normalization(SequenceSpec("canonical"), 1.0) == pytest.approx(
        math.e, rel=1e-13)


def test_normalization_at_zero_is_one():
    assert coherent_normalization(SequenceSpec("su11", j=2), 0.0) == 1.0


def test_normalization_su11_geometric_derivative():
    # sum (n+1) 2^-n = 4
    val = coherent_normalization(SequenceSpec("su11", j=1), 0.5)
    assert val == pytest.approx(4.0, rel=1e-12)


def test_normalization_strictly_increasing():
    spec = SequenceSpec("ultraspherical", nu=1)
    values = [coherent_normalization(spec, r2) for r2 in (0.0, 0.2, 0.5, 0.8, 0.95)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_normalization_divergence_names_radius():
    with pytest.raises(DivergenceError, match="L\\^2 = 1"):
        coherent_normalization(SequenceSpec("su11", j=1), 1.0)


def test_integrate_odd_function_vanishes_on_even_measure():
    # one quadrature of the even part, which is exactly zero at every node
    res = integrate(get_measure("hermite_even"), lambda t: t ** 3, 1e-11)
    assert abs(res.value) < 1e-12
    assert res.value == 0.0 and res.error_estimate == 0.0


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


def test_ultraspherical_spectral_gram_generalizes_to_nu_two():
    report = verify_orthonormality(get_measure("ultraspherical_even", nu=2),
                                   SequenceSpec("gamma_quotient", a=3, b=2, c=1),
                                   5, 1e-11, side="spectral",
                                   argument_scale=math.sqrt(2.0))
    assert report.max_abs_deviation <= 1e-10


def test_moment_side_gram_for_bessel_ladder_pair():
    # orthonormalized determinant polynomials against the exp-sinh Bessel
    # quadrature: a full exact-elimination + special-function round trip
    measure, _ = select_bessel_ladder_measure(1)
    report = verify_orthonormality(measure, SequenceSpec("barut_girardello", j=1),
                                   4, 1e-9, side="moment")
    assert report.max_abs_deviation <= 1e-8, report.max_abs_deviation

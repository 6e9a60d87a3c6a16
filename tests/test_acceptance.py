"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them inline).

Every tolerance is fixed here, not calibrated elsewhere.  Criterion 5 checks
the determinant/recurrence bridge c_k(P_n) = 2^((n-k)/2) c_k(q_n) exactly on
the moments of the recurrence's own measure (Dyck-path sums from
``conftest.spectral_moments``), and checks that on the even moments x_n! the
two families agree through degree 2 and differ from degree 3 on.
"""

import math
import os
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nlcpoly import (
    MomentSequence, SequenceSpec, amplitude_extract, berg_duran_check,
    build_truncated, char_poly, check_monotone_and_bounded,
    check_nonlinear_inequalities, cm_sequence_test,
    get_measure, hankel_polynomial, ismail_li_bounds, jacobi_zeros,
    monic_q_coefficients, nevai_amplitude, phi_value,
    select_bessel_ladder_measure, sqrt_deviation_scaled, verify_moment_problem,
    x_value,
)
from nlcpoly.cli import main as cli_main
from conftest import gegenbauer_exact, hermite_orthonormal_oracle, horner, spectral_moments


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {description}")


RATIONAL_FAMILIES = [
    SequenceSpec("canonical"),
    SequenceSpec("su11", j=1),
    SequenceSpec("ultraspherical", nu=1),
    SequenceSpec("jacobi_type", alpha=1, beta=1),
    SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4)),
]

CATALOG_SETTINGS = {
    "canonical": [{}],
    "su11": [{"j": 1}, {"j": Fraction(3, 2)}, {"j": 3}],
    "barut_girardello": [{"j": Fraction(1, 2)}, {"j": 1}, {"j": Fraction(3, 2)}],
    "ultraspherical": [{"nu": Fraction(-1, 4)}, {"nu": 1}, {"nu": Fraction(5, 2)}],
    "jacobi_type": [{"alpha": Fraction(-1, 4), "beta": Fraction(-1, 2)},
                    {"alpha": 1, "beta": 1},
                    {"alpha": 2, "beta": Fraction(3, 2)}],
    "meixner_pollaczek_bessel": [{"mu": 1, "nu": Fraction(1, 4), "beta": 2},
                                 {"mu": Fraction(3, 2), "nu": Fraction(1, 2), "beta": 1},
                                 {"mu": 2, "nu": 0, "beta": 3}],
    "bessel_k_exp": [{"mu": Fraction(3, 2), "nu": Fraction(1, 2)},
                     {"mu": 2, "nu": 1},
                     {"mu": Fraction(5, 2), "nu": Fraction(1, 4)}],
    "bessel_k_abs": [{"mu": Fraction(3, 2), "nu": Fraction(1, 2)},
                     {"mu": 2, "nu": 1},
                     {"mu": Fraction(5, 2), "nu": Fraction(1, 4)}],
    "gamma_quotient": [{"a": 3, "b": 2, "c": 1},
                       {"a": Fraction(5, 2), "b": Fraction(3, 2), "c": 1},
                       {"a": 4, "b": 3, "c": 2}],
    "q_gamma_quotient": [
        {"A": Fraction(1, 8), "B": Fraction(1, 4), "C": Fraction(1, 2), "q": Fraction(1, 2)},
        {"A": Fraction(1, 4), "B": Fraction(1, 8), "C": Fraction(1, 2), "q": Fraction(1, 2)},
        {"A": Fraction(1, 3), "B": Fraction(1, 5), "C": Fraction(2, 5), "q": Fraction(1, 2)}],
    "grinshpan_ismail_s3": [
        {"a1": 1, "a2": Fraction(1, 2), "a3": Fraction(1, 4)},
        {"a1": 2, "a2": 1, "a3": 1},
        {"a1": Fraction(1, 2), "a2": Fraction(1, 2), "a3": Fraction(1, 2)}],
}


def test_criterion_01_gaussian_moment_reproduction():
    started = time.perf_counter()
    report = verify_moment_problem(get_measure("gaussian_radial"),
                                   SequenceSpec("canonical"), 15, 1e-11)
    elapsed = time.perf_counter() - started
    for row in report.rows:  # oracle: factorials, independent of the library
        assert row.expected == pytest.approx(math.factorial(row.n), rel=1e-15)
    ok = bool(report.verdict) and elapsed < 5.0
    _report(1, f"Gaussian radial moments = n! for n <= 15 "
               f"(worst rel {report.max_abs_rel_error:.2e}, {elapsed:.2f}s)", ok)
    assert report.verdict, report.max_abs_rel_error
    assert elapsed < 5.0


@pytest.mark.parametrize("j", [1, Fraction(3, 2), 2])
def test_criterion_02_su11_measure(j):
    report = verify_moment_problem(get_measure("disc_radial", j=j),
                                   SequenceSpec("su11", j=j), 15, 1e-11)
    for row in report.rows:
        poch = math.prod(float(2 * j) + k for k in range(row.n))
        assert row.expected == pytest.approx(math.factorial(row.n) / poch, rel=1e-12)
    _report(2, f"disc measure moments = n!/(2j)_n at j={j} "
               f"(worst rel {report.max_abs_rel_error:.2e})", bool(report.verdict))
    assert report.verdict, report.max_abs_rel_error


@pytest.mark.parametrize("j", [1, Fraction(3, 2)])
def test_criterion_03_bessel_ladder_measure(j):
    measure, selection = select_bessel_ladder_measure(j)
    report = verify_moment_problem(measure, SequenceSpec("barut_girardello", j=j),
                                   8, 1e-8)
    ok = bool(report.verdict) and selection.consistent
    _report(3, f"ladder Bessel measure at j={j}: moments n!(2j)_n to 1e-8, "
               f"selection unique ({selection.chosen})", ok)
    assert selection.consistent
    assert report.verdict, report.max_abs_rel_error


def test_criterion_04_characteristic_polynomial_identity():
    rng = random.Random(20240101)
    points = [Fraction(rng.randint(-60, 60), rng.randint(1, 16)) for _ in range(10)]
    for spec in RATIONAL_FAMILIES:
        for n in range(1, 16):
            q = build_truncated(spec, n)
            coeffs = monic_q_coefficients(spec, n)
            for x in points:
                assert char_poly(q, x) == horner(coeffs, x), (spec.family, n)
    _report(4, "det(xI - Q_n) equals the monic recurrence polynomial's coefficients "
               "by Horner exactly (5 families, n <= 15, 10 rational points)", True)


def test_criterion_05_hankel_bridge_scaling():
    """Bridge c_k(P_n) = 2^((n-k)/2) c_k(q_n) for n <= 10, exact.

    r_n(x) = 2^(n/2) q_n(x/sqrt 2) satisfies r_{n+1} = x r_n - x_n r_{n-1}
    and has the coefficients 2^((n-k)/2) c_k(q_n).  By Favard and Heine it is
    the determinant polynomial P_n of its own measure, whose moments are the
    Dyck-path sums of ``spectral_moments``; on those moments the relation is
    checked exactly, odd-gap coefficients included.

    On the even moments x_n! the determinant polynomials live on a different
    measure (fourth moment x_1 x_2 against x_1 (x_1 + x_2)), so there the
    relation holds only through degree 2: P_3 = x^3 - x_2 x, while
    r_3 = x^3 - (x_1 + x_2) x, and every degree 3 <= n <= 10 differs.
    """
    # the oracle reproduces (2n-1)!! for x_n = n and the Catalan numbers for x_n = 1
    assert spectral_moments(range(1, 9), 8) == [
        1, 1, 3, 15, 105, 945, 10395, 135135, 2027025]
    assert spectral_moments([1] * 8, 8) == [1, 1, 2, 5, 14, 42, 132, 429, 1430]

    n_max = 10
    bridge_failures, even_failures = [], []
    for spec in RATIONAL_FAMILIES:
        xs = [x_value(spec, k) for k in range(1, n_max + 1)]
        m = spectral_moments(xs, n_max)
        spectral = MomentSequence(SequenceSpec(
            "explicit", values=[m[k] / m[k - 1] for k in range(1, n_max + 1)]))
        even = MomentSequence(spec)
        for n in range(1, n_max + 1):
            q_coeffs = monic_q_coefficients(spec, n)
            if any(q_coeffs[k] for k in range(n + 1) if (n - k) % 2):
                bridge_failures.append((spec.family, n, "odd-gap q"))
            expected = [Fraction(2) ** ((n - k) // 2) * c if (n - k) % 2 == 0
                        else Fraction(0) for k, c in enumerate(q_coeffs)]
            if hankel_polynomial(spectral, n) != expected:
                bridge_failures.append((spec.family, n))
            if (hankel_polynomial(even, n) == expected) != (n <= 2):
                even_failures.append((spec.family, n))
        if hankel_polynomial(even, 3) != [0, -xs[1], 0, 1]:
            even_failures.append((spec.family, 3, "P_3 != x^3 - x_2 x"))
    ok = not bridge_failures and not even_failures
    _report(5, "determinant/recurrence coefficient bridge "
               "c_k(P_n) = 2^((n-k)/2) c_k(q_n) on the spectral moments "
               f"({len(bridge_failures)} mismatches, n <= {n_max}); even "
               f"moments agree only for n <= 2 ({len(even_failures)} exceptions)",
            ok)
    assert not bridge_failures, bridge_failures[:3]
    assert not even_failures, even_failures[:3]


def test_criterion_06_monotonicity_and_bound():
    for family, settings in CATALOG_SETTINGS.items():
        for params in settings:
            spec = SequenceSpec(family, **params)
            rep = check_monotone_and_bounded(spec, 10 ** 4)
            assert rep.monotone, (family, params, rep.first_violation)
            if rep.limit.is_finite:
                assert rep.bounded_by_L2, (family, params, rep.bound_first_violation)
            assert rep.certified_all_n, (family, params)
    bad = check_monotone_and_bounded(
        SequenceSpec("ultraspherical", nu=-0.6, strict=False), 100)
    assert not bad.monotone and bad.first_violation == 2
    _report(6, "strict increase and x_n < L^2 on the catalog (3 settings each, "
               "certified for all n); nu = -0.6 violation detected", True)


def test_criterion_07_nonlinear_inequalities():
    for family, settings in CATALOG_SETTINGS.items():
        for params in settings:
            rep = check_nonlinear_inequalities(SequenceSpec(family, **params), 100)
            assert rep.ineq1_ok and rep.ineq2_ok, (family, params, rep.violations[:2])
            assert rep.certified_all_n, (family, params)
    violator = check_nonlinear_inequalities(
        SequenceSpec("explicit", values=[1, 2, 3, 4, 100, 4.01]), 6)
    assert not (violator.ineq1_ok and violator.ineq2_ok)
    _report(7, "window inequalities hold on the catalog (certified for all n) and "
               "are violated by the constructed list", True)


def test_criterion_08_zero_structure():
    tol = 1e-13
    for family, settings in CATALOG_SETTINGS.items():
        spec = SequenceSpec(family, **settings[-1])
        prev = None
        for n in range(1, 41):
            result = jacobi_zeros(build_truncated(spec, n), tol)
            assert result.count_mismatches == 0, (family, n)
            if n >= 2:
                a, b = ismail_li_bounds(spec, n)
                assert all(a < z < b for z in result.zeros), (family, n)
            if prev is not None:
                for i in range(n - 1):
                    assert result.zeros[i] > prev[i] > result.zeros[i + 1], (family, n)
            prev = result.zeros
        # certified sign change of the exact characteristic polynomial across
        # each final bracket at bisection tolerance 1e-12; the pad absorbs
        # the one-rounding difference between the bisected (float) matrix
        # entries and their exact values
        q = build_truncated(spec, 40)
        result = jacobi_zeros(q, 1e-12)
        if spec.is_rational:
            for lo, hi in result.brackets:
                pad = 64.0 * math.ulp(max(1.0, abs(lo), abs(hi)))
                s_lo = char_poly(q, Fraction(lo - pad))
                s_hi = char_poly(q, Fraction(hi + pad))
                assert s_lo == 0 or s_hi == 0 or (s_lo < 0) != (s_hi < 0), family
    _report(8, "interlacing, symmetry and zero bounds to n = 40 on the "
               "catalog; brackets certified against char-poly signs", True)


def test_criterion_09_classical_identifications():
    rng = random.Random(20240101)
    points = [rng.uniform(-2.5, 2.5) for _ in range(20)]
    canonical = SequenceSpec("canonical")
    for n in range(13):
        for x in points:
            expected = hermite_orthonormal_oracle(n, x)
            got = phi_value(canonical, n, x)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12), (n, x)
    # the recurrence normalization beta_n = x_n/2 places the ultraspherical
    # comparison at argument x/sqrt(2) with a 1/nu inside the radical
    for nu in (1, Fraction(3, 2), 2):
        spec = SequenceSpec("gamma_quotient", a=nu + 1, b=nu, c=1)
        for n in range(13):
            poch = math.prod(float(2 * nu) + k for k in range(n))
            const = math.sqrt(math.factorial(n) * float(n + nu) / (float(nu) * poch))
            for x in points[:10]:
                expected = const * float(gegenbauer_exact(
                    n, Fraction(nu), Fraction(x / math.sqrt(2.0))))
                assert phi_value(spec, n, x) == pytest.approx(
                    expected, rel=1e-10, abs=1e-10), (nu, n, x)
    _report(9, "canonical family matches orthonormal Hermite values; gamma "
               "quotient family matches orthonormal ultraspherical values "
               "(20 points, n <= 12, 1e-10)", True)


def test_criterion_10_nevai_amplitude():
    started = time.perf_counter()
    spec = SequenceSpec("gamma_quotient", a=2, b=1, c=1)  # nu = 1
    weight = get_measure("ultraspherical_even", nu=1)
    worst = 0.0
    for x in (0.0, 0.3, 0.6):
        est = amplitude_extract(spec, x, (2000, 4000))
        expected = nevai_amplitude(weight.density(x), x)
        worst = max(worst, abs(est.sine_fit_amplitude - expected) / expected)
        assert not est.inconclusive
        assert est.sine_fit_amplitude == pytest.approx(expected, rel=0.02), x
    elapsed = time.perf_counter() - started
    _report(10, f"sine-fit amplitude matches the closed-form weight amplitude "
                f"within 2% (worst {worst:.2e}, {elapsed:.2f}s)", elapsed < 30.0)
    assert elapsed < 30.0


def test_criterion_11_grinshpan_tail():
    args = (1, Fraction(1, 2), Fraction(1, 4))
    first = float(np.max(sqrt_deviation_scaled(*args, np.arange(1, 10 ** 5 + 1))))
    doubled = float(np.max(sqrt_deviation_scaled(*args, np.arange(1, 2 * 10 ** 5 + 1))))
    ok = math.isfinite(first) and abs(doubled - first) <= 0.01 * first
    _report(11, f"n^2 |sqrt(x_n) - 1| bounded over n <= 1e5 (max {first:.4f}) "
                f"and stable under doubling", ok)
    assert ok


def test_criterion_12_cm_and_stieltjes():
    # samples of the normalized gamma quotient g(n) = x_1 ... x_n
    rng = random.Random(20240101)
    with mpmath.workdps(30):
        for _ in range(10):
            c = rng.uniform(0.1, 2.0)
            a = c + rng.uniform(0.0, 3.0)
            b = c + rng.uniform(0.0, 3.0)
            g = lambda n: float(mpmath.gammaprod([a, b, n + c, n + a + b - c],
                                                 [c, a + b - c, n + a, n + b]))
            rep = cm_sequence_test(g, 30, 8)
            assert rep.passed, (a, b, c, rep.first_failure)
    su_report = berg_duran_check(SequenceSpec("su11", j=1), 24, 8)
    assert su_report.hausdorff_ok
    canonical_report = berg_duran_check(SequenceSpec("canonical"), 12, 6)
    assert canonical_report.stieltjes_hankels_ok
    _report(12, "gamma-quotient samples completely monotonic (10 seeded "
                "triples); 1/x CM for the disc family; factorial Hankel "
                "positivity to order 6", True)


def test_criterion_13_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[sequence]
family = su11
j = 3/2

[run]
command = all
n_max = 8
order = 6

[output]
prefix = d
""")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main([str(cfg), "--out-dir", str(out1)]) == 0
    assert cli_main([str(cfg), "--out-dir", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    identical = names == sorted(os.listdir(out2)) and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in names)
    _report(13, f"repeated CLI runs byte-identical ({len(names)} artifacts)",
            identical)
    assert identical

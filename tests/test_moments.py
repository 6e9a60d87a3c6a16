import random
import sys
import threading
from fractions import Fraction

import pytest

from nlcpoly import (
    DegenerateMomentsError, MomentSequence, SequenceSpec, bareiss_determinant,
    berg_duran_check, hankel_determinant, hankel_polynomial, monic_q_coefficients,
)
from nlcpoly.moments import ChebyshevPass, PrecisionError
from nlcpoly.sequences import x_value
from conftest import catalog_specs, det_cofactor
from test_acceptance import RATIONAL_FAMILIES


# -- moment sequence ----------------------------------------------------------

def test_moments_normalized_and_even(canonical):
    ms = MomentSequence(canonical)
    assert ms.moment(0) == 1
    assert ms.moment(1) == 0 and ms.moment(7) == 0
    assert ms.moment(4) == 2  # x_2! = 2


def test_moments_match_partial_products(su11_j1):
    ms = MomentSequence(su11_j1)
    assert [ms.even_moment(k) for k in range(4)] == \
        [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]


def test_moments_concurrent_extension(canonical):
    ms = MomentSequence(canonical)
    results = []

    def reader():
        results.append([ms.even_moment(k) for k in range(40)])

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_kept_chebyshev_pass_is_consistent_across_threads():
    spec = SequenceSpec("su11", j=Fraction(3, 2))
    expected = {n: MomentSequence(spec).chebyshev_polynomials(n) for n in range(10)}
    shared = MomentSequence(spec)
    results = []

    def reader(seed):
        order = list(range(10))
        random.Random(seed).shuffle(order)
        results.extend((n, shared.chebyshev_polynomials(n)) for n in order)

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 80 and all(polys == expected[n] for n, polys in results)


FLOAT_SPECS = [SequenceSpec("bessel_k_exp", mu=1.7, nu=0.3),
               SequenceSpec("ultraspherical", nu=0.3)]


def _lifted_float_moments(spec, count):
    """mu_0, mu_2, ...: the float running products x_1 ... x_k, each lifted
    to the exact dyadic rational it is (oracle)."""
    product, out = 1.0, [Fraction(1)]
    for k in range(1, count):
        product *= x_value(spec, k)
        out.append(Fraction(product))
    return out


def _hankel_of(even, n):
    return [[even[(i + j) // 2] if (i + j) % 2 == 0 else 0 for j in range(n + 1)]
            for i in range(n + 1)]


@pytest.mark.parametrize("spec", FLOAT_SPECS, ids=lambda s: s.family)
def test_float_moments_are_the_lifted_running_products(spec):
    ms = MomentSequence(spec)
    even = [ms.even_moment(k) for k in range(30)]
    assert even == _lifted_float_moments(spec, 30)
    assert all(type(mu) is Fraction for mu in even)
    assert ms.moment(5) == 0 and type(ms.moment(5)) is Fraction


# -- determinants ----------------------------------------------------------------

def test_hankel_d2_canonical_closed_form(canonical):
    # with (mu_0, mu_2, mu_4) = (1, 1, 2): D_2 = x_1^2 (x_2 - x_1) = 1
    res = hankel_determinant(MomentSequence(canonical), 2)
    assert res.value == 1 and res.positive and res.exact


def test_hankel_order_zero(canonical):
    assert hankel_determinant(MomentSequence(canonical), 0).value == 1


def test_hankel_su11_positive():
    res = hankel_determinant(MomentSequence(SequenceSpec("su11", j=1)), 3)
    assert res.exact and res.positive
    assert res.value > 0


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_hankel_positive_through_order_8(spec):
    ms = MomentSequence(spec)
    for n in range(9):
        assert hankel_determinant(ms, n).positive, (spec.family, n)


def test_bareiss_matches_cofactor_oracle_on_moments(canonical):
    ms = MomentSequence(canonical)
    for n in range(6):
        matrix = ms.hankel_matrix(n)
        assert bareiss_determinant(matrix) == det_cofactor(matrix)


def test_bareiss_matches_cofactor_oracle_random():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 5)
        matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(matrix) == det_cofactor(matrix)


def test_bareiss_singular_matrix():
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


@pytest.mark.parametrize("spec", FLOAT_SPECS, ids=lambda s: s.family)
def test_float_spec_determinant_is_exact_on_the_lifted_moments(spec):
    ms = MomentSequence(spec)
    even = _lifted_float_moments(spec, 13)
    for n in range(13):
        res = hankel_determinant(ms, n)
        assert res.value == bareiss_determinant(_hankel_of(even, n)), n
        assert res.exact and res.precision_bits is None
        assert res.positive == (res.value > 0)


@pytest.mark.parametrize("spec, first", [
    (SequenceSpec("ultraspherical", nu=0.3), 25),
    (SequenceSpec("barut_girardello", strict=False, j=0.75), 50),
    (SequenceSpec("bessel_k_exp", mu=1.7, nu=0.3), 38),
], ids=["ultraspherical", "barut_girardello", "bessel_k_exp"])
def test_first_nonpositive_determinant_of_the_float_moments(spec, first):
    # rounding the running products in floats makes D_n vanish or turn
    # negative at these orders; D_n is exact on the moments as rounded, so
    # the sign is theirs, not an artefact of the elimination
    ms = MomentSequence(spec)
    signs = [hankel_determinant(ms, n).positive for n in range(first + 1)]
    assert signs == [True] * first + [False]


@pytest.mark.parametrize("spec, first_bad", [
    (SequenceSpec("ultraspherical", nu=0.3), (0, 15)),
    (SequenceSpec("bessel_k_exp", mu=1.7, nu=0.3), (0, 20)),
], ids=["ultraspherical", "bessel_k_exp"])
def test_berg_duran_on_the_float_moments(spec, first_bad):
    report = berg_duran_check(spec, 40)
    assert report.hausdorff_ok and not report.stieltjes_hankels_ok
    assert report.first_nonpositive_hankel == first_bad


def test_hankel_float_overflow_raises_precision_error():
    # x_n = n (n + 1/2) overflows the float running product at mu_196 = x_98!;
    # the moment is refused where it is formed, before any determinant
    ms = MomentSequence(SequenceSpec("barut_girardello", strict=False, j=0.75))
    assert ms.even_moment(97) > 0
    with pytest.raises(PrecisionError, match="mu_196 = inf"):
        ms.even_moment(98)
    with pytest.raises(PrecisionError, match="mu_196 = inf"):
        hankel_determinant(ms, 100)


# -- determinant polynomials -------------------------------------------------------

def test_hankel_polynomial_degree_one_is_x(su11_j1):
    assert hankel_polynomial(MomentSequence(su11_j1), 1) == [0, 1]


def test_hankel_polynomial_canonical_p2(canonical):
    assert hankel_polynomial(MomentSequence(canonical), 2) == [-1, 0, 1]


def test_hankel_polynomial_explicit_same_moments():
    spec = SequenceSpec("explicit", values=[1, 2])
    assert hankel_polynomial(MomentSequence(spec), 2) == [-1, 0, 1]


@pytest.mark.parametrize("spec", catalog_specs()[:6], ids=lambda s: s.family)
def test_hankel_polynomial_parity(spec):
    ms = MomentSequence(spec)
    for n in range(1, 9):
        coeffs = hankel_polynomial(ms, n)
        assert coeffs[-1] == 1  # monic
        assert all(coeffs[k] == 0 for k in range(n - 1, -1, -1) if (n - k) % 2 == 1)


def test_hankel_polynomial_is_orthogonal_by_construction(canonical):
    # <P_n, x^k> = 0 for k < n under the even moment functional
    ms = MomentSequence(canonical)
    for n in range(1, 7):
        coeffs = hankel_polynomial(ms, n)
        for k in range(n):
            inner = sum(c * ms.moment(i + k) for i, c in enumerate(coeffs))
            assert inner == 0


@pytest.mark.parametrize("spec", FLOAT_SPECS, ids=lambda s: s.family)
def test_float_spec_hankel_polynomial_is_exactly_orthogonal(spec):
    even = _lifted_float_moments(spec, 10)
    ms = MomentSequence(spec)
    for n in range(1, 9):
        coeffs = hankel_polynomial(ms, n)
        assert coeffs[-1] == 1 and all(type(c) is Fraction for c in coeffs)
        for k in range(n):
            inner = sum(c * even[(i + k) // 2] for i, c in enumerate(coeffs) if (i + k) % 2 == 0)
            assert inner == 0, (n, k)


def test_hankel_polynomial_differs_from_recurrence_polynomial_beyond_degree_two(canonical):
    # the determinant polynomials live on the even-moment measure, the
    # recurrence polynomials on the spectral measure; they agree only to
    # degree 2 (P_3 = x^3 - 2x vs q_3 = x^3 - 1.5x for x_n = n)
    p3 = hankel_polynomial(MomentSequence(canonical), 3)
    q3 = monic_q_coefficients(canonical, 3)
    assert p3 == [0, -2, 0, 1]
    assert q3 == [0, Fraction(-3, 2), 0, 1]


# -- Chebyshev pass against Bareiss elimination ------------------------------------

def _bordered_polynomial(ms, n):
    """P_n as n+1 signed bordered minors over D_{n-1}, all by Bareiss (oracle)."""
    d_prev = bareiss_determinant(ms.hankel_matrix(n - 1))
    if d_prev == 0:
        raise ZeroDivisionError("D_{n-1} = 0")
    rows = [[ms.moment(i + j) for j in range(n + 1)] for i in range(n)]
    return [(-1) ** (n + k) * bareiss_determinant(
                [[row[j] for j in range(n + 1) if j != k] for row in rows]) / d_prev
            for k in range(n + 1)]


def _bareiss_pass(spec, n):
    """The Chebyshev pass for k <= n from Bareiss determinants of a fresh
    moment sequence (oracle): sigma_kk = D_k / D_{k-1}, b_k = sigma_kk /
    sigma_{k-1,k-1} and a_k = 0, ending with the first zero pivot."""
    ms = MomentSequence(spec)
    dets, pivots = [], []
    for k in range(n + 1):
        dets.append(bareiss_determinant(ms.hankel_matrix(k)))
        pivots.append(dets[-1] / (dets[-2] if k else 1))
        if not pivots[-1]:
            break
    beta = [p / q for p, q in zip(pivots, [1] + pivots) if p]
    return ChebyshevPass((0,) * len(beta), tuple(beta), tuple(pivots), tuple(dets))


@pytest.mark.parametrize("spec, stop", [(spec, None) for spec in catalog_specs()] + [
    # x_1 = x_2 = 3 makes the pivot sigma_22 vanish
    (SequenceSpec("rational", num=[5, 0, 1], den=[1, 1]), 2),
    (SequenceSpec("rational", num=[3, -2, 1], den=[1, 0, 1]), 3),
], ids=[*(spec.family for spec in catalog_specs()), "n2_plus_5_over_n_plus_1",
        "n2_minus_2n_plus_3_over_n2_plus_1"])
def test_parity_pass_matches_bareiss(spec, stop):
    # the pass keeps only the sigma_{k,l} with k + l even; its pivots, b_k and
    # D_k equal the Bareiss determinants' through order 12 or its zero pivot
    # sigma_{stop,stop}, and past that pivot hankel_determinant continues by
    # Bareiss
    ms = MomentSequence(spec)
    cheb = ms.chebyshev(12)
    assert cheb == _bareiss_pass(spec, 12)
    assert len(cheb.pivots) == (13 if stop is None else stop + 1)
    assert all(a == 0 for a in cheb.alpha)
    assert stop is None or cheb.pivots[-1] == 0
    for n in range(13):
        assert hankel_determinant(ms, n).value == bareiss_determinant(ms.hankel_matrix(n)), n


@pytest.mark.parametrize("spec", RATIONAL_FAMILIES, ids=lambda s: s.family)
def test_chebyshev_path_matches_bareiss_through_order_16(spec):
    ms = MomentSequence(spec)
    for n in range(17):
        assert hankel_determinant(ms, n).value == bareiss_determinant(ms.hankel_matrix(n)), n
        if n:
            assert hankel_polynomial(ms, n) == _bordered_polynomial(ms, n), n


@pytest.mark.parametrize("x3", [2, 3, Fraction(5, 2)], ids=str)
def test_zero_pivot_falls_back_to_bareiss(x3):
    # x_1 = x_2 = 1 gives mu_4 = mu_2^2: the pivot sigma_22 and D_2, D_3 vanish
    # while D_4 does not, so P_5 exists but the recurrence cannot reach it
    ms = MomentSequence(SequenceSpec("explicit", values=[1, 1, x3, 3, 4, 5]))
    assert ms.chebyshev(4).pivots == (1, 1, 0)
    dets = [hankel_determinant(ms, n).value for n in range(5)]
    assert dets[:4] == [1, 1, 0, 0]
    assert dets[4] == -(x3 - 1) ** 3
    for n in (3, 4):
        with pytest.raises(ZeroDivisionError):
            hankel_polynomial(ms, n)
    assert hankel_polynomial(ms, 5) == _bordered_polynomial(ms, 5)


@pytest.mark.parametrize("spec", RATIONAL_FAMILIES, ids=lambda s: s.family)
def test_kept_chebyshev_pass_serves_shorter_orders(spec):
    shared = MomentSequence(spec)
    shared.chebyshev(12)
    for n in range(13):
        fresh = MomentSequence(spec).chebyshev(n)
        assert shared.chebyshev(n) == fresh
        assert shared.chebyshev_polynomials(n) == fresh.polynomials()
    shared.chebyshev_polynomials(3)[2][0] = "changed"  # callers get copies
    assert shared.chebyshev_polynomials(3) == MomentSequence(spec).chebyshev(3).polynomials()


def test_kept_pass_keeps_the_zero_pivot_stop():
    ms = MomentSequence(SequenceSpec("explicit", values=[1, 1, 2, 3, 4, 5]))
    assert ms.chebyshev(4).pivots == (1, 1, 0)
    assert ms.chebyshev(1) == MomentSequence(ms.spec).chebyshev(1)
    assert ms.chebyshev(2).pivots == (1, 1, 0) and len(ms.chebyshev(2).alpha) == 2
    with pytest.raises(DegenerateMomentsError, match="D_3 = 0"):
        hankel_polynomial(ms, 4)


ORDERS = list(range(17))


@pytest.mark.parametrize("spec", RATIONAL_FAMILIES + [SequenceSpec("ultraspherical", nu=0.3)],
                         ids=lambda s: f"{s.family}-{'exact' if s.is_rational else 'float'}")
@pytest.mark.parametrize("orders", [ORDERS, ORDERS[::-1], random.Random(19).sample(ORDERS, 17)],
                         ids=["ascending", "descending", "shuffled"])
def test_kept_pass_is_the_same_under_any_call_order(spec, orders):
    # the kept pass grows in place: whatever order the orders come in, each
    # answer equals the Bareiss determinants' and a fresh moment sequence
    shared = MomentSequence(spec)
    for n in orders:
        fresh = MomentSequence(spec)
        one_shot = _bareiss_pass(spec, n)
        assert shared.chebyshev(n) == one_shot == fresh.chebyshev(n), n
        assert shared.chebyshev_polynomials(n) == one_shot.polynomials(), n
        assert hankel_determinant(shared, n) == hankel_determinant(MomentSequence(spec), n), n
        if n:
            assert hankel_polynomial(shared, n) == hankel_polynomial(MomentSequence(spec), n), n


def test_kept_pass_grown_one_order_at_a_time_keeps_its_stop():
    spec = SequenceSpec("explicit", values=[1, 1, 2, 3, 4, 5])
    d4 = bareiss_determinant(MomentSequence(spec).hankel_matrix(4))
    ms = MomentSequence(spec)
    for n in range(6):
        assert ms.chebyshev(n).pivots == (1, 1, 0)[:n + 1], n
        assert len(ms.chebyshev(n).alpha) == min(n + 1, 2), n
    assert hankel_determinant(ms, 4).value == d4 == -1


def test_decreasing_sequence_has_negative_d2():
    ms = MomentSequence(SequenceSpec("explicit", values=[1, Fraction(1, 2), Fraction(1, 3)]))
    res = hankel_determinant(ms, 2)
    assert res.exact and res.value == Fraction(-1, 2) and not res.positive


# -- Berg--Duran ---------------------------------------------------------------------

def _atom_ratios(atoms, count):
    # x_n = s_n / s_{n-1} for s_n the moments of uniform mass on the atoms
    s = [Fraction(sum(t ** n for t in atoms), len(atoms)) for n in range(count + 1)]
    return [s[n] / s[n - 1] for n in range(1, count + 1)]


# {-1, 1, 2, 3, 4}: [s_{i+j}] is positive through size 5, the shifted
# [s_{i+j+1}] is not.  {0, 1, 2}: [s_{i+j}] is singular at size 4 and
# [s_{i+j+1}] at size 3, so the one pass of the even functional ends at
# sigma_55 (shift 1, size 3), and shift 0 at size 4 is left to Bareiss
FIVE_ATOMS = _atom_ratios((-1, 1, 2, 3, 4), 40)
THREE_ATOMS = _atom_ratios((0, 1, 2), 40)


@pytest.mark.parametrize("values, n_max", [
    ([1, 4, 2] + [n * n for n in range(4, 40)], 16),
    ([1] * 40, 16),  # zero pivot: D = 0 at size 2
    (FIVE_ATOMS, 10),
    (FIVE_ATOMS, 12),  # [s_{i+j}] singular at size 6, the largest checked
    (THREE_ATOMS, 7),  # sizes to 3: the zero pivot sigma_55 is the first bad
    (THREE_ATOMS, 8),
    (THREE_ATOMS, 16),
], ids=["nonmonotone", "constant", "shifted", "five_atoms", "three_atoms_7", "three_atoms_8",
        "three_atoms_16"])
def test_berg_duran_first_nonpositive_hankel_matches_bareiss_loop(values, n_max):
    report = berg_duran_check(SequenceSpec("explicit", values=values), n_max, 6)
    s = [Fraction(1)]
    for v in values:
        s.append(s[-1] * v)
    top = report.effective_n_max // 2
    expected = next(((shift, size) for shift in (0, 1) for size in range(1, top + 1)
                     if bareiss_determinant([[s[i + j + shift] for j in range(size)]
                                             for i in range(size)]) <= 0), None)
    assert expected is not None
    assert report.first_nonpositive_hankel == expected
    assert not report.stieltjes_hankels_ok
    if values is THREE_ATOMS:  # the pass ends at sigma_55
        pivots = MomentSequence(SequenceSpec("explicit", values=values)).chebyshev(8).pivots
        assert len(pivots) == 6 and pivots[5] == 0
        assert expected == ((1, 3) if n_max < 8 else (0, 4))


@pytest.mark.parametrize("count, n_max, order", [(1, 0, 0), (2, 0, 1), (3, 1, 1), (4, 1, 2)])
def test_berg_duran_on_a_short_list_reads_only_its_values(count, n_max, order):
    # a(n) = 1/x_{n+1} is differenced up to n_max + order <= count - 1
    report = berg_duran_check(SequenceSpec("explicit", values=[1, 2, 3, 4][:count]), 10)
    assert (report.effective_n_max, report.cm_report.tested_order) == (n_max, order)
    assert report.hausdorff_ok and report.stieltjes_hankels_ok


def test_berg_duran_reads_only_the_moments_its_pivots_need():
    # x_n = 1e100 n: the float running product first overflows at mu_8 = x_4!;
    # n_max = 4 takes the pivots of s_0 .. s_3, n_max = 6 those of s_0 .. s_5
    spec = SequenceSpec("rational", num=[0, 1e100], den=[1])
    report = berg_duran_check(spec, 4)
    assert report.hausdorff_ok and report.stieltjes_hankels_ok
    with pytest.raises(PrecisionError, match="mu_8 = inf"):
        berg_duran_check(spec, 6)


def test_berg_duran_su11():
    report = berg_duran_check(SequenceSpec("su11", j=1), 24, 8)
    assert report.hausdorff_ok and report.stieltjes_hankels_ok


def test_berg_duran_canonical_stieltjes_order_six():
    report = berg_duran_check(SequenceSpec("canonical"), 12, 6)
    assert report.stieltjes_hankels_ok
    assert report.first_nonpositive_hankel is None


def test_berg_duran_ultraspherical():
    report = berg_duran_check(SequenceSpec("ultraspherical", nu=1), 24, 8)
    assert report.hausdorff_ok


def test_berg_duran_hausdorff_fails_for_nonmonotone_reciprocals():
    # 1/x jumps upward between x_2 = 4 and x_3 = 2, so the first difference
    # of the reciprocal sequence has the wrong sign
    values = [1, 4, 2] + [n * n for n in range(4, 40)]
    report = berg_duran_check(SequenceSpec("explicit", values=values), 16, 6)
    assert not report.hausdorff_ok
    assert report.cm_report.first_failure is not None

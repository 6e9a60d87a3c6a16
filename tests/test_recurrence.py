import math
import random
from fractions import Fraction

import pytest

from nlcpoly import (
    MomentSequence, SequenceSpec, bareiss_determinant, build_truncated,
    char_poly, monic_polynomials, monic_q_coefficients, monic_q_polynomials, phi_value,
    phi_window, x_float, x_value,
)
from conftest import (catalog_specs, gegenbauer_exact, hermite_orthonormal_oracle, horner,
                      pollaczek_value)


# -- orthonormal family ---------------------------------------------------------

def test_phi_zero_is_one(canonical):
    assert phi_value(canonical, 0, 1.73) == 1.0


def test_phi_one_canonical(canonical):
    # phi_1 = sqrt(2/x_1) x
    assert phi_value(canonical, 1, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_phi_canonical_matches_hermite_oracle(canonical):
    rng = random.Random(17)
    for n in (0, 1, 2, 3, 7, 12):
        for _ in range(6):
            x = rng.uniform(-3.0, 3.0)
            assert phi_value(canonical, n, x) == pytest.approx(
                hermite_orthonormal_oracle(n, x), rel=1e-11), (n, x)


def test_phi_parity():
    rng = random.Random(23)
    for spec in catalog_specs()[:5]:
        for n in (1, 2, 5, 8):
            x = rng.uniform(0.1, 1.4)
            assert phi_value(spec, n, -x) == pytest.approx(
                (-1) ** n * phi_value(spec, n, x), rel=1e-12)


def test_phi_value_tracks_large_values(canonical):
    # the recurrence is rescaled past 2^512, so values beyond that stay
    # finite and positive until they leave the float range
    values = [phi_value(canonical, n, 60.0) for n in range(401)]
    finite = [v for v in values if math.isfinite(v)]
    assert max(finite) > 2.0 ** 512
    assert all(v > 0 for v in values)
    assert values[-1] == math.inf


def test_phi_window_equals_pointwise_bit_for_bit():
    # rescaling by 2^512 is exact, so every degree matches, including values
    # that overflow to inf far outside the support
    for spec, x in ((SequenceSpec("canonical"), 60.0), (SequenceSpec("su11", j=1), 0.37),
                    (SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2),
                                  a3=Fraction(1, 4)), -1.9)):
        values = phi_window(spec, 0, 400, x).tolist()
        assert values == [phi_value(spec, n, x) for n in range(401)]
        assert values[5:] == phi_window(spec, 5, 400, x).tolist()
    assert math.isinf(phi_window(SequenceSpec("canonical"), 400, 400, 60.0)[0])
    assert phi_window(SequenceSpec("canonical"), 0, 0, 1.3).tolist() == [1.0]


@pytest.mark.parametrize("x", [3.0, -3.0])
def test_phi_window_is_phi_value_through_rescaling_and_overflow(x):
    # outside the support phi_n grows about 4-fold per step: the pass rescales
    # by 2^-512 from n ~ 256 and the entries leave the float range near
    # n = 512, as +inf, or with alternating sign for x < 0
    spec = SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4))
    window = phi_window(spec, 0, 6000, x).tolist()
    ns = sorted({*range(0, 6001, 97), *range(250, 270), *range(500, 530), 5999, 6000})
    assert [window[n].hex() for n in ns] == [phi_value(spec, n, x).hex() for n in ns]
    assert [v.hex() for v in phi_window(spec, 300, 6000, x).tolist()] == [
        v.hex() for v in window[300:]]
    finite = [abs(v) for v in window if math.isfinite(v)]
    assert 2.0 ** 600 < max(finite) and len(finite) < 600
    assert window[6000] == math.inf
    assert window[5999] == math.copysign(math.inf, x)


def test_phi_window_matches_pointwise(su11_j1):
    window = phi_window(su11_j1, 3, 9, 0.37)
    for i, n in enumerate(range(3, 10)):
        assert window[i] == pytest.approx(phi_value(su11_j1, n, 0.37), rel=1e-13)


def test_christoffel_darboux_sum_increasing_at_zero(canonical):
    prev = 0.0
    for top in (0, 2, 4, 6, 8):
        total = sum(phi_value(canonical, k, 0.0) ** 2 for k in range(top + 1))
        assert total > prev
        prev = total


# -- monic family ------------------------------------------------------------------

def test_monic_q_degree_two_generic():
    spec = SequenceSpec("explicit", values=[Fraction(7, 3), 1, 1, 1])
    assert monic_q_coefficients(spec, 2) == [Fraction(-7, 6), 0, 1]


def test_monic_q_canonical_examples(canonical):
    assert monic_q_coefficients(canonical, 0) == [1]
    assert monic_q_coefficients(canonical, 1) == [0, 1]
    assert monic_q_coefficients(canonical, 2) == [Fraction(-1, 2), 0, 1]
    assert monic_q_coefficients(canonical, 3) == [0, Fraction(-3, 2), 0, 1]
    assert monic_q_coefficients(canonical, 4) == [Fraction(3, 4), 0, -3, 0, 1]


def test_monic_su11_exact_coefficients():
    coeffs = monic_q_coefficients(SequenceSpec("su11", j=1), 4)
    assert coeffs[-1] == 1
    assert all(isinstance(c, Fraction) for c in coeffs)
    assert coeffs[3] == 0 and coeffs[1] == 0


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_monic_parity_and_monicity(spec):
    for n in range(1, 11):
        coeffs = monic_q_coefficients(spec, n)
        nonzero = [k for k, c in enumerate(coeffs) if c != 0]
        assert coeffs[-1] == 1
        assert len(nonzero) <= n // 2 + 1
        assert all((n - k) % 2 == 0 for k in nonzero)


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_monic_value_is_horner_on_the_coefficients(spec):
    # q_n(x) for n >= 1 is char_poly of the order-n truncation
    x = Fraction(1, 3)
    for n in (1, 4, 9):
        coeffs = monic_q_coefficients(spec, n)
        assert char_poly(build_truncated(spec, n), x) == horner(coeffs, x)


def _per_degree_q_reference(spec, n):
    """Reference: q_n alone by q_{k+1} = x q_k - (x_k/2) q_{k-1} from q_0,
    entry by entry in the spec's own arithmetic, with no shared kernel."""
    exact = spec.is_rational
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    xs = [x_value(spec, k) if exact else x_float(spec, k) for k in range(1, n)]
    prev, cur = [], [one]
    for k in range(n):
        beta = xs[k - 1] / 2 if k >= 1 else zero
        shifted = [zero] + cur
        prev, cur = cur, [shifted[i] - (beta * prev[i] if i < len(prev) else zero)
                          for i in range(len(shifted))]
    return cur


@pytest.mark.parametrize("spec", [SequenceSpec("su11", j=Fraction(3, 2)),
                                  SequenceSpec("ultraspherical", nu=0.3),
                                  SequenceSpec("jacobi_type", alpha=0.7, beta=1.3)],
                         ids=lambda s: f"{s.family}-{'exact' if s.is_rational else 'float'}")
def test_one_pass_q_polynomials_equal_each_degree(spec):
    polys = monic_q_polynomials(spec, 24)
    assert len(polys) == 25
    for k, poly in enumerate(polys):
        single = monic_q_coefficients(spec, k)
        # repr tells Fraction from float and -0.0 from 0.0
        assert list(map(repr, poly)) == list(map(repr, single)), k
        assert list(map(repr, single)) == list(map(repr, _per_degree_q_reference(spec, k))), k
    assert type(polys[0][0]) is (Fraction if spec.is_rational else float)


@pytest.mark.parametrize("spec", catalog_specs()[:6], ids=lambda s: s.family)
def test_monic_orthonormal_scale_relation(spec):
    # q_n = sqrt(x_n!/2^n) phi_n
    rng = random.Random(29)
    for n in (1, 5, 12, 30):
        scale = math.sqrt(float(MomentSequence(spec).even_moment(n)) / 2.0 ** n)
        for _ in range(5):
            x = rng.uniform(-1.2, 1.2)
            assert char_poly(build_truncated(spec, n), x) == pytest.approx(
                scale * phi_value(spec, n, x), rel=1e-12, abs=1e-13), (spec.family, n, x)


# -- monic recurrence kernel ---------------------------------------------------------

@pytest.mark.parametrize("spec", catalog_specs()[:5], ids=lambda s: s.family)
def test_general_on_half_x_matches_char_poly(spec):
    # a_k = 0, b_k = x_k/2 is the shift recurrence; char_poly is its
    # determinant loop, so the coefficients agree with it exactly at
    # rational points
    polys = monic_polynomials((0, *(x_value(spec, k) / 2 for k in range(1, 12))), Fraction(1))
    rng = random.Random(41)
    for n in range(1, 13):
        truncation = build_truncated(spec, n)
        for _ in range(4):
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            assert horner(polys[n], x) == char_poly(truncation, x), (n, x)


def test_coefficient_kernel_agrees_with_the_jacobi_determinant():
    # b_k of both signs, as an indefinite Chebyshev pass gives them;
    # P_n(x) = det(xI - J_n), J_n with 0 on the diagonal, 1 above it and
    # b_k below it
    rng = random.Random(43)
    beta = [0] + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                  for _ in range(9)]
    assert min(beta) < 0 < max(beta)
    polys = monic_polynomials(beta, Fraction(1))
    assert len(polys) == 11
    for n, poly in enumerate(polys):
        assert len(poly) == n + 1 and poly[-1] == 1
        for x in (Fraction(-3, 2), Fraction(0), Fraction(2, 7)):
            matrix = [[x if j == i else -1 if j == i + 1
                       else -beta[i] if j == i - 1 else 0 for j in range(n)]
                      for i in range(n)]
            assert horner(poly, x) == bareiss_determinant(matrix), (n, x)


def test_general_chebyshev_like_value():
    p3 = monic_polynomials((0, Fraction(1, 4), Fraction(1, 4)), Fraction(1))[3]
    assert p3 == [0, Fraction(-1, 2), 0, 1] and horner(p3, 1) == Fraction(1, 2)


# -- Pollaczek ---------------------------------------------------------------------------

def test_pollaczek_initial_conditions():
    assert pollaczek_value(0.5, 0.25, 0.1, 0, 0.3) == 1.0
    lam, a, b, x = 0.7, 0.2, -0.1, 0.4
    assert pollaczek_value(lam, a, b, 1, x) == pytest.approx(2 * (lam + a) * x + 2 * b)


def test_pollaczek_reduces_to_ultraspherical():
    rng = random.Random(43)
    for lam in (0.5, 1.0, 1.7):
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0)
            assert pollaczek_value(lam, 0.0, 0.0, 2, x) == pytest.approx(
                2 * lam * (lam + 1) * x * x - lam, rel=1e-12, abs=1e-12)
            assert pollaczek_value(lam, 0.0, 0.0, 3, x) == pytest.approx(
                float(gegenbauer_exact(3, Fraction(lam).limit_denominator(10),
                                       Fraction(x))), rel=1e-9, abs=1e-9)


def test_jacobi_type_half_matches_pollaczek_up_to_constants():
    # alpha = 1/2: the recurrence family is the Pollaczek family with
    # lam = a = (beta+1)/2, b = 0, at the argument x/sqrt(2)
    beta = 1
    spec = SequenceSpec("jacobi_type", alpha=Fraction(1, 2), beta=beta)
    lam = (beta + 1) / 2.0
    for n in (1, 2, 3, 5, 8):
        ratios = []
        for x in (0.2, 0.5, 0.9, 1.1):
            pol = pollaczek_value(lam, lam, 0.0, n, x / math.sqrt(2.0))
            phi = phi_value(spec, n, x)
            ratios.append(phi / pol)
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-10), n


# -- ultraspherical identification --------------------------------------------------------

@pytest.mark.parametrize("nu", [1, Fraction(3, 2), 2])
def test_gamma_quotient_phi_is_orthonormal_ultraspherical(nu):
    # phi_n(x) = sqrt(n!(n+nu) / (nu (2nu)_n)) C_n^nu(x / sqrt(2))
    spec = SequenceSpec("gamma_quotient", a=nu + 1, b=nu, c=1)
    rng = random.Random(47)
    for n in (0, 1, 2, 3, 7, 12):
        poch = math.prod(float(2 * nu) + k for k in range(n))
        const = math.sqrt(math.factorial(n) * float(n + nu) / (float(nu) * poch))
        for _ in range(5):
            x = rng.uniform(-1.3, 1.3)
            expected = const * float(gegenbauer_exact(n, Fraction(nu),
                                                      Fraction(x / math.sqrt(2.0))))
            assert phi_value(spec, n, x) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_nu_one_case_is_chebyshev_u():
    spec = SequenceSpec("gamma_quotient", a=2, b=1, c=1)
    for n in (1, 2, 5, 10):
        for x in (0.1, 0.7, 1.2):
            theta = math.acos(x / math.sqrt(2.0))
            u_n = math.sin((n + 1) * theta) / math.sin(theta)
            assert phi_value(spec, n, x) == pytest.approx(u_n, rel=1e-12)


# -- argument rescaling ---------------------------------------------------------------------

def test_rescale_maps_ultraspherical_to_quarter_beta():
    # psi_n(y) = phi_n(y / scale) has monic beta'_n = x_n / (2 scale^2);
    # scale = 1/sqrt(2) sends beta_n -> 1/4 for the unit-limit family
    spec = SequenceSpec("ultraspherical", nu=1)
    scale = 1.0 / math.sqrt(2.0)
    y = 0.35
    psi = [phi_value(spec, n, y / scale) for n in range(4)]
    a = [math.sqrt(x_float(spec, n) / 4.0) for n in range(1, 4)]
    # three-term recurrence with the rescaled coefficients
    assert y * psi[1] == pytest.approx(a[1] * psi[2] + a[0] * psi[0], rel=1e-12)
    assert y * psi[2] == pytest.approx(a[2] * psi[3] + a[1] * psi[1], rel=1e-12)

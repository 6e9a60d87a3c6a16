import math
from fractions import Fraction

import numpy as np
import pytest

from nlcpoly import (
    SequenceSpec, amplitude_extract, get_measure, nevai_amplitude,
    nevai_condition, rescaled_phi_window, x_float, x_limit,
)


# -- Nevai condition ------------------------------------------------------------

def test_grinshpan_converges_with_supquadratic_tail():
    # x_n - 1 = -a1 a2 a3 (2n + a1 + a2 + a3)/den(n): the quadratic terms of
    # numerator and denominator cancel too, so the sharp decay is n^-3
    # (comfortably inside the O(1/n^2) bound that drives summability)
    diag = nevai_condition(SequenceSpec("grinshpan_ismail_s3", a1=1,
                                        a2=Fraction(1, 2), a3=Fraction(1, 4)), 4096)
    assert diag.verdict == "converges"
    assert diag.tail_exponent == pytest.approx(3.0, abs=0.1)


def test_gamma_quotient_converges():
    diag = nevai_condition(SequenceSpec("gamma_quotient", a=3, b=2, c=1), 4096)
    assert diag.verdict == "converges"
    assert diag.tail_exponent == pytest.approx(2.0, abs=0.1)


def test_ultraspherical_first_order_tail_is_not_convergent():
    # deviation ~ 3/(4(n+1)): the fitted exponent sits at the p = 1 margin
    diag = nevai_condition(SequenceSpec("ultraspherical", nu=1), 4096)
    assert diag.verdict != "converges"
    assert diag.tail_exponent == pytest.approx(1.0, abs=0.05)


def test_canonical_diverges_trivially():
    diag = nevai_condition(SequenceSpec("canonical"), 64)
    assert diag.verdict == "diverges"
    assert diag.limit is None


def test_chebyshev_form_converges_with_zero_deviation():
    diag = nevai_condition(SequenceSpec("gamma_quotient", a=2, b=1, c=1), 256)
    assert diag.verdict == "converges"
    assert diag.partial_sum == 0.0


def test_zero_limit_is_inconclusive_without_nan():
    # x_n = 1/n -> 0: the deviations (x_n - M) / M have nothing to divide by
    spec = SequenceSpec("rational", num=[1], den=[0, 1])
    assert x_limit(spec).value == 0
    diag = nevai_condition(spec, 256)
    assert diag.verdict == "inconclusive" and "is 0" in diag.note
    assert (diag.tail_exponent, diag.partial_sum, diag.partial_sums_checkpoints) == (None, None, ())
    with pytest.raises(ValueError, match="positive limit"):
        rescaled_phi_window(spec, 0, 10, 0.3)
    with pytest.raises(ValueError, match="positive limit"):
        amplitude_extract(spec, 0.3, (200, 400))


def test_partial_sums_nondecreasing():
    diag = nevai_condition(SequenceSpec("su11", j=1), 2048)
    sums = [s for _, s in diag.partial_sums_checkpoints]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


@pytest.mark.parametrize("family,params", [
    ("grinshpan_ismail_s3", {"a1": 1, "a2": Fraction(1, 2), "a3": Fraction(1, 4)}),
    ("ultraspherical", {"nu": 1}),
    ("su11", {"j": 1}),
    ("gamma_quotient", {"a": 3, "b": 2, "c": 1}),
])
def test_verdict_stable_under_doubling(family, params):
    spec = SequenceSpec(family, **params)
    assert nevai_condition(spec, 2048).verdict == nevai_condition(spec, 4096).verdict


# -- amplitude extraction -----------------------------------------------------------

def test_chebyshev_amplitude_is_exactly_one():
    spec = SequenceSpec("gamma_quotient", a=2, b=1, c=1)
    for x in (0.0, 0.3, 0.6):
        est = amplitude_extract(spec, x, (2000, 4000))
        assert not est.inconclusive
        assert est.sine_fit_amplitude == pytest.approx(1.0, rel=1e-10)
        assert est.theta_fit == pytest.approx(math.acos(x), rel=1e-6)


def test_amplitude_matches_ultraspherical_weight():
    nu = 2
    spec = SequenceSpec("gamma_quotient", a=nu + 1, b=nu, c=1)
    weight = get_measure("ultraspherical_even", nu=nu)
    for x in (0.0, 0.3, 0.6):
        est = amplitude_extract(spec, x, (2000, 4000))
        expected = nevai_amplitude(weight.density(x), x)
        assert est.sine_fit_amplitude == pytest.approx(expected, rel=0.02), x


def test_amplitude_ratio_between_points():
    nu = Fraction(3, 2)
    spec = SequenceSpec("gamma_quotient", a=nu + 1, b=nu, c=1)
    weight = get_measure("ultraspherical_even", nu=nu)
    est_a = amplitude_extract(spec, 0.2, (2000, 4000))
    est_b = amplitude_extract(spec, 0.5, (2000, 4000))
    expected_ratio = nevai_amplitude(weight.density(0.2), 0.2) \
        / nevai_amplitude(weight.density(0.5), 0.5)
    assert est_a.sine_fit_amplitude / est_b.sine_fit_amplitude == pytest.approx(
        expected_ratio, rel=0.02)


def test_amplitude_parity_at_zero():
    # at x = 0 odd-index values vanish and even-index values alternate sign
    spec = SequenceSpec("gamma_quotient", a=3, b=2, c=1)
    window = rescaled_phi_window(spec, 100, 140, 0.0)
    odd = window[1::2] if 101 % 2 == 1 else window[0::2]
    even = window[0::2] if 100 % 2 == 0 else window[1::2]
    assert np.max(np.abs(odd)) < 1e-12
    signs = np.sign(even)
    assert all(a == -b for a, b in zip(signs, signs[1:]))


def test_amplitude_phase_is_n_independent():
    spec = SequenceSpec("gamma_quotient", a=3, b=2, c=1)
    est1 = amplitude_extract(spec, 0.3, (2000, 3000))
    est2 = amplitude_extract(spec, 0.3, (3000, 4000))
    # compare phases modulo 2 pi
    diff = (est1.phase - est2.phase) % (2 * math.pi)
    diff = min(diff, 2 * math.pi - diff)
    assert diff < 0.05


def test_amplitude_window_too_short_is_inconclusive():
    spec = SequenceSpec("gamma_quotient", a=2, b=1, c=1)
    est = amplitude_extract(spec, 0.999, (100, 110))
    assert est.inconclusive


def test_amplitude_rejects_outside_support():
    spec = SequenceSpec("gamma_quotient", a=2, b=1, c=1)
    with pytest.raises(ValueError):
        amplitude_extract(spec, 1.5, (100, 200))


def _amplitude_reference(spec, x, n_lo, n_hi):
    """(sine fit, envelope, phase, theta) from one lstsq fit per grid
    frequency and a list of window slices for the sliding max."""
    theta = math.acos(x)
    s = math.sqrt(1.0 - x * x) * rescaled_phi_window(spec, n_lo, n_hi, x)
    ns = np.arange(n_lo, n_hi + 1, dtype=float)
    best = (math.inf, None, None)
    for th in np.linspace(0.98 * theta, 1.02 * theta, 81):
        basis = np.column_stack([np.sin((ns + 1.0) * th), np.cos((ns + 1.0) * th)])
        coef, residual, *_ = np.linalg.lstsq(basis, s, rcond=None)
        if residual[0] < best[0]:
            best = (residual[0], coef, float(th))
    (a, b), th = best[1], best[2]
    span = max(int(2 * (2.0 * math.pi / theta)), 4)
    maxima = [float(np.max(np.abs(s[i:i + span]))) for i in range(0, len(s) - span + 1, span)]
    return math.hypot(a, b), float(np.mean(maxima)), math.atan2(-b, a), th


@pytest.mark.parametrize("spec", [
    SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4)),
    SequenceSpec("ultraspherical", nu=0.3),
], ids=lambda s: s.family)
def test_amplitude_fit_matches_one_lstsq_per_frequency(spec):
    # the batched 2 x 2 normal equations round differently from lstsq, so
    # the fit agrees to a tolerance; the frequency and the envelope are equal
    for x in (-0.55, 0.1, 0.45):
        for n_lo, n_hi in ((200, 400), (2000, 4000)):
            est = amplitude_extract(spec, x, (n_lo, n_hi))
            amplitude, envelope, phase, theta = _amplitude_reference(spec, x, n_lo, n_hi)
            assert est.theta_fit == theta and est.envelope_amplitude == envelope
            assert est.sine_fit_amplitude == pytest.approx(amplitude, rel=1e-12, abs=0)
            assert est.phase == pytest.approx(phase, rel=0, abs=1e-12)


def _rescaled_window_reference(spec, n_lo, n_hi, x):
    """The unscaled forward loop psi_{k+1} = (x psi_k - a_k psi_{k-1}) / a_{k+1}
    with a_k = sqrt(x_k / (4M)), reading every x_k as x_float."""
    m = float(x_limit(spec).value)
    out = np.empty(n_hi - n_lo + 1)
    prev, cur = 0.0, 1.0
    if n_lo == 0:
        out[0] = cur
    for k in range(n_hi):
        a_next = math.sqrt(x_float(spec, k + 1) / (4.0 * m))
        a_cur = math.sqrt(x_float(spec, k) / (4.0 * m)) if k >= 1 else 0.0
        prev, cur = cur, (x * cur - a_cur * prev) / a_next
        if k + 1 >= n_lo:
            out[k + 1 - n_lo] = cur
    return out


@pytest.mark.parametrize("spec", [
    SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4)),
    SequenceSpec("q_gamma_quotient", A=Fraction(1, 8), B=Fraction(1, 4),
                 C=Fraction(1, 2), q=Fraction(1, 2)),
    SequenceSpec("jacobi_type", alpha=1, beta=1),
    SequenceSpec("ultraspherical", nu=0.3),
    SequenceSpec("su11", j=Fraction(3, 2)),
], ids=lambda s: s.family)
def test_rescaled_window_equals_unscaled_loop(spec):
    for x, (n_lo, n_hi) in ((0.0, (0, 600)), (0.37, (200, 600)), (-0.81, (599, 600)),
                            (0.999, (0, 0))):
        assert (rescaled_phi_window(spec, n_lo, n_hi, x).tolist()
                == _rescaled_window_reference(spec, n_lo, n_hi, x).tolist())


def test_rescaled_window_needs_finite_limit():
    with pytest.raises(ValueError):
        rescaled_phi_window(SequenceSpec("canonical"), 0, 10, 0.3)

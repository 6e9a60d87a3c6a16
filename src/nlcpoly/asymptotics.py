"""Nevai-class diagnostics and oscillation-amplitude extraction.

After rescaling the argument so that the essential support becomes [-1, 1]
(monic beta'_n = x_n / (4M) -> 1/4 for M = lim x_n), the summability of
|sqrt(beta'_n) - 1/2| decides whether Nevai's theorem applies: then the
orthogonality measure has an absolutely continuous part mu' on [-1, 1] and

    sqrt(1 - x^2) * psi_n(x)  ~  sqrt(2 sqrt(1-x^2) / (pi mu'(x)))
                                 * sin((n+1) theta - phase(theta)),

with x = cos(theta).  Convergence of an infinite series cannot be decided
numerically: the verdict here is a tail-exponent fit with an explicit
inconclusive band, never a proof.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .recurrence import _window
from .sequences import SequenceSpec, _x_minus_limit, x_floats, x_limit

# the shortest scan nevai_condition accepts; a run's nevai_n_max is checked against it
MIN_NEVAI_N = 32


def _sqrt_deviation(spec: SequenceSpec, m: float, ns: np.ndarray) -> np.ndarray:
    """|sqrt(x_n / M) - 1| at the integer indices ``ns``, from x_n - M
    without cancellation, for the finite limit M = ``m``."""
    d = _x_minus_limit(spec, ns) / m
    return np.abs(d) / (np.sqrt(np.maximum(1.0 + d, 0.0)) + 1.0)


class NevaiDiagnostic(NamedTuple):
    verdict: str  # 'converges' | 'diverges' | 'inconclusive'
    tail_exponent: Optional[float]
    partial_sum: Optional[float]
    partial_sums_checkpoints: Tuple[Tuple[int, float], ...]
    n_max: int
    limit: Optional[float]
    note: str = ""


def nevai_condition(spec: SequenceSpec, n_max: int = 4096) -> NevaiDiagnostic:
    """Tail diagnostic for sum_n |sqrt(beta'_n) - 1/2| after rescaling.

    The exponent p of the deviation ~ C n^(-p) is fitted by least squares
    over the last decade of n; p > 1.1 reports 'converges', p < 0.9
    'diverges', the band between is 'inconclusive'.  An unbounded sequence
    diverges trivially; a limit of 0 leaves nothing to rescale by and is
    'inconclusive'.
    """
    if n_max < MIN_NEVAI_N:
        raise ValueError(f"n_max must be at least {MIN_NEVAI_N}")
    lim = x_limit(spec)
    if lim.kind == "infinite":
        return NevaiDiagnostic("diverges", None, None, (), n_max, None,
                               "unbounded recurrence coefficients")
    if lim.kind == "undetermined":
        return NevaiDiagnostic("inconclusive", None, None, (), n_max, None,
                               "limit of x_n could not be determined")
    if not lim.value > 0:
        return NevaiDiagnostic("inconclusive", None, None, (), n_max, 0.0,
                               "limit of x_n is 0: no rescaling to [-1, 1]")
    m = float(lim.value)
    ns = np.arange(1, n_max + 1)
    dev = _sqrt_deviation(spec, m, ns) / 2.0  # |sqrt(beta'_n) - 1/2|
    sums = np.cumsum(dev)
    checkpoints = []
    k = 1
    while k <= n_max:
        checkpoints.append((k, float(sums[k - 1])))
        k *= 4
    checkpoints.append((n_max, float(sums[-1])))

    window = (ns >= max(2, n_max // 10)) & (dev > 1e-17)
    if not np.any(dev[ns >= max(2, n_max // 10)] > 1e-17):
        # deviations vanish identically (already in Chebyshev form)
        return NevaiDiagnostic("converges", math.inf, float(sums[-1]),
                               tuple(checkpoints), n_max, m,
                               "deviations below noise floor")
    if np.count_nonzero(window) < 8:
        return NevaiDiagnostic("inconclusive", None, float(sums[-1]),
                               tuple(checkpoints), n_max, m, "tail too short to fit")
    slope, _ = np.polyfit(np.log(ns[window]), np.log(dev[window]), 1)
    p = -float(slope)
    if p > 1.1:
        verdict = "converges"
    elif p < 0.9:
        verdict = "diverges"
    else:
        verdict = "inconclusive"
    return NevaiDiagnostic(verdict, p, float(sums[-1]), tuple(checkpoints), n_max, m)


# ---------------------------------------------------------------------------
# amplitude extraction
# ---------------------------------------------------------------------------

def rescaled_phi_window(spec: SequenceSpec, n_lo: int, n_hi: int, x: float,
                        ) -> np.ndarray:
    """psi_n(x) for n = n_lo .. n_hi, where psi_n(y) = phi_n(sqrt(2M) y) is
    the orthonormal family rescaled to essential support [-1, 1]: the
    off-diagonal entries of its recurrence are sqrt(x_k / (4M)), for a
    finite limit M > 0."""
    if not 0 <= n_lo <= n_hi:
        raise ValueError("need 0 <= n_lo <= n_hi")
    lim = x_limit(spec)
    if not lim.is_finite:
        raise ValueError("rescaling needs a finite limit of x_n")
    if not lim.value > 0:
        raise ValueError("rescaling needs a positive limit of x_n")
    m = float(lim.value)
    return _window(np.sqrt(x_floats(spec, n_hi) / (4.0 * m)).tolist(), n_lo, x)


class AmplitudeEstimate(NamedTuple):
    x: float
    n_window: Tuple[int, int]
    sine_fit_amplitude: float
    envelope_amplitude: float
    spread: float
    phase: float
    theta_fit: float
    inconclusive: bool
    note: str = ""


def nevai_amplitude(weight_at_x: float, x: float) -> float:
    """Closed-form limiting amplitude sqrt(2 sqrt(1-x^2) / (pi mu'(x))) for a
    known absolutely continuous density value mu'(x)."""
    if not -1.0 < x < 1.0:
        raise ValueError("x must lie in (-1, 1)")
    if weight_at_x <= 0:
        raise ValueError("density must be positive at x")
    return math.sqrt(2.0 * math.sqrt(1.0 - x * x) / (math.pi * weight_at_x))


def _phase_table(phis: np.ndarray, js: np.ndarray) -> np.ndarray:
    """e^(i j phi) for every phi of phis (rows) and integer j of js (columns).

    phi is split as phi_hi + phi_lo with phi_hi rounded to 26 significant
    bits, so j phi_hi is an exact float for j < 2^27 and j phi_lo is tiny:
    the product j phi, thousands of radians, is never rounded."""
    mant, expo = np.frexp(phis)
    hi = np.ldexp(np.round(np.ldexp(mant, 26)), expo - 26)
    return _cis(np.multiply.outer(hi, js)) * _cis(np.multiply.outer(phis - hi, js))


def _cis(arg: np.ndarray) -> np.ndarray:
    """cos(arg) + i sin(arg), from the real cos and sin (faster than np.exp(1j arg))."""
    out = np.empty(arg.shape, dtype=complex)
    out.real, out.imag = np.cos(arg), np.sin(arg)
    return out


def _window_sums(values: np.ndarray, phis: np.ndarray, j0: int) -> np.ndarray:
    """sum_k values[k] e^(i (j0 + k) phi) for every phi of phis.

    With B = ceil(sqrt(len(values))) and k = k1 + B k2 the sum factorizes as
    e^(i j0 phi) sum_k2 e^(i B k2 phi) sum_k1 V[k2, k1] e^(i k1 phi), V the
    values zero-padded to B x B: O(B) exponentials per phi, not one per value."""
    size = math.isqrt(len(values) - 1) + 1
    grid = np.zeros(size * size)
    grid[:len(values)] = values
    ks = np.arange(size, dtype=float)
    inner = np.einsum("ab,gb->ga", grid.reshape(size, size), _phase_table(phis, ks))
    outer = np.einsum("ga,ga->g", inner, _phase_table(phis, size * ks))
    return _phase_table(phis, np.array([float(j0)]))[:, 0] * outer


def amplitude_extract(spec: SequenceSpec, x: float,
                      n_window: Tuple[int, int]) -> AmplitudeEstimate:
    """Amplitude of s_n(x) = sqrt(1-x^2) psi_n(x) over n = n_lo .. n_hi.

    The primary estimate is the least-squares sinusoid
    a sin((n+1) t) + b cos((n+1) t), amplitude hypot(a, b) and phase
    atan2(-b, a), at the frequency t of an 81-point grid over
    [0.98, 1.02] * arccos(x) whose residual is smallest.  Every grid point
    is fitted at once from its 2 x 2 normal equations; their sums
    <s, e^(i(n+1)t)> and <1, e^(2i(n+1)t)> come from factorized
    exponential tables (``_window_sums``) with the argument split so that
    no product (n+1) t is rounded, in O(81 sqrt(width)) exponentials and
    O(81 width) multiply-adds.  The second estimate is the mean of the
    sliding maxima of |s_n| over blocks of about two periods, biased low
    between extrema; ``spread`` is the distance between the two.  The phase
    has no closed-form reference.  A window shorter than four periods is
    inconclusive and every value is NaN.
    """
    n_lo, n_hi = n_window
    if not 0 <= n_lo < n_hi:
        raise ValueError("need 0 <= n_lo < n_hi")
    if not -1.0 < x < 1.0:
        raise ValueError("x must lie inside (-1, 1)")
    return _fit_window(x, n_lo, np.sqrt(1.0 - x * x) * rescaled_phi_window(spec, n_lo, n_hi, x))


def _fit_window(x: float, n_lo: int, s: np.ndarray) -> AmplitudeEstimate:
    """The estimates of :func:`amplitude_extract` from s_n, n = n_lo .. n_lo + len(s) - 1."""
    theta = math.acos(x)
    period = 2.0 * math.pi / theta
    width = len(s)
    n_hi = n_lo + width - 1
    if width < 4 * period:
        return AmplitudeEstimate(x, (n_lo, n_hi), math.nan, math.nan, math.nan,
                                 math.nan, math.nan, True,
                                 "window shorter than four oscillation periods")

    # refine the frequency on a small grid around arccos(x): the least-squares
    # a sin + b cos at every grid point at once, from its 2 x 2 normal equations;
    # <s, e^(i(n+1)t)> = pc + i ps, and <1, e^(2i(n+1)t)> gives ss, cc and sc
    # by sin^2 = (1 - cos 2u) / 2 and sin cos = sin 2u / 2; the residual
    # |s|^2 - a ps - b pc picks the best one
    thetas = np.linspace(0.98 * theta, 1.02 * theta, 81)
    z = _window_sums(s, thetas, n_lo + 1)
    z2 = _window_sums(np.ones(width), 2.0 * thetas, n_lo + 1)
    pc, ps = z.real, z.imag
    ss, cc, sc = (width - z2.real) / 2.0, (width + z2.real) / 2.0, z2.imag / 2.0
    det = ss * cc - sc * sc
    a, b = (cc * ps - sc * pc) / det, (ss * pc - sc * ps) / det
    best = int(np.argmin(s @ s - a * ps - b * pc))
    a, b = float(a[best]), float(b[best])
    amplitude = math.hypot(a, b)
    phase = math.atan2(-b, a)

    # sliding max over ~2 periods
    span = max(int(2 * period), 4)
    maxima = np.abs(s[:width // span * span]).reshape(-1, span).max(axis=1)
    envelope = float(np.mean(maxima))
    return AmplitudeEstimate(x, (n_lo, n_hi), amplitude, envelope,
                             abs(amplitude - envelope), phase, float(thetas[best]), False)

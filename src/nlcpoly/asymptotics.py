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
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .recurrence import _window
from .sequences import SequenceSpec, _x_minus_limit_closed, x_floats, x_limit

# the shortest scan nevai_condition accepts; a run's nevai_n_max is checked against it
MIN_NEVAI_N = 32


def _sqrt_beta_deviation(spec: SequenceSpec, m: float, n_max: int) -> np.ndarray:
    """|sqrt(beta'_n) - 1/2| = |sqrt(x_n / M) - 1| / 2 for n = 1 .. n_max,
    cancellation-free where x_n - M has a closed form."""
    d = _x_minus_limit_closed(spec, np.arange(1, n_max + 1))
    if d is not None:
        ratio = 1.0 + d / m
        return np.abs(d / m) / (np.sqrt(np.maximum(ratio, 0.0)) + 1.0) / 2.0
    return np.abs(np.sqrt(x_floats(spec, n_max) / m) - 1.0) / 2.0


@dataclass(frozen=True)
class NevaiDiagnostic:
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
    diverges trivially.
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
    m = float(lim.value)
    ns = np.arange(1, n_max + 1)
    dev = _sqrt_beta_deviation(spec, m, n_max)
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
    off-diagonal entries of its recurrence are sqrt(x_k / (4M))."""
    if not 0 <= n_lo <= n_hi:
        raise ValueError("need 0 <= n_lo <= n_hi")
    lim = x_limit(spec)
    if not lim.is_finite:
        raise ValueError("rescaling needs a finite limit of x_n")
    m = float(lim.value)
    return _window(np.sqrt(x_floats(spec, n_hi) / (4.0 * m)).tolist(), n_lo, x)


@dataclass(frozen=True)
class AmplitudeEstimate:
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


def amplitude_extract(spec: SequenceSpec, x: float,
                      n_window: Tuple[int, int]) -> AmplitudeEstimate:
    """Envelope of s_n(x) = sqrt(1-x^2) psi_n(x) over the index window.

    Returns a sinusoid least-squares estimate (frequency refined around
    theta = arccos x) and a sliding-max envelope estimate; the sine fit is
    the primary value, the max envelope is biased low between extrema.  The
    fitted phase is reported but has no closed-form reference.
    """
    n_lo, n_hi = n_window
    if not 0 <= n_lo < n_hi:
        raise ValueError("need 0 <= n_lo < n_hi")
    if not -1.0 < x < 1.0:
        raise ValueError("x must lie inside (-1, 1)")
    theta = math.acos(x)
    period = 2.0 * math.pi / theta
    width = n_hi - n_lo + 1
    if width < 4 * period:
        return AmplitudeEstimate(x, (n_lo, n_hi), math.nan, math.nan, math.nan,
                                 math.nan, math.nan, True,
                                 "window shorter than four oscillation periods")
    s = np.sqrt(1.0 - x * x) * rescaled_phi_window(spec, n_lo, n_hi, x)
    ns = np.arange(n_lo, n_hi + 1, dtype=float)

    def fit(th: float):
        arg = (ns + 1.0) * th
        basis = np.column_stack([np.sin(arg), np.cos(arg)])
        coef, residual, *_ = np.linalg.lstsq(basis, s, rcond=None)
        res = float(residual[0]) if len(residual) else float(np.sum((basis @ coef - s) ** 2))
        return coef, res

    # refine the frequency on a small grid around arccos(x)
    best_theta, best_coef, best_res = theta, None, math.inf
    for th in np.linspace(0.98 * theta, 1.02 * theta, 81):
        coef, res = fit(float(th))
        if res < best_res:
            best_theta, best_coef, best_res = float(th), coef, res
    a, b = best_coef
    amplitude = math.hypot(float(a), float(b))
    phase = math.atan2(-float(b), float(a))

    # sliding max over ~2 periods
    span = max(int(2 * period), 4)
    maxima = [float(np.max(np.abs(s[i:i + span])))
              for i in range(0, width - span + 1, span)]
    envelope = float(np.mean(maxima))
    return AmplitudeEstimate(x, (n_lo, n_hi), amplitude, envelope,
                             abs(amplitude - envelope), phase, best_theta, False)

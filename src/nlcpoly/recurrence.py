"""Recurrence-generated polynomials: orthonormal, monic, general and Pollaczek.

The orthonormal family attached to a sequence spec satisfies

    x phi_n(x) = sqrt(x_{n+1}/2) phi_{n+1}(x) + sqrt(x_n/2) phi_{n-1}(x),

with phi_{-1} = 0, phi_0 = 1; its monic companion obeys

    q_{n+1}(x) = x q_n(x) - (x_n / 2) q_{n-1}(x),

and the two are linked by q_n = sqrt(x_n! / 2^n) phi_n.  Forward recurrence
only: in the oscillatory region it is well conditioned, and zeros come from
the spectral module, not from polynomial root hunting.

The monic recurrence P_{k+1} = (x - a_k) P_k - b_k P_{k-1} has one
coefficient kernel, :func:`monic_polynomials`, which serves q_n (a_k = 0,
b_k = x_k / 2) and the determinant polynomials of a moment sequence (the
a_k, b_k of its Chebyshev pass), and one value kernel,
:func:`general_monic_value`, which the package uses for q_n only.
``spectral.char_poly`` keeps its own determinant loop as an independent
check of q_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .sequences import SequenceSpec, x_floats, x_value

_RESCALE_LIMIT = 2.0 ** 512
_RESCALE_SHIFT = 512


def _unscale(mantissa: float, exponent: int) -> float:
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def _window(b: Sequence[float], n_lo: int, x: float) -> np.ndarray:
    """p_n(x) for n = n_lo .. len(b) from one forward pass of the
    orthonormal recurrence x p_k = b_{k+1} p_{k+1} + b_k p_{k-1}, where
    b = (b_1, ..., b_n) are the off-diagonal entries: sqrt(x_k/2) for phi.

    The pass runs on a mantissa and a power of two, rescaled by 2^-512 past
    2^512, and an entry is the mantissa itself while that power is 0."""
    x = float(x)
    exponent = 0
    prev, cur = 0.0, 1.0  # p_{-1}, p_0
    b_cur = 0.0
    out = [cur] if n_lo == 0 else []
    for n, b_next in enumerate(b, 1):
        prev, cur = cur, (x * cur - b_cur * prev) / b_next
        b_cur = b_next
        if abs(cur) > _RESCALE_LIMIT:
            cur = math.ldexp(cur, -_RESCALE_SHIFT)
            prev = math.ldexp(prev, -_RESCALE_SHIFT)
            exponent += _RESCALE_SHIFT
        if n >= n_lo:
            out.append(_unscale(cur, exponent) if exponent else cur)
    return np.array(out)


def phi_value(spec: SequenceSpec, n: int, x: float) -> float:
    """phi_n(x); may overflow to +-inf for large n far outside the support.

    The recurrence runs on a rescaled (mantissa, e) pair, which keeps the
    sign information that a log-space evaluation would lose; outside the
    support the values grow exponentially in n.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _window(np.sqrt(x_floats(spec, n) / 2.0).tolist(), n, x)[-1].item()


def phi_window(spec: SequenceSpec, n_lo: int, n_hi: int, x: float) -> np.ndarray:
    """phi_n(x) for n = n_lo .. n_hi as one pass of the forward recurrence;
    entry n - n_lo equals ``phi_value(spec, n, x)`` bit for bit."""
    if not 0 <= n_lo <= n_hi:
        raise ValueError("need 0 <= n_lo <= n_hi")
    return _window(np.sqrt(x_floats(spec, n_hi) / 2.0).tolist(), n_lo, x)


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Monic three-term recurrence data x P_n = P_{n+1} + alpha_n P_n + beta_n P_{n-1}."""
    alpha: tuple
    beta: tuple  # beta[0] unused in the recurrence (beta_0 P_{-1} := 0)

    def __post_init__(self):
        if any(b <= 0 for b in self.beta[1:]):
            raise ValueError("beta_n must be positive for n >= 1")


def monic_polynomials(coeffs: RecurrenceCoeffs, one) -> List[list]:
    """P_0 .. P_m (m = len(coeffs.alpha)) as ascending coefficient lists from
    one pass of the monic recurrence, with P_0 = ``one``, in the arithmetic
    of the inputs.  ``coeffs`` is anything with ``alpha`` and ``beta``, such
    as a :class:`RecurrenceCoeffs` or a Chebyshev pass."""
    polys = [[one]]
    _extend_monic_polynomials(polys, coeffs)
    return polys


def _extend_monic_polynomials(polys: List[list], coeffs: RecurrenceCoeffs) -> None:
    """Append P_{m+1} .. P_{len(coeffs.alpha)} to ``polys`` = [P_0, ..., P_m]
    in place: the coefficient loop of :func:`monic_polynomials`."""
    zero = polys[0][0] - polys[0][0]
    for k in range(len(polys) - 1, len(coeffs.alpha)):
        a, b = coeffs.alpha[k], coeffs.beta[k]
        cur = polys[k]
        nxt = [zero] + cur  # x P_k
        if a:  # a_k = 0 for q_n and every even moment functional
            for i, c in enumerate(cur):
                nxt[i] -= a * c
        for i, c in enumerate(polys[k - 1] if k else ()):
            nxt[i] -= b * c
        polys.append(nxt)


def general_monic_value(coeffs: RecurrenceCoeffs, n: int, x):
    """P_n(x) for the monic recurrence held in ``coeffs``."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > 0 and (len(coeffs.alpha) < n or len(coeffs.beta) < n):
        raise IndexError(
            f"need alpha_0..alpha_{n-1} and beta_1..beta_{n-1}; "
            f"got {len(coeffs.alpha)} alphas, {len(coeffs.beta)} betas")
    prev, cur = 0 * x, 1 + 0 * x  # matches int/Fraction/float x
    for k in range(n):
        beta_term = coeffs.beta[k] * prev if k >= 1 else 0
        prev, cur = cur, (x - coeffs.alpha[k]) * cur - beta_term
    return cur


def _q_coeffs(spec: SequenceSpec, n: int, exact: bool) -> RecurrenceCoeffs:
    """a_k = 0 and b_k = x_k / 2 for k < n, exact or from the float view."""
    xs = ([x_value(spec, k) for k in range(1, n)] if exact
          else x_floats(spec, max(n - 1, 0)).tolist())
    return RecurrenceCoeffs((0,) * n, (0, *(x / 2 for x in xs)))


def monic_q_value(spec: SequenceSpec, n: int, x):
    """q_n(x) by the monic recurrence; exact when x and the x_k are rational."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    exact = spec.is_rational and isinstance(x, (int, Fraction))
    x = Fraction(x) if exact else float(x)
    return general_monic_value(_q_coeffs(spec, n, exact), n, x)


def monic_q_polynomials(spec: SequenceSpec, n: int) -> List[list]:
    """q_0 .. q_n as ascending coefficient lists from one pass; Fractions
    for a rational spec, floats otherwise.  Alternate entries vanish
    identically because the recurrence preserves parity."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    one = Fraction(1) if spec.is_rational else 1.0
    return monic_polynomials(_q_coeffs(spec, n, spec.is_rational), one)


def monic_q_coefficients(spec: SequenceSpec, n: int) -> list:
    """Ascending coefficients of q_n (the last of :func:`monic_q_polynomials`)."""
    return monic_q_polynomials(spec, n)[-1]

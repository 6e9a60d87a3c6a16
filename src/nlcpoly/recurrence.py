"""Recurrence-generated polynomials: orthonormal, monic, general and Pollaczek.

The orthonormal family attached to a sequence spec satisfies

    x phi_n(x) = sqrt(x_{n+1}/2) phi_{n+1}(x) + sqrt(x_n/2) phi_{n-1}(x),

with phi_{-1} = 0, phi_0 = 1; its monic companion obeys

    q_{n+1}(x) = x q_n(x) - (x_n / 2) q_{n-1}(x),

and the two are linked by q_n = sqrt(x_n! / 2^n) phi_n.  Forward recurrence
only: in the oscillatory region it is well conditioned, and zeros come from
the spectral module, not from polynomial root hunting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .sequences import SequenceSpec, x_floats, x_value

_RESCALE_LIMIT = 2.0 ** 512
_RESCALE_SHIFT = 512


def _phi_steps(b: Sequence[float], x: float) -> Iterator[Tuple[float, int]]:
    """p_0(x) .. p_n(x) as (mantissa, e) pairs from one forward pass of the
    orthonormal recurrence x p_k = b_{k+1} p_{k+1} + b_k p_{k-1}, where
    b = (b_1, ..., b_n) are the off-diagonal entries: sqrt(x_k/2) for phi."""
    x = float(x)
    exponent = 0
    prev, cur = 0.0, 1.0  # p_{-1}, p_0
    b_cur = 0.0
    yield cur, exponent
    for b_next in b:
        prev, cur = cur, (x * cur - b_cur * prev) / b_next
        b_cur = b_next
        if abs(cur) > _RESCALE_LIMIT:
            cur = math.ldexp(cur, -_RESCALE_SHIFT)
            prev = math.ldexp(prev, -_RESCALE_SHIFT)
            exponent += _RESCALE_SHIFT
        yield cur, exponent


def _unscale(mantissa: float, exponent: int) -> float:
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def _window(b: Sequence[float], n_lo: int, x: float) -> np.ndarray:
    """p_n(x) for n = n_lo .. len(b) from one pass of :func:`_phi_steps`."""
    steps = itertools.islice(_phi_steps(b, x), n_lo, None)
    return np.array([_unscale(*step) for step in steps])


def phi_scaled(spec: SequenceSpec, n: int, x: float) -> Tuple[float, int]:
    """phi_n(x) as (mantissa, e) with value mantissa * 2**e.

    Rescaling preserves the sign information that a log-space evaluation
    would lose; outside the support the values grow exponentially in n.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    for step in _phi_steps(np.sqrt(x_floats(spec, n) / 2.0).tolist(), x):
        pass
    return step


def phi_value(spec: SequenceSpec, n: int, x: float) -> float:
    """phi_n(x); may overflow to +-inf for large n far outside the support."""
    return _unscale(*phi_scaled(spec, n, x))


def phi_window(spec: SequenceSpec, n_lo: int, n_hi: int, x: float) -> np.ndarray:
    """phi_n(x) for n = n_lo .. n_hi as one pass of the forward recurrence;
    entry n - n_lo equals ``phi_value(spec, n, x)`` bit for bit."""
    if not 0 <= n_lo <= n_hi:
        raise ValueError("need 0 <= n_lo <= n_hi")
    return _window(np.sqrt(x_floats(spec, n_hi) / 2.0).tolist(), n_lo, x)


def phi_rescaled(spec: SequenceSpec, scale, n: int, y: float) -> float:
    """phi_n(y / scale): the argument substitution used to place the
    essential support on a target interval (scale = 1 is phi itself)."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    return phi_value(spec, n, float(y) / float(scale))


def monic_q_value(spec: SequenceSpec, n: int, x):
    """q_n(x) by the monic recurrence; exact when x and the x_k are rational."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    exact = spec.is_rational and isinstance(x, (int, Fraction))
    if exact:
        x = Fraction(x)
        prev, cur = Fraction(0), Fraction(1)
    else:
        x = float(x)
        prev, cur = 0.0, 1.0
    xs = ([x_value(spec, k) for k in range(1, n)] if exact
          else x_floats(spec, max(n - 1, 0)).tolist())
    for k in range(n):
        beta = xs[k - 1] / 2 if k >= 1 else 0
        prev, cur = cur, x * cur - beta * prev
    return cur


def monic_q_coefficients(spec: SequenceSpec, n: int) -> list:
    """Ascending coefficients of q_n; alternate entries vanish identically
    because the recurrence preserves parity."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    exact = spec.is_rational
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    xs = ([x_value(spec, k) for k in range(1, n)] if exact
          else x_floats(spec, max(n - 1, 0)).tolist())
    prev, cur = [], [one]  # q_{-1} = 0, q_0 = 1
    for k in range(n):
        beta = xs[k - 1] / 2 if k >= 1 else zero
        shifted = [zero] + cur
        nxt = [shifted[i] - (beta * prev[i] if i < len(prev) else zero)
               for i in range(len(shifted))]
        prev, cur = cur, nxt
    return cur


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Monic three-term recurrence data x P_n = P_{n+1} + alpha_n P_n + beta_n P_{n-1}."""
    alpha: tuple
    beta: tuple  # beta[0] unused in the recurrence (beta_0 P_{-1} := 0)
    origin: str = "general"

    def __post_init__(self):
        if any(b <= 0 for b in self.beta[1:]):
            raise ValueError("beta_n must be positive for n >= 1")

    @classmethod
    def general(cls, alpha: Sequence, beta: Sequence) -> "RecurrenceCoeffs":
        return cls(tuple(alpha), tuple(beta), "general")

    @classmethod
    def monic_from_spec(cls, spec: SequenceSpec, n_max: int) -> "RecurrenceCoeffs":
        beta = [Fraction(0)] + [x_value(spec, k) / 2 for k in range(1, n_max + 1)]
        alpha = [Fraction(0)] * (n_max + 1)
        return cls(tuple(alpha), tuple(beta), "from_spec_monic")


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


def pollaczek_value(lam: float, a: float, b: float, n: int, x: float) -> float:
    """Pollaczek polynomial P_n^lam(x; a, b).

    Defined by (n+1) P_{n+1} = 2[(n+lam+a)x + b] P_n - (n+2lam-1) P_{n-1}
    with P_0 = 1 and P_1 = 2(lam+a)x + 2b.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 2.0 * (lam + a) * x + 2.0 * b
    for k in range(1, n):
        nxt = (2.0 * ((k + lam + a) * x + b) * cur - (k + 2.0 * lam - 1.0) * prev) / (k + 1.0)
        prev, cur = cur, nxt
    return cur


def pollaczek_parameter_warning(lam: float, a: float, b: float) -> Optional[str]:
    """None inside the classical orthogonality domain; otherwise a short
    description.  Boundary values are flagged, not rejected: the recurrence
    itself stays well defined."""
    if lam + a <= 0:
        return "lam + a <= 0: recurrence normalization is not positive"
    if lam <= 0:
        return "lam <= 0: outside the classical orthogonality domain"
    if a < abs(b):
        return "a < |b|: orthogonality measure may acquire a discrete part"
    return None

"""Recurrence-generated polynomials: orthonormal and monic.

The orthonormal family attached to a sequence spec satisfies

    x phi_n(x) = sqrt(x_{n+1}/2) phi_{n+1}(x) + sqrt(x_n/2) phi_{n-1}(x),

with phi_{-1} = 0, phi_0 = 1; its monic companion obeys

    q_{n+1}(x) = x q_n(x) - (x_n / 2) q_{n-1}(x),

and the two are linked by q_n = sqrt(x_n! / 2^n) phi_n.  Forward recurrence
only: in the oscillatory region it is well conditioned, and zeros come from
the spectral module, not from polynomial root hunting.

Every recurrence here is symmetric (zero diagonal), and the monic one,
P_{k+1} = x P_k - b_k P_{k-1}, has one kernel, :func:`monic_polynomials`,
which gives coefficients and serves q_n (b_k = x_k / 2) and the determinant
polynomials of an even moment sequence (the b_k of its Chebyshev pass).
A value q_n(x), n >= 1, is ``spectral.char_poly`` of the order-n
truncation, which runs the same recurrence on numbers; the coefficient
kernel is its independent check.
"""

from __future__ import annotations

import math
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


def monic_polynomials(beta: Sequence, one) -> List[list]:
    """P_0 .. P_m (m = len(beta)) as ascending coefficient lists from one
    pass of P_{k+1} = x P_k - b_k P_{k-1}, with P_0 = ``one``, in the
    arithmetic of the inputs; ``beta`` is b_0 .. b_{m-1} (b_0 multiplies
    P_{-1} = 0)."""
    polys = [[one]]
    _extend_monic_polynomials(polys, beta)
    return polys


def _extend_monic_polynomials(polys: List[list], beta: Sequence) -> None:
    """Append P_{m+1} .. P_{len(beta)} to ``polys`` = [P_0, ..., P_m] in
    place: the coefficient loop of :func:`monic_polynomials`."""
    zero = polys[0][0] - polys[0][0]
    for k in range(len(polys) - 1, len(beta)):
        b = beta[k]
        nxt = [zero] + polys[k]  # x P_k
        for i, c in enumerate(polys[k - 1] if k else ()):
            nxt[i] -= b * c
        polys.append(nxt)


def monic_q_polynomials(spec: SequenceSpec, n: int) -> List[list]:
    """q_0 .. q_n as ascending coefficient lists from one pass; Fractions
    for a rational spec, floats from the float view otherwise.  Alternate
    entries vanish identically because the recurrence preserves parity."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if spec.is_rational:
        xs, one = [x_value(spec, k) for k in range(1, n)], Fraction(1)
    else:
        xs, one = x_floats(spec, max(n - 1, 0)).tolist(), 1.0
    return monic_polynomials((0, *(x / 2 for x in xs))[:n], one)


def monic_q_coefficients(spec: SequenceSpec, n: int) -> list:
    """Ascending coefficients of q_n (the last of :func:`monic_q_polynomials`)."""
    return monic_q_polynomials(spec, n)[-1]

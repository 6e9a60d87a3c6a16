"""Sequences generated by completely monotonic gamma- and q-gamma quotients.

Each generator produces a positive sequence x_1, x_2, ... whose partial
products are samples of a completely monotonic function, hence an even
moment sequence.  The closed forms are the ``gamma_quotient``,
``q_gamma_quotient`` and ``grinshpan_ismail_s3`` families in
:mod:`nlcpoly.sequences`; this module adds the direct gamma-function
evaluation routes used to cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence, Tuple

import numpy as np

from .sequences import ParameterDomainError, SequenceSpec, _x_minus_limit, x_float
from .special import log_gamma


# ---------------------------------------------------------------------------
# the F_s gamma-product family
# ---------------------------------------------------------------------------

def fs_subset_sums(s: int, a: Sequence) -> Tuple[list, list]:
    """Sums of the a_i over even-size and odd-size index subsets of {1..s}.

    The empty subset contributes 0 to the even side, so the two lists have
    equal length 2^(s-1).
    """
    if s < 1:
        raise ParameterDomainError("s must be at least 1")
    if len(a) != s:
        raise ParameterDomainError(f"need exactly {s} parameters, got {len(a)}")
    even_sums, odd_sums = [], []
    for size in range(s + 1):
        for idx in combinations(range(s), size):
            total = sum((a[i] for i in idx), start=Fraction(0) if all(
                isinstance(v, (int, Fraction)) for v in a) else 0.0)
            (even_sums if size % 2 == 0 else odd_sums).append(total)
    return even_sums, odd_sums


def log_fs(s: int, a: Sequence, x: float) -> float:
    """log F_s(x): gamma factors Gamma(x + sum) over even subsets in the
    numerator and odd subsets in the denominator."""
    even_sums, odd_sums = fs_subset_sums(s, a)
    if any(x + t <= 0 for t in even_sums + odd_sums):
        raise ParameterDomainError("all gamma arguments must be positive")
    return (sum(log_gamma(x + float(t)) for t in even_sums)
            - sum(log_gamma(x + float(t)) for t in odd_sums))


def fs_quotient(s: int, a: Sequence, a0, n: int) -> float:
    """F_s(n + a0) / F_s(n + a0 - 1), evaluated through log-gamma."""
    return math.exp(log_fs(s, a, n + float(a0)) - log_fs(s, a, n + float(a0) - 1.0))


@dataclass(frozen=True)
class FsConsistencyReport:
    a0: float
    n_max: int
    max_rel_deviation: float
    closed_form_is_a0_one: bool


def fs_quotient_consistency(a0, a1, a2, a3, n_max: int) -> FsConsistencyReport:
    """Compare the direct F_3 quotient with the s = 3 closed form.

    The closed form is tied to the association choice a0 = 1; for other a0
    the report is informational (the quotient defines a shifted sequence).
    """
    if not (a1 >= a2 >= a3 >= 0 and a0 >= 0):
        raise ParameterDomainError("need a1 >= a2 >= a3 >= 0 and a0 >= 0")
    a = (a1, a2, a3)
    spec = SequenceSpec("grinshpan_ismail_s3", a1=a1, a2=a2, a3=a3)
    worst = 0.0
    for n in range(1, n_max + 1):
        via_gamma = fs_quotient(3, a, a0, n)
        closed = x_float(spec, n)
        worst = max(worst, abs(via_gamma - closed) / abs(closed))
    return FsConsistencyReport(float(a0), n_max, worst, a0 == 1)


def sqrt_deviation_scaled(a1, a2, a3, n) -> float:
    """n^2 * |sqrt(x_n) - 1| for the s = 3 sequence, without cancellation.

    Accepts a scalar n >= 1 or an integer array; stays accurate far beyond
    the point where x_n is indistinguishable from 1 in floats.  Float
    parameters enter by their exact binary values, as in ``x_minus_limit``.
    """
    spec = SequenceSpec("grinshpan_ismail_s3", a1=a1, a2=a2, a3=a3)
    nn = np.asarray(n, dtype=float)
    dval = _x_minus_limit(spec, n)
    out = nn * nn * np.abs(dval) / (np.sqrt(1.0 + dval) + 1.0)
    return float(out) if np.isscalar(n) or getattr(n, "ndim", 0) == 0 else out

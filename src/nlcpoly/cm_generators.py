"""The tail of the Grinshpan-Ismail s = 3 sequence.

The closed forms of the completely monotonic gamma- and q-gamma-quotient
families (``gamma_quotient``, ``q_gamma_quotient`` and
``grinshpan_ismail_s3``) live in :mod:`nlcpoly.sequences`; this module adds
the scaled deviation n^2 |sqrt(x_n) - 1| of the s = 3 sequence, which stays
bounded as n grows.
"""

from __future__ import annotations

import numpy as np

from .asymptotics import _sqrt_deviation
from .sequences import SequenceSpec


def sqrt_deviation_scaled(a1, a2, a3, n) -> float:
    """n^2 * |sqrt(x_n) - 1| for the s = 3 sequence, without cancellation.

    Accepts a scalar n >= 1 or an integer array; stays accurate far beyond
    the point where x_n is indistinguishable from 1 in floats.  Float
    parameters enter by their exact binary values, as in ``x_minus_limit``.
    """
    spec = SequenceSpec("grinshpan_ismail_s3", a1=a1, a2=a2, a3=a3)
    nn = np.asarray(n, dtype=float)
    out = nn * nn * _sqrt_deviation(spec, 1.0, n)
    return float(out) if np.isscalar(n) or getattr(n, "ndim", 0) == 0 else out

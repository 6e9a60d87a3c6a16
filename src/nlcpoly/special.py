"""Log-gamma, the modified Bessel function K_nu and the complete-monotonicity
test.

Log-gamma delegates to the math module.  K_nu (Temme's series and Steed's
continued fraction) and the Hausdorff finite-difference criterion are
implemented directly.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional, Tuple


class DomainError(ValueError):
    """Argument outside the implemented domain of a special function."""


def log_gamma(x: float) -> float:
    if x <= 0:
        raise DomainError("log_gamma requires x > 0")
    return math.lgamma(x)


# Taylor coefficients of 1/Gamma(1 + z) at z = 0 (Abramowitz-Stegun 6.1.34),
# split by parity: 1/Gamma(1 + mu) = even(mu^2) + mu * odd(mu^2).  Terms past
# these are below 1e-25 for |mu| <= 1/2.
_RGAMMA_EVEN = (1.0, -0.6558780715202539, 0.16653861138229148, -0.009621971527876973,
                -0.0011651675918590652, 0.0001280502823881162, -1.2504934821426706e-06,
                -2.056338416977607e-07, 5.002007644469223e-09, 1.0434267116911005e-10,
                -3.696805618642206e-12, -2.0583260535665066e-14, 1.2267786282382608e-15)
_RGAMMA_ODD = (0.5772156649015329, -0.04200263503409524, -0.04219773455554433,
               0.0072189432466631, -0.00021524167411495098, -2.013485478078824e-05,
               1.133027231981696e-06, 6.116095104481416e-09, -1.18127457048702e-09,
               7.782263439905071e-12, 5.100370287454476e-13, -5.348122539423018e-15,
               -1.1812593016974588e-16)
_EPS = 1e-16


def _horner(coeffs, t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@functools.lru_cache(maxsize=64)
def _order_constants(nu: float):
    """nu = n + mu with |mu| <= 1/2, and the mu-only factors of Temme's
    series: gam1 = (1/G(1-mu) - 1/G(1+mu)) / (2 mu), gam2 = their mean,
    1/G(1+mu), 1/G(1-mu) and mu pi / sin(mu pi).  Series in mu^2 keep gam1
    free of cancellation as mu -> 0."""
    n = int(nu + 0.5)
    mu = nu - n
    gam1 = -_horner(_RGAMMA_ODD, mu * mu)
    gam2 = _horner(_RGAMMA_EVEN, mu * mu)
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if mu else 1.0
    return n, mu, gam1, gam2, gam2 - mu * gam1, gam2 + mu * gam1, fact


def _k_temme(x: float, mu: float, gam1: float, gam2: float, gampl: float,
             gammi: float, fact: float) -> Tuple[float, float]:
    """K_mu(x) and K_{mu+1}(x) for 0 < x < 2 by Temme's series."""
    half_x = 0.5 * x
    d = -math.log(half_x)
    e = mu * d
    sinhc = math.sinh(e) / e if e else 1.0
    ff = fact * (gam1 * math.cosh(e) + gam2 * sinhc * d)
    total = ff
    e = math.exp(e)
    p = 0.5 * e / gampl          # (x/2)^-mu Gamma(1 + mu) / 2
    q = 0.5 / (e * gammi)        # (x/2)^mu Gamma(1 - mu) / 2
    total1 = p
    c = 1.0
    d = half_x * half_x
    mu2 = mu * mu
    i = 0
    while True:
        i += 1
        ff = (i * ff + p + q) / (i * i - mu2)
        c *= d / i
        p /= i - mu
        q /= i + mu
        term = c * ff
        total += term
        total1 += c * (p - i * ff)
        if abs(term) < abs(total) * _EPS:
            return total, total1 / half_x


def _k_steed_scaled(x: float, mu: float) -> Tuple[float, float]:
    """e^x K_mu(x) and e^x K_{mu+1}(x) for x >= 2 by Steed's algorithm for
    the continued fraction CF2 (Thompson-Barnett)."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    i = 1
    while True:
        i += 1
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < abs(s) * _EPS:
            break
    k_mu = math.sqrt(math.pi / (2.0 * x)) / s
    return k_mu, k_mu * (mu + x + 0.5 - a1 * h) / x


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    K_{-nu} = K_nu, so nu is reduced to |nu| = n + mu with |mu| <= 1/2.
    Temme's series (x < 2) or Steed's continued fraction (x >= 2) give K_mu
    and K_{mu+1}; the recurrence K_{m+1} = K_{m-1} + (2m/x) K_m, stable
    upward, carries them to order |nu| (Temme 1975, J. Comput. Phys. 19;
    Numerical Recipes, bessik).  Returns 0.0 where e^-x underflows and inf
    where the value overflows.
    """
    if not x > 0:
        raise DomainError("bessel_k requires x > 0")
    x = float(x)
    n, mu, gam1, gam2, gampl, gammi, fact = _order_constants(abs(float(nu)))
    if x < 2.0:
        scale = 1.0
        k_lo, k_hi = _k_temme(x, mu, gam1, gam2, gampl, gammi, fact)
    else:
        scale = math.exp(-x)
        if scale == 0.0:
            return 0.0
        k_lo, k_hi = _k_steed_scaled(x, mu)
    two_over_x = 2.0 / x
    for i in range(1, n + 1):
        if k_hi == math.inf:  # K_m increases with m: every later order is inf too
            return math.inf
        k_lo, k_hi = k_hi, k_lo + (mu + i) * two_over_x * k_hi
    return k_lo * scale


# ---------------------------------------------------------------------------
# completely monotonic sequences
# ---------------------------------------------------------------------------

class CMReport(NamedTuple):
    """Outcome of the Hausdorff finite-difference criterion."""
    tested_order: int
    min_signed_difference: float
    passed: bool
    first_failure: Optional[Tuple[int, int]]  # (n, k)
    tolerance: float


def cm_sequence_test(a: Callable[[int], float], n_max: int, order: int = 8) -> CMReport:
    """Check (-1)^k Delta^k a(n) >= -tol for 0 <= k <= order, 0 <= n <= n_max.

    This is the finite-difference necessary criterion for {a(n)} to be a
    Hausdorff moment sequence (samples of a completely monotonic function).
    Differencing amplifies rounding error, so the tolerance is
    1e-12 |a(0)| and orders much beyond 8 are not recommended.
    """
    if n_max < 0 or order < 0:
        raise ValueError("n_max and order must be nonnegative")
    values = [float(a(n)) for n in range(n_max + order + 1)]
    tolerance = 1e-12 * max(abs(values[0]), 1e-300)
    worst = math.inf
    first_failure = None
    row = values
    for k in range(order + 1):
        signed = [(-1) ** k * v for v in row[: n_max + 1]]
        for i, v in enumerate(signed):
            if v < worst:
                worst = v
            if v < -tolerance and first_failure is None:
                first_failure = (i, k)
        row = [b - c for b, c in zip(row[1:], row)]
    return CMReport(order, worst, first_failure is None, first_failure, tolerance)


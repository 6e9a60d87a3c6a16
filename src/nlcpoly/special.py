"""Gamma, q-gamma, the modified Bessel function K_nu and complete-monotonicity
tests.

Gamma delegates to the math module.  K_nu (Temme's series and Steed's
continued fraction), the q-gamma infinite product and the Hausdorff
finite-difference criterion are implemented directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np


class DomainError(ValueError):
    """Argument outside the implemented domain of a special function."""


def gamma(x: float) -> float:
    """Gamma(x) for x > 0; relative error <= 1e-13 up to the overflow edge."""
    if x <= 0:
        raise DomainError("gamma requires x > 0")
    if x > 171.6:
        return math.inf  # use log_gamma beyond the double-precision range
    return math.gamma(x)


def log_gamma(x: float) -> float:
    if x <= 0:
        raise DomainError("log_gamma requires x > 0")
    return math.lgamma(x)


def pochhammer(a, n: int):
    """Shifted factorial (a)_n = a (a+1) ... (a+n-1); exact for exact a."""
    acc = Fraction(1) if isinstance(a, (int, Fraction)) else 1.0
    for k in range(n):
        acc = acc * (a + k)
    return acc


def q_gamma(x: float, q: float) -> float:
    """q-gamma function for 0 < q < 1 and x > 0.

    Computed as (1-q)^(1-x) * prod_{k>=0} (1-q^(k+1)) / (1-q^(x+k)), summed
    in the log domain with a first-order analytic tail correction, so the
    functional equation q_gamma(x+1) = (1-q^x)/(1-q) * q_gamma(x) holds to
    better than 1e-12 relative even for q close to 1.
    """
    if not 0.0 < q < 1.0:
        raise DomainError("q_gamma requires 0 < q < 1")
    if x <= 0:
        raise DomainError("q_gamma requires x > 0")
    q = float(q)
    x = float(x)
    logq = math.log(q)
    # truncate once the factor deviation q^k |q^x - q| is negligible next to
    # the accumulated tail weight 1/(1-q)
    dev = abs(q ** x - q)
    if dev == 0.0:
        return (1.0 - q) ** (1.0 - x)
    n_terms = int(math.ceil((math.log(1e-19) + math.log1p(-q) - math.log(dev)) / logq))
    n_terms = max(n_terms, 8)
    k = np.arange(n_terms, dtype=float)
    total = float(np.sum(np.log1p(-(q ** (k + 1.0))) - np.log1p(-(q ** (x + k)))))
    # first-order tail: sum_{k>=N} (q^(x+k) - q^(k+1)) = q^N (q^x - q)/(1-q)
    total += (q ** n_terms) * (q ** x - q) / (1.0 - q)
    return math.exp((1.0 - x) * math.log1p(-q) + total)


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
        k_lo, k_hi = k_hi, k_lo + (mu + i) * two_over_x * k_hi
    return k_lo * scale


# ---------------------------------------------------------------------------
# completely monotonic sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMReport:
    """Outcome of the Hausdorff finite-difference criterion."""
    tested_order: int
    min_signed_difference: float
    passed: bool
    first_failure: Optional[Tuple[int, int]]  # (n, k)
    tolerance: float


def cm_sequence_test(a: Callable[[int], float], n_max: int, order: int = 8,
                     tolerance: Optional[float] = None, n_min: int = 0) -> CMReport:
    """Check (-1)^k Delta^k a(n) >= -tol for 0 <= k <= order, n_min <= n <= n_max.

    This is the finite-difference necessary criterion for {a(n)} to be a
    Hausdorff moment sequence (samples of a completely monotonic function).
    Differencing amplifies rounding error, so the default tolerance scales
    with |a(n_min)| and orders much beyond 8 are not recommended.
    """
    if n_max < 0 or order < 0:
        raise ValueError("n_max and order must be nonnegative")
    values = [float(a(n)) for n in range(n_min, n_max + order + 1)]
    if tolerance is None:
        tolerance = 1e-12 * max(abs(values[0]), 1e-300)
    worst = math.inf
    first_failure = None
    row = values
    for k in range(order + 1):
        signed = [(-1) ** k * v for v in row[: n_max - n_min + 1]]
        for i, v in enumerate(signed):
            if v < worst:
                worst = v
            if v < -tolerance and first_failure is None:
                first_failure = (n_min + i, k)
        row = [b - c for b, c in zip(row[1:], row)]
    return CMReport(order, worst, first_failure is None, first_failure, tolerance)


def gamma_quotient_g(x: float, a: float, b: float, c: float) -> float:
    """Normalized gamma quotient.

    g(x) = [Gamma(a)Gamma(b) / (Gamma(c)Gamma(a+b-c))]
           * Gamma(x+c)Gamma(x+a+b-c) / (Gamma(x+a)Gamma(x+b)),

    completely monotonic for a >= c, b >= c, c >= 0, with g(0) = 1 and
    g(n) = x_1 x_2 ... x_n for the associated quotient sequence.  Evaluated
    through log-gamma to dodge overflow.
    """
    args = (a, b, c, a + b - c, x + c, x + a + b - c, x + a, x + b)
    if any(t <= 0 for t in args):
        raise DomainError("gamma_quotient_g requires all gamma arguments positive")
    log_val = (log_gamma(a) + log_gamma(b) - log_gamma(c) - log_gamma(a + b - c)
               + log_gamma(x + c) + log_gamma(x + a + b - c)
               - log_gamma(x + a) - log_gamma(x + b))
    return math.exp(log_val)


def q_gamma_quotient_h(x: float, a: float, b: float, c: float, q: float) -> float:
    """q-analogue of :func:`gamma_quotient_g`, built from q-gamma factors."""
    args = (a, b, c, a + b - c, x + c, x + a + b - c, x + a, x + b)
    if any(t <= 0 for t in args):
        raise DomainError("q_gamma_quotient_h requires all arguments positive")
    num = q_gamma(a, q) * q_gamma(b, q) * q_gamma(x + c, q) * q_gamma(x + a + b - c, q)
    den = q_gamma(c, q) * q_gamma(a + b - c, q) * q_gamma(x + a, q) * q_gamma(x + b, q)
    return num / den

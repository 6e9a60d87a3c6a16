"""Shared fixtures, config-text helpers and independent oracles for the test suite.

The oracles here deliberately avoid the library's own recurrence and
elimination code paths: determinants are expanded by cofactors, and the
classical polynomial families are evaluated from their explicit finite sums
with exact rational coefficients.
"""

import os
import tempfile
from fractions import Fraction

import pytest

from nlcpoly import SequenceSpec
from nlcpoly.config import RunConfig, load_config


def horner(coeffs, x):
    """sum_k c_k x^k from ascending coefficients by Horner's rule, in the
    arithmetic of the inputs (oracle only)."""
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def det_cofactor(matrix):
    """Exact determinant by first-row cofactor expansion (oracle only)."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j, entry in enumerate(matrix[0]):
        if entry == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        total += (-1) ** j * entry * det_cofactor(minor)
    return total


def hermite_physicists_exact(n: int, x: Fraction) -> Fraction:
    """H_n(x) from the explicit sum n! sum_m (-1)^m (2x)^(n-2m)/(m!(n-2m)!)."""
    x = Fraction(x)
    total = Fraction(0)
    fact_n = 1
    for k in range(1, n + 1):
        fact_n *= k
    for m in range(n // 2 + 1):
        fm = 1
        for k in range(1, m + 1):
            fm *= k
        fr = 1
        for k in range(1, n - 2 * m + 1):
            fr *= k
        total += Fraction((-1) ** m, fm * fr) * (2 * x) ** (n - 2 * m)
    return fact_n * total


def hermite_orthonormal_oracle(n: int, x: float) -> float:
    """Orthonormal Hermite value for the probability weight exp(-x^2)/sqrt(pi):
    H_n(x)/sqrt(2^n n!)."""
    import math
    value = hermite_physicists_exact(n, Fraction(x))
    return float(value) / math.sqrt(2.0 ** n * math.factorial(n))


def gegenbauer_exact(n: int, nu: Fraction, x: Fraction) -> Fraction:
    """C_n^nu(x) from the explicit sum with exact rational Pochhammer factors."""
    nu, x = Fraction(nu), Fraction(x)
    total = Fraction(0)
    for m in range(n // 2 + 1):
        poch = Fraction(1)
        for k in range(n - m):
            poch *= nu + k
        fm = 1
        for k in range(1, m + 1):
            fm *= k
        fr = 1
        for k in range(1, n - 2 * m + 1):
            fr *= k
        total += Fraction((-1) ** m, fm * fr) * poch * (2 * x) ** (n - 2 * m)
    return total


def pollaczek_value(lam: float, a: float, b: float, n: int, x: float) -> float:
    """Pollaczek polynomial P_n^lam(x; a, b).

    Defined by (n+1) P_{n+1} = 2[(n+lam+a)x + b] P_n - (n+2lam-1) P_{n-1}
    with P_0 = 1 and P_1 = 2(lam+a)x + 2b.
    """
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 2.0 * (lam + a) * x + 2.0 * b
    for k in range(1, n):
        nxt = (2.0 * ((k + lam + a) * x + b) * cur - (k + 2.0 * lam - 1.0) * prev) / (k + 1.0)
        prev, cur = cur, nxt
    return cur


def spec_to_config_text(spec: SequenceSpec) -> str:
    """The config text of a spec with default [run] keys, as the run's
    canonical text writes it; rational parameters keep their p/q form."""
    return RunConfig(spec.family, dict(spec.params)).canonical_text()


def spec_from_config_text(text: str) -> SequenceSpec:
    """The spec of a config text, read by load_config from a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return load_config(path).spec()


def atom_measure_sequence(points, weights, n_terms: int):
    """x_k of the even measure sum w_i (delta_{t_i} + delta_{-t_i})/2,
    computed from exact moment quotients; an independent source of genuine
    moment sequences for property tests."""
    points = [Fraction(p) for p in points]
    weights = [Fraction(w) for w in weights]
    total = sum(weights)
    moments = [sum(w * p ** (2 * n) for w, p in zip(weights, points)) / total
               for n in range(n_terms + 1)]
    return [moments[n] / moments[n - 1] for n in range(1, n_terms + 1)]


def spectral_moments(xs, n_max: int):
    """[M_0, M_2, ..., M_{2 n_max}] of the measure whose monic recurrence is
    r_{n+1} = x r_n - x_n r_{n-1}, with xs = [x_1, x_2, ...].

    M_{2n} is the sum over Dyck paths of length 2n of the product of the
    weights x_h, one for each down-step from height h (Flajolet 1980); odd
    moments vanish.  Computed by a transfer over path heights in exact
    Fractions, independent of the library's recurrence and Hankel code.
    """
    xs = [Fraction(v) for v in xs[:n_max]]
    if len(xs) < n_max:
        raise ValueError(f"need x_1..x_{n_max}, got {len(xs)} values")
    paths = [Fraction(1)] + [Fraction(0)] * n_max  # weight by current height
    moments = [Fraction(1)]
    for step in range(1, 2 * n_max + 1):
        nxt = [Fraction(0)] * (n_max + 1)
        for h, w in enumerate(paths):
            if h < n_max:
                nxt[h + 1] += w
            if h > 0:
                nxt[h - 1] += w * xs[h - 1]
        paths = nxt
        if step % 2 == 0:
            moments.append(paths[0])
    return moments


CATALOG_DEFAULTS = {
    "canonical": {},
    "su11": {"j": 1},
    "barut_girardello": {"j": 1},
    "ultraspherical": {"nu": 1},
    "jacobi_type": {"alpha": 1, "beta": 1},
    "meixner_pollaczek_bessel": {"mu": 1, "nu": Fraction(1, 4), "beta": 2},
    "bessel_k_exp": {"mu": Fraction(3, 2), "nu": Fraction(1, 2)},
    "bessel_k_abs": {"mu": Fraction(3, 2), "nu": Fraction(1, 2)},
    "gamma_quotient": {"a": 3, "b": 2, "c": 1},
    # exponents (a, b, c) = (3, 2, 1) at q = 1/2; B = C would degenerate to
    # the constant sequence of a two-point measure
    "q_gamma_quotient": {"A": Fraction(1, 8), "B": Fraction(1, 4),
                         "C": Fraction(1, 2), "q": Fraction(1, 2)},
    "grinshpan_ismail_s3": {"a1": 1, "a2": Fraction(1, 2), "a3": Fraction(1, 4)},
}


def catalog_specs():
    return [SequenceSpec(name, **params) for name, params in CATALOG_DEFAULTS.items()]


@pytest.fixture
def canonical():
    return SequenceSpec("canonical")


@pytest.fixture
def su11_j1():
    return SequenceSpec("su11", j=1)

import collections
import itertools
import math
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import nlcpoly.sequences
from nlcpoly import (
    MomentSequence, ParameterDomainError, SequenceRangeError, SequenceSpec,
    check_monotone_and_bounded, check_nonlinear_inequalities, monic_q_polynomials,
    phi_value, x_float, x_floats, x_limit, x_minus_limit, x_value,
)
from nlcpoly.sequences import x_factorials, x_log_factorials

from conftest import (CATALOG_DEFAULTS, atom_measure_sequence, catalog_specs,
                      spec_from_config_text, spec_to_config_text)
from test_acceptance import CATALOG_SETTINGS


# -- family formulas ---------------------------------------------------------

def test_canonical_values():
    spec = SequenceSpec("canonical")
    assert x_value(spec, 3) == 3
    assert MomentSequence(spec).even_moment(4) == 24
    assert MomentSequence(spec).even_moment(0) == 1


def test_su11_values():
    spec = SequenceSpec("su11", j=1)
    assert x_value(spec, 1) == Fraction(1, 2)
    moments = MomentSequence(spec)
    assert moments.even_moment(2) == Fraction(1, 3)  # 2!/((2)(3))
    # x_n! = n!/(2j)_n
    for n in range(6):
        poch = math.prod(2 + k for k in range(n))
        assert moments.even_moment(n) == Fraction(math.factorial(n), poch)


def test_ultraspherical_value():
    assert x_value(SequenceSpec("ultraspherical", nu=Fraction(1, 2)), 1) == Fraction(1, 3)


def test_barut_girardello_factorial():
    spec = SequenceSpec("barut_girardello", j=Fraction(3, 2))
    for n in range(5):
        poch = math.prod(3 + k for k in range(n))
        assert MomentSequence(spec).even_moment(n) == math.factorial(n) * poch


def test_jacobi_type_value():
    spec = SequenceSpec("jacobi_type", alpha=1, beta=1)
    # (alpha + n - 1/2) / (alpha + beta + n + 1/2) at n = 2
    assert x_value(spec, 2) == Fraction(5, 2) / Fraction(9, 2)


def test_grinshpan_degenerate_is_one():
    spec = SequenceSpec("grinshpan_ismail_s3", a1=0, a2=0, a3=0)
    assert all(x_value(spec, n) == 1 for n in range(1, 20))
    spec2 = SequenceSpec("grinshpan_ismail_s3", a1=1, a2=0, a3=0)
    assert x_value(spec2, 1) == 1  # 1*2*2*1 / (2*1*1*2)


def test_grinshpan_nondegenerate():
    spec = SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4))
    num = 3 * Fraction(9, 2) * Fraction(17, 4) * Fraction(15, 4)
    den = 4 * Fraction(7, 2) * Fraction(13, 4) * Fraction(19, 4)
    assert x_value(spec, 3) == num / den
    assert all(x_value(spec, n) < 1 for n in range(1, 50))


def test_meixner_pollaczek_bessel_value():
    spec = SequenceSpec("meixner_pollaczek_bessel", mu=1, nu=Fraction(1, 4), beta=2)
    assert x_value(spec, 1) == Fraction(4, 4) * Fraction(5, 4) * Fraction(3, 4)


def test_bessel_k_quartic_matches_direct_product():
    mu, nu = Fraction(3, 2), Fraction(1, 2)
    spec = SequenceSpec("bessel_k_abs", mu=mu, nu=nu)
    for n in range(1, 8):
        direct = ((mu + nu + 2 * n - 2) * (mu + nu + 2 * n - 1)
                  * (mu - nu + 2 * n - 2) * (mu - nu + 2 * n - 1)) \
            / (4 * (mu + 2 * n - Fraction(3, 2)) * (mu + 2 * n - Fraction(1, 2)))
        assert x_value(spec, n) == direct


def test_q_quotient_constant_when_parameters_collide():
    spec = SequenceSpec("q_gamma_quotient", A=Fraction(1, 2), B=Fraction(1, 2),
                        C=Fraction(1, 2), q=Fraction(1, 2))
    assert all(x_value(spec, n) == 1 for n in range(1, 10))


def test_q_quotient_q_to_one_approaches_gamma_quotient():
    a, b, c = 3, 2, 1
    g = SequenceSpec("gamma_quotient", a=a, b=b, c=c)
    gaps = []
    for q in (0.9, 0.99, 0.999):
        spec = SequenceSpec("q_gamma_quotient", A=q ** a, B=q ** b, C=q ** c, q=q)
        gaps.append(max(abs(float(x_value(spec, n)) - float(x_value(g, n)))
                        for n in range(1, 11)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-3


def test_rational_family():
    spec = SequenceSpec("rational", num=[0, 1], den=[1])  # x_n = n
    assert x_value(spec, 7) == 7
    assert x_limit(spec).kind == "infinite"


def test_rational_negative_leading_ratio_is_a_domain_error():
    # x_n = 100 - n passes the check of n <= 64 but tends to -inf
    with pytest.raises(ParameterDomainError, match="leading ratio"):
        SequenceSpec("rational", num=[100, -1], den=[1])


def test_explicit_range_error():
    spec = SequenceSpec("explicit", values=[1, 2])
    with pytest.raises(SequenceRangeError):
        x_value(spec, 3)


def test_parameter_domain_errors():
    with pytest.raises(ParameterDomainError, match="nu"):
        SequenceSpec("ultraspherical", nu=-0.6)
    with pytest.raises(ParameterDomainError, match="half-integer"):
        SequenceSpec("su11", j=0.7)
    with pytest.raises(ParameterDomainError, match="a >= c"):
        SequenceSpec("gamma_quotient", a=1, b=2, c=Fraction(3, 2))
    with pytest.raises(ParameterDomainError, match="ordering|a1"):
        SequenceSpec("grinshpan_ismail_s3", a1=0, a2=1, a3=0)
    # A*B >= C would make x_1 = (1 - C)(1 - AB/C) / ((1 - A)(1 - B)) = -2/3
    with pytest.raises(ParameterDomainError, match="not certified positive"):
        SequenceSpec("q_gamma_quotient", strict=False, A=Fraction(3, 4), B=Fraction(1, 2),
                     C=Fraction(1, 3), q=Fraction(2, 3))
    with pytest.raises(ParameterDomainError, match="unknown family"):
        SequenceSpec("nope")


@pytest.mark.parametrize("params", [
    {"family": "ultraspherical", "nu": math.inf},
    {"family": "ultraspherical", "nu": math.nan},
    {"family": "ultraspherical", "nu": "abc"},
    {"family": "explicit", "values": [1.0, -math.inf]},
], ids=["inf", "nan", "abc", "values"])
def test_non_finite_or_non_numeric_parameters_are_domain_errors(params):
    with pytest.raises(ParameterDomainError, match="finite number"):
        SequenceSpec(**params)


# -- positivity of x_n ----------------------------------------------------------

def test_gamma_quotient_with_a_nonpositive_x_n_is_rejected():
    # x_1 = c (a + b - c) / (a b) = -3 and x_2 = 0; c > 0, a > 0, b > 0 hold
    with pytest.raises(ParameterDomainError, match="not certified positive"):
        SequenceSpec("gamma_quotient", strict=False, a=1, b=1, c=3)


# the clauses a validator keeps at strict=False: positivity does not imply them
KEPT_CLAUSES = {
    "su11": lambda p: p["j"] > 0,
    "barut_girardello": lambda p: p["j"] > 0,
    "meixner_pollaczek_bessel": lambda p: p["mu"] > abs(p["nu"]) and p["beta"] > 0,
    "bessel_k_exp": lambda p: p["mu"] > abs(p["nu"]),
    "bessel_k_abs": lambda p: p["mu"] > abs(p["nu"]),
    "grinshpan_ismail_s3": lambda p: p["a1"] >= p["a2"] >= p["a3"] >= 0,
}


def _positivity_grid():
    """(family, params) over every closed-form family: a quarter step on
    [-2, 2] for one or two parameters, a half step for three, and (0, 1) in
    quarters for the q-quotient; ``rational`` is (n + a) / (n + b)."""
    quarter, half = [k / 4 for k in range(-8, 9)], [k / 2 for k in range(-4, 5)]
    yield "canonical", {}
    for family, names in [("su11", ("j",)), ("barut_girardello", ("j",)),
                          ("ultraspherical", ("nu",)), ("jacobi_type", ("alpha", "beta")),
                          ("bessel_k_exp", ("mu", "nu")), ("bessel_k_abs", ("mu", "nu")),
                          ("meixner_pollaczek_bessel", ("mu", "nu", "beta")),
                          ("gamma_quotient", ("a", "b", "c")),
                          ("grinshpan_ismail_s3", ("a1", "a2", "a3")),
                          ("q_gamma_quotient", ("A", "B", "C", "q"))]:
        grid = ([0.25, 0.5, 0.75] if family == "q_gamma_quotient"
                else half if len(names) == 3 else quarter)
        for values in itertools.product(grid, repeat=len(names)):
            yield family, dict(zip(names, values))
    for a, b in itertools.product(quarter, repeat=2):
        yield "rational", {"num": [a, 1], "den": [b, 1]}


def test_positivity_is_decided_on_every_real_n():
    # A spec is accepted exactly when x(n) > 0 at every real n >= 1, which
    # the grid samples at n = 1, 1 + 1/16, ..., 12 (every numerator or
    # denominator root of these parameters lies on it) and at n <= 300.  On
    # this grid every factor of the float formula is exact in binary, so the
    # signs are the exact ones.  Positivity at real n is more than at the
    # integers: 15 jacobi_type and 38 gamma_quotient specs have
    # x_1 .. x_300 > 0 with a numerator and a denominator that change sign
    # between the same two integers (alpha = -3/4, beta = -1 and
    # a = c = -3/2 give x_n = 1), and are rejected.  Only a rational spec
    # that is not certified falls back to the integers.
    formulas = {spec.family: formula for spec, formula in FLOAT_FORMULAS}
    formulas["canonical"] = lambda p, n: n
    formulas["rational"] = lambda p, n: (n + p["num"][0]) / (n + p["den"][0])
    n = np.concatenate([1 + np.arange(11 * 16 + 1) / 16, np.arange(13, 301)])
    integers = n == np.round(n)
    between_integers = []
    for family, params in _positivity_grid():
        exact = {k: [Fraction(v) for v in p] if isinstance(p, list) else Fraction(p)
                 for k, p in params.items()}
        try:
            SequenceSpec(family, strict=False, **exact)
            accepted = True
        except ParameterDomainError:
            accepted = False
        if not KEPT_CLAUSES.get(family, lambda p: True)(params):
            assert not accepted, (family, params)
            continue
        with np.errstate(all="ignore"):
            x = formulas[family](params, n)
        positive = np.isfinite(x) & (x > 0)
        if family == "rational":  # when not certified, x_1 .. x_64 are scanned
            assert accepted == positive[integers].all(), params
            continue
        assert accepted == positive.all(), (family, params)
        if not accepted and positive[integers].all():
            between_integers.append((family, params))
    assert collections.Counter(family for family, _ in between_integers) == {
        "jacobi_type": 15, "gamma_quotient": 38}
    assert ("jacobi_type", {"alpha": -0.75, "beta": -1}) in between_integers


def test_certified_rational_spec_is_not_scanned(monkeypatch):
    calls = _count_calls(monkeypatch, "_x_ratio")
    # (n^2 + 1) / (n + 2): num den at n = t + 1 has positive coefficients
    SequenceSpec("rational", num=[1, 0, 1], den=[2, 1])
    assert calls == []
    # (n - 5)^2 + 1/100 > 0 is not certified (t^2 - 8t + 1601/100 at
    # n = t + 1), so x_1 .. x_64 are read
    SequenceSpec("rational", num=["2501/100", -10, 1], den=[1])
    assert calls == list(range(1, 65))


# -- one expression per family: the rule, its pair and its float bits ----------

HALF = Fraction(1, 2)

# x_n by the README formula in Fractions: an oracle that shares no code with
# the integer pair that x_value, x_float and x_floats evaluate
EXACT_FORMULAS = {
    "canonical": lambda p, n: Fraction(n),
    "su11": lambda p, n: n / (2 * p["j"] + n - 1),
    "barut_girardello": lambda p, n: n * (2 * p["j"] + n - 1),
    "ultraspherical": lambda p, n: (n - HALF) / (p["nu"] + n),
    "jacobi_type": lambda p, n: (p["alpha"] + n - HALF) / (p["alpha"] + p["beta"] + n + HALF),
    "meixner_pollaczek_bessel": lambda p, n: (
        4 / p["beta"] ** 2 * (p["mu"] + p["nu"] + n - 1) * (p["mu"] - p["nu"] + n - 1)),
    "bessel_k_exp": lambda p, n: ((p["mu"] + p["nu"] + n - 1) * (p["mu"] - p["nu"] + n - 1)
                                  / (2 * (p["mu"] + n - HALF))),
    "bessel_k_abs": lambda p, n: (
        (p["mu"] + p["nu"] + 2 * n - 2) * (p["mu"] + p["nu"] + 2 * n - 1)
        * (p["mu"] - p["nu"] + 2 * n - 2) * (p["mu"] - p["nu"] + 2 * n - 1)
        / (4 * (p["mu"] + 2 * n - 3 * HALF) * (p["mu"] + 2 * n - HALF))),
    "gamma_quotient": lambda p, n: ((p["c"] + n - 1) * (p["a"] + p["b"] - p["c"] + n - 1)
                                    / ((p["a"] + n - 1) * (p["b"] + n - 1))),
    "q_gamma_quotient": lambda p, n: (
        (1 - p["C"] * p["q"] ** (n - 1)) * (1 - p["A"] * p["B"] / p["C"] * p["q"] ** (n - 1))
        / ((1 - p["A"] * p["q"] ** (n - 1)) * (1 - p["B"] * p["q"] ** (n - 1)))),
    "grinshpan_ismail_s3": lambda p, n: (
        n * (n + p["a1"] + p["a2"]) * (n + p["a1"] + p["a3"]) * (n + p["a2"] + p["a3"])
        / ((n + p["a1"]) * (n + p["a2"]) * (n + p["a3"]) * (n + p["a1"] + p["a2"] + p["a3"]))),
    "rational": lambda p, n: (sum(c * n ** k for k, c in enumerate(p["num"]))
                              / sum(c * n ** k for k, c in enumerate(p["den"]))),
}

# every family with a poly_pair, at its catalog parameters and one more exact
# set, and rational rules whose denominators are negative at some n
PAIR_SPECS = [spec for spec in catalog_specs() if spec.family != "q_gamma_quotient"] + [
    SequenceSpec("su11", j=Fraction(5, 2)),
    SequenceSpec("barut_girardello", j=Fraction(3, 2)),
    SequenceSpec("ultraspherical", nu=Fraction(3, 10)),
    SequenceSpec("jacobi_type", alpha=Fraction(1, 3), beta=Fraction(2, 7)),
    SequenceSpec("meixner_pollaczek_bessel", mu=Fraction(7, 3), nu=Fraction(1, 5),
                 beta=Fraction(3, 7)),
    SequenceSpec("bessel_k_exp", mu=Fraction(5, 3), nu=Fraction(2, 7)),
    SequenceSpec("bessel_k_abs", mu=Fraction(5, 3), nu=Fraction(2, 7)),
    SequenceSpec("gamma_quotient", a=Fraction(7, 3), b=Fraction(5, 2), c=Fraction(4, 3)),
    SequenceSpec("grinshpan_ismail_s3", a1=Fraction(5, 3), a2=Fraction(2, 3), a3=Fraction(1, 7)),
    SequenceSpec("rational", num=[0, 1], den=[1]),
    SequenceSpec("rational", num=[Fraction(1, 3), 3, Fraction(2, 7)], den=[2, Fraction(1, 5), 1]),
    SequenceSpec("rational", num=[-2, -1], den=[-1, -1]),
    SequenceSpec("rational", num=["-3/2", "-1/2", 1], den=["-3/2", 1]),  # den(1) < 0 < den(2)
]

# q = 1/2: s = q^(n-1) underflows a float past n = 1075; q = 9/10 and 2/3
# give bases other than powers of two, and A > C > B (strict=False) makes x_n
# decrease to 1
Q_SPECS = [
    SequenceSpec("q_gamma_quotient", A=Fraction(1, 8), B=Fraction(1, 4), C=Fraction(1, 2),
                 q=Fraction(1, 2)),
    SequenceSpec("q_gamma_quotient", A=Fraction(1, 3), B=Fraction(2, 7), C=Fraction(3, 5),
                 q=Fraction(9, 10)),
    SequenceSpec("q_gamma_quotient", strict=False, A=Fraction(3, 4), B=Fraction(1, 5),
                 C=Fraction(1, 2), q=Fraction(2, 3)),
]


@pytest.mark.parametrize("spec", PAIR_SPECS, ids=repr)
def test_rule_agrees_with_its_poly_pair(spec):
    # the pair is what x_limit and poly_pair() read; it must be the formula's
    num, den = spec.poly_pair()
    formula = EXACT_FORMULAS[spec.family]
    for n in range(1, 65):
        assert (sum(c * n ** k for k, c in enumerate(num))
                / sum(c * n ** k for k, c in enumerate(den))) == formula(spec.params, n)
    lim = x_limit(spec)
    if len(num) > len(den):
        assert lim.kind == "infinite"
    else:
        assert lim.kind == "finite"
        assert lim.value == (Fraction(num[-1]) / den[-1] if len(num) == len(den) else 0)


@pytest.mark.parametrize("spec", PAIR_SPECS + Q_SPECS, ids=repr)
def test_exact_rule_matches_the_family_formula(spec):
    n_max = 2000
    expected = [EXACT_FORMULAS[spec.family](spec.params, n) for n in range(1, n_max + 1)]
    values = [x_value(spec, n) for n in range(1, n_max + 1)]
    assert all(type(v) is Fraction for v in values) and values == expected
    # correctly rounded: the same bits as float() of the exact value
    bits = [float(e).hex() for e in expected]
    assert [v.hex() for v in x_floats(spec, n_max).tolist()] == bits
    assert [x_float(spec, n).hex() for n in range(1, n_max + 1, 97)] == bits[::97]


def test_q_quotient_rule_is_not_a_pair_in_n():
    spec = Q_SPECS[0]
    assert spec.poly_pair() is None
    assert x_limit(spec) == x_limit(SequenceSpec("q_gamma_quotient", A=0.125, B=0.25, C=0.5,
                                                 q=0.5))


def test_numpy_integer_index_does_not_wrap():
    # 32 n^4 overflows int64 at n = 10^5; the integer pair works in Python ints
    spec = SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4))
    assert x_value(spec, np.int64(10 ** 5)) == x_value(spec, 10 ** 5)
    assert x_float(spec, np.int64(10 ** 5)) == x_float(spec, 10 ** 5)


def test_vanishing_denominator_past_validation_is_a_domain_error():
    # den = (n - 100)(n - 101) is positive for the n <= 64 that validation reads
    spec = SequenceSpec("rational", num=[1, 0, 1], den=[10100, -201, 1])
    assert x_value(spec, 99) == Fraction(99 ** 2 + 1, 2)
    for read in (lambda: x_value(spec, 100), lambda: x_float(spec, 100),
                 lambda: x_floats(spec, 120)):
        with pytest.raises(ParameterDomainError, match="vanishes at n = 100"):
            read()
    assert x_value(spec, 102) == Fraction(102 ** 2 + 1, 2)


# x_n by the README formula in Python floats.  The float bits are pinned: the
# first nonpositive determinants and Berg-Duran orders of test_moments.py rest
# on them.
FLOAT_FORMULAS = [
    (SequenceSpec("ultraspherical", nu=0.3),
     lambda p, n: (n - 0.5) / (p["nu"] + n)),
    (SequenceSpec("bessel_k_exp", mu=1.7, nu=0.3),
     lambda p, n: ((p["mu"] + p["nu"] + n - 1) * (p["mu"] - p["nu"] + n - 1)
                   / (2 * (p["mu"] + n - 0.5)))),
    (SequenceSpec("jacobi_type", alpha=0.7, beta=1.3),
     lambda p, n: (p["alpha"] + n - 0.5) / (p["alpha"] + p["beta"] + n + 0.5)),
    (SequenceSpec("barut_girardello", strict=False, j=0.75),
     lambda p, n: n * (2 * p["j"] + n - 1)),
    (SequenceSpec("su11", strict=False, j=0.7),
     lambda p, n: n / (2 * p["j"] + n - 1)),
    (SequenceSpec("meixner_pollaczek_bessel", mu=1.3, nu=0.2, beta=0.7),
     lambda p, n: 4 / p["beta"] ** 2 * (p["mu"] + p["nu"] + n - 1) * (p["mu"] - p["nu"] + n - 1)),
    (SequenceSpec("bessel_k_abs", mu=1.7, nu=0.3),
     lambda p, n: ((p["mu"] + p["nu"] + 2 * n - 2) * (p["mu"] + p["nu"] + 2 * n - 1)
                   * (p["mu"] - p["nu"] + 2 * n - 2) * (p["mu"] - p["nu"] + 2 * n - 1)
                   / (4 * (p["mu"] + 2 * n - 1.5) * (p["mu"] + 2 * n - 0.5)))),
    (SequenceSpec("gamma_quotient", a=2.5, b=1.5, c=1.1),
     lambda p, n: ((p["c"] + n - 1) * (p["a"] + p["b"] - p["c"] + n - 1)
                   / ((p["a"] + n - 1) * (p["b"] + n - 1)))),
    (SequenceSpec("q_gamma_quotient", A=0.1, B=0.2, C=0.3, q=0.7),
     lambda p, n: ((1 - p["C"] * p["q"] ** (n - 1))
                   * (1 - (p["A"] * p["B"] / p["C"]) * p["q"] ** (n - 1))
                   / ((1 - p["A"] * p["q"] ** (n - 1)) * (1 - p["B"] * p["q"] ** (n - 1))))),
    (SequenceSpec("grinshpan_ismail_s3", a1=1.3, a2=0.6, a3=0.1),
     lambda p, n: (n * (n + p["a1"] + p["a2"]) * (n + p["a1"] + p["a3"]) * (n + p["a2"] + p["a3"])
                   / ((n + p["a1"]) * (n + p["a2"]) * (n + p["a3"])
                      * (n + p["a1"] + p["a2"] + p["a3"])))),
    (SequenceSpec("rational", num=[1.1, 3.0, 2.0], den=[2.0, 1.0]),
     lambda p, n: ((2.0 * n + 3.0) * n + 1.1) / (1.0 * n + 2.0)),
]


@pytest.mark.parametrize("spec,formula", FLOAT_FORMULAS, ids=lambda v: getattr(v, "family", ""))
def test_float_rule_keeps_the_float_formula_bits(spec, formula):
    assert not spec.is_rational and spec.poly_pair() is None
    for n in range(1, 301):
        value = x_value(spec, n)
        assert type(value) is float and value == formula(spec.params, n), n


def test_one_float_parameter_makes_the_spec_float():
    # x_1 = (1/1)^2 is exact, but x_2 and x_3 are floats
    spec = SequenceSpec("analytic_function",
                        taylor_norms=[1, 1, 1.4142135623730951, 2.449489742783178])
    assert not spec.is_rational
    assert all(type(c) is float for q in monic_q_polynomials(spec, 3) for c in q)


# -- Taylor norms -------------------------------------------------------------

def test_taylor_norms_canonical():
    norms = [1.0] + [math.sqrt(math.factorial(n)) for n in range(1, 9)]
    spec = SequenceSpec("analytic_function", taylor_norms=norms)
    for n in range(1, 8):
        assert x_value(spec, n) == pytest.approx(n, rel=1e-12)


def test_taylor_norms_constant():
    assert x_value(SequenceSpec("analytic_function", taylor_norms=[1, 1, 1, 1]), 2) == 1


def test_taylor_norms_su11():
    j = 1
    norms = [Fraction(1)]
    for n in range(1, 6):
        poch = math.prod(2 * j + k for k in range(n))
        norms.append(Fraction(math.factorial(n), poch))
    # norms here are rho(n)^2 = x_n!; take exact square roots via the quotient
    spec = SequenceSpec("su11", j=j)
    for n in range(1, 6):
        assert norms[n] / norms[n - 1] == x_value(spec, n)


# -- partial products and logs ------------------------------------------------

def test_log_factorial_matches_exact():
    spec = SequenceSpec("barut_girardello", j=1)
    logs = list(x_log_factorials(x_floats(spec, 12).tolist()))
    for n in (0, 1, 5, 12):
        assert logs[n] == pytest.approx(
            math.log(float(MomentSequence(spec).even_moment(n))), rel=1e-13)


@pytest.mark.parametrize("spec", [SequenceSpec("su11", j=Fraction(3, 2)),
                                  SequenceSpec("bessel_k_exp", mu=1.7, nu=0.3)])
def test_running_partial_products_match_the_single_ones(spec):
    # the running products are the moments mu_2n = x_n!, in the rule's own
    # arithmetic, and the running logs read the spec's one float view
    xs = [x_value(spec, k) for k in range(1, 31)]
    products = list(x_factorials(spec, xs))
    logs = list(x_log_factorials(map(float, xs)))
    moments = MomentSequence(spec)
    assert products == [moments.even_moment(n) for n in range(31)]
    assert logs == list(x_log_factorials(x_floats(spec, 30).tolist()))
    assert all(type(p) is (Fraction if spec.is_rational else float) for p in products)


def test_log_factorial_beyond_overflow():
    spec = SequenceSpec("canonical")
    val = list(x_log_factorials(x_floats(spec, 400).tolist()))[-1]
    assert math.isfinite(val)
    assert val == pytest.approx(math.lgamma(401), rel=1e-12)


# -- limits --------------------------------------------------------------------

@pytest.mark.parametrize("family,params,kind,value", [
    ("canonical", {}, "infinite", None),
    ("su11", {"j": 2}, "finite", 1),
    ("ultraspherical", {"nu": 1}, "finite", 1),
    ("jacobi_type", {"alpha": 1, "beta": 1}, "finite", 1),
    ("barut_girardello", {"j": 1}, "infinite", None),
    ("gamma_quotient", {"a": 3, "b": 2, "c": 1}, "finite", 1),
    ("grinshpan_ismail_s3", {"a1": 1, "a2": 0, "a3": 0}, "finite", 1),
    # float parameters: the limit of the pair built on their binary values
    ("rational", {"num": [1.0, 0.1], "den": [1.0, 0.3]}, "finite", Fraction(0.1) / Fraction(0.3)),
    ("q_gamma_quotient", {"A": 0.1, "B": 0.2, "C": 0.3, "q": 0.7}, "finite", 1),
    ("jacobi_type", {"alpha": 0.7, "beta": 1.3}, "finite", 1),
    ("meixner_pollaczek_bessel", {"mu": 1.3, "nu": 0.2, "beta": 0.7}, "infinite", None),
])
def test_closed_form_limits(family, params, kind, value):
    lim = x_limit(SequenceSpec(family, **params))
    assert lim.kind == kind
    if value is not None:
        assert lim.value == value


def test_jacobi_limit_matches_large_n_probe():
    spec = SequenceSpec("jacobi_type", alpha=1, beta=1)
    assert abs(float(x_value(spec, 10 ** 6)) - 1.0) < 3e-6


def test_probed_limit_explicit_list():
    values = [(n - 0.5) / (n + 1.0) for n in range(1, 200)]
    lim = x_limit(SequenceSpec("explicit", values=values))
    assert lim.kind == "finite"
    assert lim.value == pytest.approx(1.0, abs=5e-3)


def test_probed_limit_undetermined_for_short_noise():
    lim = x_limit(SequenceSpec("explicit", values=[1, 2, 1.5, 2.5] * 4))
    assert lim.kind == "undetermined"


def test_probed_limit_growing_taylor():
    norms = [1.0] + [math.sqrt(math.factorial(n)) for n in range(1, 130)]
    assert x_limit(SequenceSpec("analytic_function", taylor_norms=norms)).kind == "infinite"


# -- stable deviation ----------------------------------------------------------

def test_x_minus_limit_stable_far_out():
    spec = SequenceSpec("gamma_quotient", a=3, b=2, c=1)
    # x_n - 1 = -(a-c)(b-c)/((a+n-1)(b+n-1)) = -2/((n+2)(n+1))
    for n in (10, 1000, 10 ** 6):
        assert x_minus_limit(spec, n) == pytest.approx(-2.0 / ((n + 2) * (n + 1)), rel=1e-12)


def test_x_minus_limit_q_family():
    spec = SequenceSpec("q_gamma_quotient", A=Fraction(1, 8), B=Fraction(1, 4),
                        C=Fraction(1, 2), q=Fraction(1, 2))
    for n in (1, 3, 10):
        assert x_minus_limit(spec, n) == pytest.approx(float(x_value(spec, n)) - 1.0,
                                                       abs=1e-15)


def test_x_minus_limit_q_family_uses_the_exact_powers_of_one_half():
    # s = q^(n-1) = 2^-(n-1) is exact in floats, so every deviation up to
    # n = 4096 is within one ulp of the exact x_n - 1, subnormal ones too;
    # a rounded exp((n - 1) log q) is up to 538 ulps off by n = 1020
    spec = SequenceSpec("q_gamma_quotient", A=Fraction(1, 8), B=Fraction(1, 4),
                        C=Fraction(1, 2), q=Fraction(1, 2))
    deviations = nlcpoly.sequences._x_minus_limit(spec, np.arange(1, 4097))
    for n, deviation in enumerate(deviations.tolist(), 1):
        exact = float(x_value(spec, n) - 1)
        assert abs(deviation - exact) <= math.ulp(exact), n


# a list-backed spec long enough for a finite probed limit: x_n = n / (n + 1)
LONG_LIST_SPEC = SequenceSpec("explicit", values=[Fraction(n, n + 1) for n in range(1, 401)])


@pytest.mark.parametrize("spec", [SequenceSpec("su11", j=Fraction(3, 2)), Q_SPECS[0],
                                  LONG_LIST_SPEC], ids=lambda s: s.family)
def test_x_minus_limit_starts_at_n_one(spec):
    m = x_limit(spec).value
    assert x_minus_limit(spec, 1) == pytest.approx(float(x_value(spec, 1) - m), rel=1e-15)
    for n in (0, -3):
        with pytest.raises(SequenceRangeError):
            x_minus_limit(spec, n)
    with pytest.raises(SequenceRangeError):
        nlcpoly.sequences._x_minus_limit(spec, np.arange(0, 5))


# -- float view ------------------------------------------------------------------

FLOAT_VIEW_SPECS = catalog_specs() + [
    SequenceSpec("ultraspherical", nu=0.3),
    SequenceSpec("bessel_k_exp", mu=1.7, nu=0.3),
    SequenceSpec("rational", num=[1, 3, 2], den=[2, 1]),
    SequenceSpec("explicit", values=[1, Fraction(3, 2), 2.5, 3]),
    SequenceSpec("analytic_function", taylor_norms=[1, 1, 1.5, 2.25, 4]),
]


@pytest.mark.parametrize("spec", FLOAT_VIEW_SPECS, ids=lambda s: s.family)
def test_x_floats_equal_x_value_rounded_once(spec):
    n = 4 if spec.family in ("explicit", "analytic_function") else 300
    values = x_floats(spec, n)
    assert values.dtype == np.float64 and len(values) == n
    assert values.tolist() == [float(x_value(spec, k)) for k in range(1, n + 1)]


def _count_calls(monkeypatch, name):
    """The n of every call of nlcpoly.sequences.<name>(spec, n) from now on."""
    calls = []
    real = getattr(nlcpoly.sequences, name)

    def counting(spec, n):
        calls.append(n)
        return real(spec, n)

    monkeypatch.setattr(nlcpoly.sequences, name, counting)
    return calls


@pytest.mark.parametrize("spec", Q_SPECS + [
    SequenceSpec("q_gamma_quotient", A=Fraction(1, 3), B=Fraction(1, 5), C=Fraction(1, 3),
                 q=Fraction(3, 4))], ids=repr)
def test_q_quotient_float_view_settles_on_one_bit_for_bit(spec):
    # from its first entry 1.0 on, x_floats fills 1.0 without evaluating x_n;
    # A = C gives x_n = 1 from n = 1.  The exact x_n is read at every n to
    # 100 past that entry and at every 97th n beyond: Fraction(N, D) at every
    # n to 8000 would take many seconds for q = 9/10.
    n = 8000
    view = x_floats(spec, n).tolist()
    settled = view.index(1.0) + 1
    ks = [*range(1, settled + 101), *range(settled + 101, n, 97), n]
    assert [view[k - 1].hex() for k in ks] == [float(x_value(spec, k)).hex() for k in ks]
    assert set(view[settled - 1:]) == {1.0}


def test_q_quotient_float_view_extends_a_settled_prefix(monkeypatch):
    spec = SequenceSpec("q_gamma_quotient", A=Fraction(1, 8), B=Fraction(1, 4),
                        C=Fraction(1, 2), q=Fraction(1, 2))
    calls = _count_calls(monkeypatch, "_x_ratio")
    short = x_floats(spec, 40).tolist()
    assert calls == list(range(1, 41)) and short[-1] != 1.0
    long = x_floats(spec, 6000).tolist()
    # x_53 is the first entry that rounds to 1.0; nothing past it is evaluated
    assert calls == list(range(1, 54))
    assert long[:40] == short and long[51] != 1.0 and set(long[52:]) == {1.0}
    calls.clear()
    assert x_floats(spec, 7000).tolist() == long + [1.0] * 1000 and calls == []


def test_x_floats_serves_prefixes_read_only():
    spec = SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4))
    assert len(x_floats(spec, 0)) == 0
    short = x_floats(spec, 10)
    long = x_floats(spec, 50)
    assert long[:10].tolist() == short.tolist()
    assert x_floats(spec, 20).tolist() == long[:20].tolist()
    for view in (short, long, x_floats(spec, 20)):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0.0
    with pytest.raises(SequenceRangeError):
        x_floats(spec, -1)


def test_x_floats_list_backed_range_error():
    spec = SequenceSpec("explicit", values=[1, 2, 3])
    assert x_floats(spec, 3).tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(SequenceRangeError):
        x_floats(spec, 4)
    with pytest.raises(SequenceRangeError):
        x_floats(SequenceSpec("analytic_function", taylor_norms=[1, 2, 3]), 3)


def test_x_floats_consistent_across_threads():
    spec = SequenceSpec("jacobi_type", alpha=1, beta=Fraction(1, 3))
    expected = [float(x_value(spec, k)) for k in range(1, 401)]
    results = []

    def reader(seed):
        lengths = [random.Random(seed).randint(0, 400) for _ in range(40)]
        results.extend((n, x_floats(spec, n).tolist()) for n in lengths)

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 320 and all(vals == expected[:n] for n, vals in results)


def test_phi_value_reads_each_x_once(monkeypatch):
    # x_floats builds an exact closed-form spec's floats from _x_ratio
    spec = SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4))
    calls = _count_calls(monkeypatch, "_x_ratio")
    first = phi_value(spec, 1000, 0.3)
    assert calls == list(range(1, 1001))
    calls.clear()
    assert phi_value(spec, 1000, 0.3) == first
    assert phi_value(spec, 400, -0.7) == phi_value(spec, 400, -0.7)
    assert spec.is_rational
    assert calls == []


# -- monotonicity and boundedness ----------------------------------------------

def test_sequence_equal_to_its_limit_is_not_bounded():
    # su11 at j = 1/2: x_n = n / n = 1 = M, so num - M den vanishes identically
    spec = SequenceSpec("su11", j=Fraction(1, 2))
    rep = check_monotone_and_bounded(spec, 20)
    assert (rep.monotone, rep.first_violation) == (False, 2)
    assert (rep.bounded_by_L2, rep.bound_first_violation) == (False, 1)
    assert x_minus_limit(spec, 7) == 0.0


@pytest.mark.parametrize("num, den, report", [
    ([-2, -1], [-1, -1], (False, 2, False, 1)),                       # (n+2)/(n+1)
    (["-3/2", "-1/2", 1], ["-3/2", 1], (True, None, None, None)),      # n + 1
    ([0, -1], [-1, -1], (True, None, True, None)),                     # n/(n+1)
], ids=["decreasing_above_limit", "linear", "increasing_below_limit"])
def test_scan_reads_values_not_signs_of_negative_denominators(num, den, report):
    rep = check_monotone_and_bounded(SequenceSpec("rational", num=num, den=den), 100)
    assert (rep.monotone, rep.first_violation,
            rep.bounded_by_L2, rep.bound_first_violation) == report


def test_monotone_canonical():
    rep = check_monotone_and_bounded(SequenceSpec("canonical"), 100)
    assert rep.monotone and rep.first_violation is None
    assert rep.bounded_by_L2 is None  # no finite limit


def test_monotone_ultraspherical_bounded():
    rep = check_monotone_and_bounded(SequenceSpec("ultraspherical", nu=1), 1000)
    assert rep.monotone and rep.bounded_by_L2


def test_monotone_explicit_violation():
    rep = check_monotone_and_bounded(SequenceSpec("explicit", values=[1, 3, 2]), 3)
    assert not rep.monotone
    assert rep.first_violation == 3


def test_ultraspherical_monotone_iff_weight_integrable():
    bad = check_monotone_and_bounded(SequenceSpec("ultraspherical", nu=-0.6, strict=False), 50)
    assert not bad.monotone and bad.first_violation == 2
    good = check_monotone_and_bounded(SequenceSpec("ultraspherical", nu=-0.4), 1000)
    assert good.monotone and good.bounded_by_L2


@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_catalog_monotone_and_bounded_10k(spec):
    rep = check_monotone_and_bounded(spec, 10 ** 4)
    assert rep.monotone, (spec.family, rep.first_violation)
    if rep.limit.is_finite:
        assert rep.bounded_by_L2, (spec.family, rep.bound_first_violation)


def test_canonical_unbounded_growth():
    spec = SequenceSpec("canonical")
    for bound in (10, 10 ** 3, 10 ** 6):
        assert float(x_value(spec, int(bound) + 1)) > bound


# -- nonlinear necessary inequalities -------------------------------------------

@pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.family)
def test_inequalities_hold_on_catalog(spec):
    rep = check_nonlinear_inequalities(spec, 100)
    assert rep.ineq1_ok and rep.ineq2_ok, rep.violations[:3]


def test_inequalities_hold_on_atom_measure_sequences():
    # genuine moment sequences from random even atom measures
    import random
    rng = random.Random(7)
    for _ in range(20):
        pts = sorted(rng.uniform(0.1, 3.0) for _ in range(4))
        wts = [rng.uniform(0.1, 1.0) for _ in range(4)]
        xs = atom_measure_sequence([Fraction(p).limit_denominator(1000) for p in pts],
                                   [Fraction(w).limit_denominator(1000) for w in wts], 12)
        rep = check_nonlinear_inequalities(SequenceSpec("explicit", values=xs), 12)
        assert rep.ineq1_ok and rep.ineq2_ok, rep.violations[:2]


def test_inequality_violating_list():
    spec = SequenceSpec("explicit", values=[1, 2, 3, 4, 100, 4.01])
    rep = check_nonlinear_inequalities(spec, 6)
    assert not rep.ineq2_ok
    assert any(name == "ineq2" for name, *_ in rep.violations)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_short_lists_get_reports(count):
    # fewer than four values leave no window x_{n+1} .. x_{n+4}; four leave one
    spec = SequenceSpec("explicit", values=[1, 2, 3, 4][:count])
    assert check_nonlinear_inequalities(spec, 10) == nlcpoly.InequalityReport(
        True, True, (), False)
    mono = check_monotone_and_bounded(spec, 10)
    assert (mono.monotone, mono.first_violation, mono.certified_all_n) == (True, None, False)


def test_inequality_precondition():
    with pytest.raises(ValueError):
        check_nonlinear_inequalities(SequenceSpec("canonical"), 4)


# -- all-n certificates ------------------------------------------------------------

# specs that break a claim, or whose denominator changes sign: ultraspherical
# below nu = -1/2 (exact and float), su11 at j = 1/2 (x_n = 1 = M), the three
# rational rules with negative denominators ((n+2)/(n+1) decreases above its
# limit, n + 1 has den(1) < 0 < den(2), n/(n+1) holds every claim), and the
# q-quotient with C < A, which decreases to 1
VIOLATOR_SPECS = [
    SequenceSpec("ultraspherical", strict=False, nu=Fraction(-3, 5)),
    SequenceSpec("ultraspherical", strict=False, nu=-0.6),
    SequenceSpec("su11", j=Fraction(1, 2)),
    SequenceSpec("rational", num=[-2, -1], den=[-1, -1]),
    SequenceSpec("rational", num=["-3/2", "-1/2", 1], den=["-3/2", 1]),
    SequenceSpec("rational", num=[0, -1], den=[-1, -1]),
    Q_SPECS[2],
]


def _label(spec):
    return repr(spec) + ("" if spec.strict else " strict=False")


CERTIFICATE_SPECS = list({_label(spec): spec for spec in (
    [SequenceSpec(family, **params)
     for family, settings in CATALOG_SETTINGS.items() for params in settings]
    + PAIR_SPECS + Q_SPECS + VIOLATOR_SPECS)}.values())


@pytest.mark.parametrize("spec", CERTIFICATE_SPECS, ids=_label)
def test_certified_reports_equal_the_scans(spec):
    # a certificate decides a claim only where the scan finds no violation,
    # and a spec it leaves to the scan gets the scan's report unchanged
    n_max = 300 if spec.family == "q_gamma_quotient" else 2000
    mono = check_monotone_and_bounded(spec, n_max)
    scan = nlcpoly.sequences._scan_monotone(spec, n_max, mono.limit)
    assert replace(mono, certified_all_n=False) == scan
    ineq = check_nonlinear_inequalities(spec, 300)
    assert replace(ineq, certified_all_n=False) == nlcpoly.sequences._scan_inequalities(spec, 300)
    if spec in VIOLATOR_SPECS[:3]:  # x_2 <= x_1 and a window inequality fails
        assert mono.first_violation == 2 and not ineq.ineq1_ok
    # every exact claim that holds here is certified, except on n + 1, whose
    # denominator changes sign
    certifiable = spec.is_rational and spec != VIOLATOR_SPECS[4]
    assert mono.certified_all_n == (
        certifiable and mono.monotone and mono.bounded_by_L2 is not False)
    assert ineq.certified_all_n == (certifiable and ineq.ineq1_ok and ineq.ineq2_ok)


@pytest.mark.parametrize("spec", [
    SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4)),
    SequenceSpec("jacobi_type", alpha=1, beta=1),
    Q_SPECS[0],
], ids=lambda s: s.family)
def test_certified_path_reads_no_x_value(spec, monkeypatch):
    calls = _count_calls(monkeypatch, "x_value")
    mono = check_monotone_and_bounded(spec, 10 ** 4)
    ineq = check_nonlinear_inequalities(spec, 10 ** 3)
    assert (mono.monotone, mono.bounded_by_L2, mono.certified_all_n) == (True, True, True)
    assert ineq == nlcpoly.InequalityReport(True, True, (), True)
    assert calls == []


def test_uncertified_claims_fall_back_to_the_scan(monkeypatch):
    calls = _count_calls(monkeypatch, "x_value")
    # n + 1 holds every claim, but den(n) = n - 3/2 changes sign at n = 1, 2
    linear = SequenceSpec("rational", num=["-3/2", "-1/2", 1], den=["-3/2", 1])
    mono = check_monotone_and_bounded(linear, 100)
    assert (mono.monotone, mono.bounded_by_L2, mono.certified_all_n) == (True, None, False)
    assert calls == list(range(1, 101))
    calls.clear()
    ineq = check_nonlinear_inequalities(linear, 100)
    assert ineq == nlcpoly.InequalityReport(True, True, (), False)
    assert calls == list(range(1, 101))
    # here the first inequality is certified, but the second is broken at
    # every window, so both are scanned and only ineq2 is reported
    spec = SequenceSpec("rational", num=[Fraction(1, 3), 3, Fraction(2, 7)],
                        den=[2, Fraction(1, 5), 1])
    calls.clear()
    ineq = check_nonlinear_inequalities(spec, 100)
    assert (ineq.ineq1_ok, ineq.ineq2_ok, ineq.certified_all_n) == (True, False, False)
    assert [(name, n) for name, n, *_ in ineq.violations] == [("ineq2", n) for n in range(97)]
    assert calls == list(range(1, 101))


# The q-quotient's pair, with K = (A - C)(B - C) / C and s = q^(n-1),
# satisfies
#     num(qs) den(s) - num(s) den(qs) = K s (1 - q) (1 - ABq s^2),
#     M den(s) - num(s) = K s            (M = 1).
# Divided by s and at s = 1 / (1 + u), u >= 0, the first is
# K (1 - q) ((1 + u)^2 - ABq), and den(1 / (1 + u)) (1 + u)^2 has the
# coefficients (1 - A)(1 - B), 2 - A - B, 1: for K > 0 every coefficient is
# positive, so the sign certificate decides both claims for every n.  For
# K <= 0, x_1 >= 1 = M and x_2 <= x_1, which the scan finds at n = 1 and 2.
Q_GRID = [(A, B, C, q) for q in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
          for A, B, C in itertools.product([Fraction(k, 6) for k in range(1, 6)], repeat=3)
          if A * B < C]


def _q_spec(A, B, C, q):
    # A, B > C needs strict=False
    return SequenceSpec("q_gamma_quotient", strict=A <= C and B <= C, A=A, B=B, C=C, q=q)


def test_q_quotient_holding_specs_are_certified(monkeypatch):
    calls = _count_calls(monkeypatch, "x_value")
    holding = [_q_spec(*p) for p in Q_GRID if (p[0] - p[2]) * (p[1] - p[2]) > 0]
    assert any(not spec.strict for spec in holding)
    for spec in holding:
        mono = check_monotone_and_bounded(spec, 100)
        assert (mono.monotone, mono.bounded_by_L2, mono.certified_all_n) == (True, True, True)
        assert check_nonlinear_inequalities(spec, 100) == nlcpoly.InequalityReport(
            True, True, (), True)
    assert calls == []


def test_q_quotient_violators_stop_at_n_two(monkeypatch):
    calls = _count_calls(monkeypatch, "x_value")
    for spec in [_q_spec(*p) for p in Q_GRID if (p[0] - p[2]) * (p[1] - p[2]) <= 0]:
        calls.clear()
        rep = check_monotone_and_bounded(spec, 100)
        assert (rep.monotone, rep.first_violation, rep.bounded_by_L2, rep.bound_first_violation,
                rep.certified_all_n) == (False, 2, False, 1, False), spec
        assert calls == [1, 2]


def test_list_specs_keep_their_scans():
    for spec in (SequenceSpec("explicit", values=[1, 2, 3, 4, 5, 6]), LONG_LIST_SPEC):
        assert not check_monotone_and_bounded(spec, 100).certified_all_n
        assert not check_nonlinear_inequalities(spec, 100).certified_all_n


def _lifted(spec):
    """The spec on the exact binary values of its float parameters."""
    return SequenceSpec(spec.family, strict=spec.strict, **{
        key: tuple(map(Fraction, value)) if isinstance(value, tuple) else Fraction(value)
        for key, value in spec.params.items()})


@pytest.mark.parametrize("spec", [spec for spec, _ in FLOAT_FORMULAS], ids=lambda s: s.family)
def test_float_spec_reports_equal_the_scans_of_its_binary_values(spec):
    # a float spec is certified on the binary values of its parameters, and
    # every one here certifies both checks; the exact window scan of the
    # lifted q-quotient takes 37 s to n = 300
    lifted = _lifted(spec)
    n_mono, n_ineq = (300, 100) if spec.family == "q_gamma_quotient" else (2000, 300)
    mono = check_monotone_and_bounded(spec, n_mono)
    assert mono.limit == x_limit(lifted)
    assert replace(mono, certified_all_n=False) == nlcpoly.sequences._scan_monotone(
        lifted, n_mono, mono.limit)
    ineq = check_nonlinear_inequalities(spec, n_ineq)
    assert replace(ineq, certified_all_n=False) == nlcpoly.sequences._scan_inequalities(
        lifted, n_ineq)
    assert mono.certified_all_n and ineq.certified_all_n


@pytest.mark.parametrize("spec", [spec for spec, _ in FLOAT_FORMULAS
                                  if x_limit(spec).is_finite], ids=lambda s: s.family)
def test_float_spec_x_minus_limit_is_its_binary_values_rounded(spec):
    # the exact x_n - M of the lifted spec from its integer pair, N/D - M:
    # the integers of the q-quotient at n = 10^5 have millions of bits, and
    # Fraction(N, D) would reduce them.  The q-quotient's s = q^(n-1) is one
    # rounded power, so it needs no wider bound than the others.
    lifted, m = _lifted(spec), x_limit(spec).value
    for n in (1, 10, 10 ** 3, 10 ** 5):
        N, D = nlcpoly.sequences._x_ratio(lifted, n)
        exact = (N * m.denominator - m.numerator * D) / (D * m.denominator)
        assert abs(x_minus_limit(spec, n) - exact) <= 2 * math.ulp(exact), n


@pytest.mark.parametrize("nu", [1e-300, 1e-290])
def test_x_minus_limit_of_a_tiny_float_parameter(nu):
    # the binary value of nu clears to integers of over 1000 bits, past the
    # float range; x_n - M still matches the lifted spec's exact value
    spec = SequenceSpec("ultraspherical", nu=nu)
    lifted = SequenceSpec("ultraspherical", nu=Fraction(nu))
    m = x_limit(spec).value
    for n in (1, 10, 10 ** 3, 10 ** 6):
        exact = float(x_value(lifted, n) - m)
        assert abs(x_minus_limit(spec, n) - exact) <= 2 * math.ulp(exact), n
    deviations = nlcpoly.sequences._x_minus_limit(spec, np.arange(1, 4097))
    assert np.all(np.isfinite(deviations)) and np.all(deviations < 0)


def test_poly_shift_and_sign_certificate():
    Poly = nlcpoly.sequences._Poly
    p = Poly([2, -3, 1])  # (t - 1)(t - 2)
    assert p.shift(3).coeffs == [2, 3, 1] and p.shift(3).positive()  # (t + 2)(t + 1)
    assert not p.positive() and not p.shift(1).positive()  # zero at t = 0
    # in s = q^t with q = 1/2: 1 - s/4 is positive on (0, 1], 1 - 2s is not
    assert Poly([4, -1]).positive((1, 2)) and not Poly([1, -2]).positive((1, 2))
    assert Poly([1, -2]).shift(1, (1, 2)).coeffs == [2, -2]  # 2 (1 - s): zero at s = 1
    assert not Poly([2, -2]).positive((1, 2)) and not Poly([0, 0]).positive((1, 2))
    assert Poly([0, 0, 3, -1]).positive((1, 2))  # s^2 (3 - s)


# -- grinshpan tail --------------------------------------------------------------

def test_grinshpan_scaled_sqrt_deviation_bounded():
    from nlcpoly import sqrt_deviation_scaled
    import numpy as np
    ns = np.arange(1, 10 ** 5 + 1)
    vals = sqrt_deviation_scaled(1, Fraction(1, 2), Fraction(1, 4), ns)
    assert np.isfinite(vals).all()
    assert vals.max() < 1.0
    # the sup is attained early
    assert int(ns[vals.argmax()]) < 100


# -- serialization ----------------------------------------------------------------

@pytest.mark.parametrize("family,params", sorted(CATALOG_DEFAULTS.items()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_config_round_trip_lossless(family, params):
    spec = SequenceSpec(family, **params)
    again = spec_from_config_text(spec_to_config_text(spec))
    assert again == spec
    for key, value in spec.params.items():
        assert again.params[key] == value
        if isinstance(value, Fraction):
            assert isinstance(again.params[key], Fraction)


def test_config_round_trip_explicit_list():
    spec = SequenceSpec("explicit", values=[1, Fraction(3, 2), 2])
    again = spec_from_config_text(spec_to_config_text(spec))
    assert again.params["values"] == (1, Fraction(3, 2), 2)


def test_taylor_norms_range_error():
    with pytest.raises(SequenceRangeError):
        x_value(SequenceSpec("analytic_function", taylor_norms=[1, 2, 3]), 3)

import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import nlcpoly.sequences
from nlcpoly import (
    MomentSequence, ParameterDomainError, SequenceRangeError, SequenceSpec,
    check_monotone_and_bounded, check_nonlinear_inequalities, monic_q_polynomials,
    phi_value, x_floats, x_limit, x_minus_limit, x_value,
)
from nlcpoly.config import spec_from_config_text, spec_to_config_text
from nlcpoly.sequences import x_factorials, x_log_factorials

from conftest import CATALOG_DEFAULTS, atom_measure_sequence, catalog_specs


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


# -- one expression per family: the rule, its pair and its float bits ----------

# every family with a poly_pair, at its catalog parameters and one more exact set
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
]


@pytest.mark.parametrize("spec", PAIR_SPECS, ids=repr)
def test_rule_agrees_with_its_poly_pair(spec):
    num, den = spec.poly_pair()
    for n in range(1, 65):
        value = x_value(spec, n)
        assert type(value) is Fraction
        assert value == (sum(c * n ** k for k, c in enumerate(num))
                         / sum(c * n ** k for k, c in enumerate(den)))
    lim = x_limit(spec)
    if len(num) > len(den):
        assert lim.kind == "infinite"
    else:
        assert lim.kind == "finite"
        assert lim.value == (Fraction(num[-1]) / den[-1] if len(num) == len(den) else 0)


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
    lim = x_limit(SequenceSpec("explicit", values=values), probe_depth=128)
    assert lim.kind == "finite"
    assert lim.value == pytest.approx(1.0, abs=5e-3)


def test_probed_limit_undetermined_for_short_noise():
    lim = x_limit(SequenceSpec("explicit", values=[1, 2, 1.5, 2.5] * 4))
    assert lim.kind == "undetermined"


def test_probed_limit_growing_taylor():
    norms = [1.0] + [math.sqrt(math.factorial(n)) for n in range(1, 130)]
    assert x_limit(SequenceSpec("analytic_function", taylor_norms=norms),
                   probe_depth=64).kind == "infinite"


def test_probe_depth_precondition():
    with pytest.raises(ValueError):
        x_limit(SequenceSpec("canonical"), probe_depth=8)


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
    calls = []
    real = nlcpoly.sequences.x_value

    def counting(spec, n):
        calls.append(n)
        return real(spec, n)

    spec = SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4))
    monkeypatch.setattr(nlcpoly.sequences, "x_value", counting)
    first = phi_value(spec, 1000, 0.3)
    assert len(calls) <= 1000
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


def test_inequality_precondition():
    with pytest.raises(ValueError):
        check_nonlinear_inequalities(SequenceSpec("canonical"), 4)


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

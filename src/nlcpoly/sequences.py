"""Positive sequences x_1, x_2, ... and their partial products.

A sequence spec is the single source of truth for one model: it fixes a
family (closed-form rule, explicit list, or Taylor-norm quotients) together
with its parameters.  Everything downstream -- moments, recurrence
polynomials, Jacobi truncations, measure checks -- is driven by ``x_value``
and the running products ``x_factorials``.

Each family rule is one expression evaluated in the arithmetic of its
parameters: exact parameters give ``fractions.Fraction`` values, float
parameters give floats.  The floating view of a spec is one memoized array,
``x_floats``, shared by every consumer that reads x_1 .. x_n as floats.
Diagnostic scans (monotonicity, the nonlinear necessary inequalities) return
reports instead of raising, so sequences that fail to be moment sequences can
still be analyzed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]


class ParameterDomainError(ValueError):
    """A family parameter violates its admissibility constraint."""


class SequenceRangeError(IndexError):
    """An index lies outside the range a spec can evaluate."""


def _as_number(value) -> Number:
    """Coerce config-style values ('3/2', '0.25', 2) to Fraction, and keep
    a finite float; NaN, infinities and unparsable strings are
    ParameterDomainError."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParameterDomainError(f"parameter {value!r} is not a finite number")
        return value
    if isinstance(value, str):
        s = value.strip()
        try:
            return Fraction(s)
        except ValueError:
            raise ParameterDomainError(f"cannot read {s!r} as a finite number") from None
    raise TypeError(f"cannot interpret {value!r} as a number")


# ---------------------------------------------------------------------------
# family rules
# ---------------------------------------------------------------------------
#
# Each rule x(*params, n) is one expression in the arithmetic of its
# parameters: Fraction parameters give a Fraction and a float parameter a
# float, since int and Fraction operands round once where they meet a float.
# Half-integer offsets use doubled integers, (2n - 1) / (2 (nu + n)) for
# (n - 1/2) / (nu + n): doubling is exact in binary, so a float rule rounds
# as the plain float formula does, and no Fraction constant slows it.

@dataclass(frozen=True)
class _Family:
    name: str
    param_names: tuple
    validate: Callable          # (params, strict) -> None, raises ParameterDomainError
    x: Callable                 # (*params, n) -> Number, in param_names order
    # (*params) -> (num_coeffs, den_coeffs) ascending in n, or None if x is
    # not a fixed rational function of n; the limit of x_n is read from it
    poly_pair: Optional[Callable] = None
    # exact limit of x_n for a family without a poly_pair, or None (probed)
    limit: Optional[Fraction] = None


def _poly_eval(coeffs: Sequence, n) -> Number:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * n + c
    return acc


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _linear(*roots):
    """Product of monic linear factors (n + r) as ascending coefficients."""
    poly = [Fraction(1)]
    for r in roots:
        poly = _poly_mul(poly, [Fraction(r), Fraction(1)])
    return poly


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterDomainError(message)


def _validate_half_integer_j(params, strict):
    j = params["j"]
    _require(j > 0, "j must be positive")
    if strict:
        _require(isinstance(j, Fraction) and (2 * j).denominator == 1,
                 "j must be a positive half-integer (1/2, 1, 3/2, ...)")


def _validate_ultraspherical(params, strict):
    nu = params["nu"]
    if strict:
        _require(nu > Fraction(-1, 2), "nu > -1/2 required (weight integrability)")
    else:
        # positivity of x_n for all n >= 1 only needs nu > -1
        _require(nu > -1, "nu > -1 required to keep x_n positive")


def _validate_jacobi_type(params, strict):
    a, b = params["alpha"], params["beta"]
    if strict:
        _require(a > Fraction(-1, 2), "alpha > -1/2 required")
        _require(b > -1, "beta > -1 required")
    else:
        _require(a > Fraction(-1, 2), "alpha > -1/2 required to keep x_n positive")
        _require(a + b > Fraction(-3, 2), "alpha + beta > -3/2 required to keep x_n positive")


def _validate_bessel_orders(params, strict):
    mu, nu = params["mu"], params["nu"]
    _require(mu + nu > 0 and mu - nu > 0, "mu + nu > 0 and mu - nu > 0 required")


def _validate_mpb(params, strict):
    _validate_bessel_orders(params, strict)
    _require(params["beta"] > 0, "beta > 0 required")


def _validate_gamma_quotient(params, strict):
    a, b, c = params["a"], params["b"], params["c"]
    _require(c > 0, "c > 0 required to keep x_1 positive")
    if strict:
        _require(a >= c and b >= c, "a >= c and b >= c required")
    else:
        _require(a > 0 and b > 0, "a > 0 and b > 0 required")


def _validate_q_quotient(params, strict):
    A, B, C, q = params["A"], params["B"], params["C"], params["q"]
    for name, v in (("A", A), ("B", B), ("C", C), ("q", q)):
        _require(0 < v < 1, f"{name} must lie in (0, 1)")
    if strict:
        # exponent admissibility a >= c, b >= c translates to A <= C, B <= C
        _require(A <= C and B <= C, "A <= C and B <= C required (a >= c, b >= c)")


def _validate_gi_s3(params, strict):
    a1, a2, a3 = params["a1"], params["a2"], params["a3"]
    _require(a1 >= a2 >= a3 >= 0, "a1 >= a2 >= a3 >= 0 required")


def _validate_taylor_norms(params, strict):
    norms = params["taylor_norms"]
    _require(len(norms) >= 2, "need at least two Taylor norms")
    _require(norms[0] == 1, "normalization rho(0) = 1 required")
    _require(all(v > 0 for v in norms), "all Taylor norms must be positive")


def _validate_explicit(params, strict):
    values = params["values"]
    _require(len(values) >= 1, "need at least one value")
    _require(all(v > 0 for v in values), "all sequence values must be positive")


def _validate_rational(params, strict):
    num, den = params["num"], params["den"]
    _require(len(num) >= 1 and len(den) >= 1, "need numerator and denominator coefficients")
    _require(num[-1] != 0 and den[-1] != 0, "leading coefficients must be nonzero")
    _require(num[-1] / den[-1] > 0, "the leading ratio num[-1]/den[-1] must be positive, "
             "or x_n turns negative for large n")
    for n in range(1, 65):
        nv, dv = _poly_eval(num, n), _poly_eval(den, n)
        _require(dv != 0, f"denominator vanishes at n = {n}")
        _require(nv / dv > 0, f"x_{n} is not positive")


def _x_q_quotient(A, B, C, q, n):
    # q-analogue of the gamma quotient: the second numerator factor carries
    # the exponent a + b - c, i.e. the combination A*B/C.
    s = q ** (n - 1)
    return (1 - C * s) * (1 - (A * B / C) * s) / ((1 - A * s) * (1 - B * s))


def _x_taylor(norms, n):
    # x_n = (rho(n) / rho(n-1))^2 from Taylor norms rho(0) = 1, rho(1), ...,
    # so that x_n! = rho(n)^2 matches the series sum |z|^(2n) / rho(n)^2
    if n >= len(norms):
        raise SequenceRangeError(f"n = {n} exceeds the {len(norms) - 1} supplied Taylor norms")
    r = norms[n] / norms[n - 1]
    return r * r


def _x_explicit(values, n):
    if n > len(values):
        raise SequenceRangeError(f"n = {n} exceeds the {len(values)} supplied values")
    return values[n - 1]


def _rational_limit(num, den):
    dn, dd = len(num) - 1, len(den) - 1
    if dn > dd:
        return math.inf
    if dn < dd:
        return Fraction(0)
    return Fraction(num[-1]) / Fraction(den[-1])


_FAMILIES = {}


def _register(fam: _Family) -> None:
    _FAMILIES[fam.name] = fam


_register(_Family(
    "canonical", (), lambda p, s: None, lambda n: Fraction(n),
    poly_pair=lambda: ([Fraction(0), Fraction(1)], [Fraction(1)])))

_register(_Family(
    "su11", ("j",), _validate_half_integer_j,
    lambda j, n: n / (2 * j + n - 1),
    poly_pair=lambda j: ([Fraction(0), Fraction(1)], _linear(2 * j - 1))))

_register(_Family(
    "barut_girardello", ("j",), _validate_half_integer_j,
    lambda j, n: n * (2 * j + n - 1),
    poly_pair=lambda j: (_linear(0, 2 * j - 1), [Fraction(1)])))

_register(_Family(
    "ultraspherical", ("nu",), _validate_ultraspherical,
    lambda nu, n: (2 * n - 1) / (2 * (nu + n)),
    poly_pair=lambda nu: (_linear(Fraction(-1, 2)), _linear(nu))))

_register(_Family(
    "jacobi_type", ("alpha", "beta"), _validate_jacobi_type,
    lambda a, b, n: (2 * (a + n) - 1) / (2 * (a + b + n) + 1),
    poly_pair=lambda a, b: (_linear(a - Fraction(1, 2)), _linear(a + b + Fraction(1, 2)))))

_register(_Family(
    "meixner_pollaczek_bessel", ("mu", "nu", "beta"), _validate_mpb,
    lambda mu, nu, beta, n: 4 / beta ** 2 * (mu + nu + n - 1) * (mu - nu + n - 1),
    poly_pair=lambda mu, nu, beta: (
        [4 * c / Fraction(beta) ** 2 for c in _linear(mu + nu - 1, mu - nu - 1)],
        [Fraction(1)])))

_register(_Family(
    "bessel_k_exp", ("mu", "nu"), _validate_bessel_orders,
    lambda mu, nu, n: (mu + nu + n - 1) * (mu - nu + n - 1) / (2 * (mu + n) - 1),
    poly_pair=lambda mu, nu: (_linear(mu + nu - 1, mu - nu - 1),
                              [2 * c for c in _linear(mu - Fraction(1, 2))])))

_register(_Family(
    "bessel_k_abs", ("mu", "nu"), _validate_bessel_orders,
    lambda mu, nu, n: ((mu + nu + 2 * n - 2) * (mu + nu + 2 * n - 1)
                       * (mu - nu + 2 * n - 2) * (mu - nu + 2 * n - 1)
                       / ((2 * (mu + 2 * n - 1) - 1) * (2 * (mu + 2 * n) - 1))),
    # quartic over quadratic in n; substitute m = 2n into linear factors
    poly_pair=lambda mu, nu: (
        _poly_mul(_poly_mul([mu + nu - 2, Fraction(2)], [mu + nu - 1, Fraction(2)]),
                  _poly_mul([mu - nu - 2, Fraction(2)], [mu - nu - 1, Fraction(2)])),
        [4 * c for c in _poly_mul([mu - Fraction(3, 2), Fraction(2)],
                                  [mu - Fraction(1, 2), Fraction(2)])])))

_register(_Family(
    "gamma_quotient", ("a", "b", "c"), _validate_gamma_quotient,
    lambda a, b, c, n: (c + n - 1) * (a + b - c + n - 1) / ((a + n - 1) * (b + n - 1)),
    poly_pair=lambda a, b, c: (_linear(c - 1, a + b - c - 1), _linear(a - 1, b - 1))))

_register(_Family(
    "q_gamma_quotient", ("A", "B", "C", "q"), _validate_q_quotient, _x_q_quotient,
    limit=Fraction(1)))

_register(_Family(
    "grinshpan_ismail_s3", ("a1", "a2", "a3"), _validate_gi_s3,
    lambda a1, a2, a3, n: (n * (n + a1 + a2) * (n + a1 + a3) * (n + a2 + a3)
                           / ((n + a1) * (n + a2) * (n + a3) * (n + a1 + a2 + a3))),
    poly_pair=lambda a1, a2, a3: (_linear(0, a1 + a2, a1 + a3, a2 + a3),
                                  _linear(a1, a2, a3, a1 + a2 + a3))))

_register(_Family("analytic_function", ("taylor_norms",), _validate_taylor_norms, _x_taylor))
_register(_Family("explicit", ("values",), _validate_explicit, _x_explicit))
_register(_Family(
    "rational", ("num", "den"), _validate_rational,
    lambda num, den, n: _poly_eval(num, n) / _poly_eval(den, n),
    poly_pair=lambda num, den: ([Fraction(c) for c in num], [Fraction(c) for c in den])))


def family_names() -> list:
    return sorted(_FAMILIES)


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

# parameters that hold a list of numbers (in a config file: comma separated)
_LIST_PARAMS = frozenset({"values", "taylor_norms", "num", "den"})


class SequenceSpec:
    """Immutable description of one positive sequence x_1, x_2, ...

    Parameters
    ----------
    family : str
        One of :func:`family_names`.
    strict : bool
        With ``strict=True`` (default) parameters must lie in the admissible
        range tied to an orthogonality weight (e.g. ``nu > -1/2`` for the
        ultraspherical rule).  ``strict=False`` relaxes to the positivity
        domain so that failure of the moment-sequence necessary conditions
        can be demonstrated.
    **params
        Family parameters; ints, Fractions and strings like ``"3/2"`` stay
        exact, floats stay floating.

    ``is_rational`` is True when every parameter is exact, so that x_n
    evaluates as a Fraction at every integer n.
    """

    __slots__ = ("family", "params", "strict", "_fam", "_args", "_pair", "is_rational",
                 "_floats")

    def __init__(self, family: str, strict: bool = True, **params):
        if family not in _FAMILIES:
            raise ParameterDomainError(
                f"unknown family {family!r}; known: {', '.join(family_names())}")
        fam = _FAMILIES[family]
        unknown = set(params) - set(fam.param_names)
        missing = set(fam.param_names) - set(params)
        if unknown or missing:
            raise ParameterDomainError(
                f"family {family!r} takes parameters {fam.param_names}; "
                f"got {tuple(sorted(params))}")
        clean = {}
        for key, value in params.items():
            if key in _LIST_PARAMS:
                clean[key] = tuple(_as_number(v) for v in value)
            else:
                clean[key] = _as_number(value)
        fam.validate(clean, strict)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", clean)
        object.__setattr__(self, "strict", bool(strict))
        object.__setattr__(self, "_fam", fam)
        args = tuple(clean[key] for key in fam.param_names)
        object.__setattr__(self, "_args", args)
        # built on the binary values of float parameters too: x_limit reads
        # the limit from its degrees and leading coefficients
        object.__setattr__(self, "_pair", fam.poly_pair and fam.poly_pair(*args))
        object.__setattr__(self, "is_rational", all(
            isinstance(v, Fraction)
            for key, value in clean.items() for v in (value if key in _LIST_PARAMS else (value,))))
        object.__setattr__(self, "_floats", np.frombuffer(b""))  # empty, read-only

    def __setattr__(self, *args):
        raise AttributeError("SequenceSpec is immutable")

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"SequenceSpec({self.family}, {inner})"

    def __eq__(self, other):
        return (isinstance(other, SequenceSpec)
                and self.family == other.family and self.params == other.params)

    def __hash__(self):
        return hash((self.family, tuple(sorted(self.params.items()))))

    def poly_pair(self):
        """Exact (numerator, denominator) coefficients of x as a rational
        function of n, or None for a float spec and for list-backed and
        q-type families."""
        return self._pair if self.is_rational else None


def x_value(spec: SequenceSpec, n: int) -> Number:
    """x_n for n >= 1: a Fraction for a rational spec, a float otherwise."""
    if n < 1:
        raise SequenceRangeError("x_n is defined for n >= 1")
    return spec._fam.x(*spec._args, n)


def x_float(spec: SequenceSpec, n: int) -> float:
    return float(x_value(spec, n))


def x_floats(spec: SequenceSpec, n: int) -> np.ndarray:
    """x_1 .. x_n as a read-only float array; entry k - 1 is ``x_float(spec, k)``.

    The longest array built so far is kept on the spec and a shorter n is
    served as its prefix.  A longer array is built in full before it
    replaces the kept one in a single assignment, so concurrent readers need
    no lock and never see a partial array.
    """
    if n < 0:
        raise SequenceRangeError("x_floats needs n >= 0")
    kept = spec._floats
    if n > len(kept):
        kept = np.concatenate([kept, [x_float(spec, k) for k in range(len(kept) + 1, n + 1)]])
        kept.flags.writeable = False
        if len(kept) > len(spec._floats):
            object.__setattr__(spec, "_floats", kept)
    return kept[:n]


def x_factorials(spec: SequenceSpec, xs: Iterable[Number]) -> Iterator[Number]:
    """x_0!, x_1!, ... as running products of ``xs`` = x_1, x_2, ...; exact
    from Fraction(1) for a rational spec, from 1.0 otherwise."""
    return accumulate(xs, operator.mul, initial=Fraction(1) if spec.is_rational else 1.0)


def x_log_factorials(xs: Iterable[float]) -> Iterator[float]:
    """log(x_0!), log(x_1!), ... summed term by term over ``xs`` = x_1, x_2,
    ... as floats; immune to overflow."""
    return accumulate(map(math.log, xs), initial=0)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceLimit:
    """Limit of x_n: kind is 'finite', 'infinite' or 'undetermined'."""
    kind: str
    value: Optional[Number] = None
    error: Optional[float] = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


def _max_index(spec: SequenceSpec) -> Optional[int]:
    if spec.family == "explicit":
        return len(spec.params["values"])
    if spec.family == "analytic_function":
        return len(spec.params["taylor_norms"]) - 1
    return None


_RICHARDSON_ORDER = 4  # probes at depth / 2^4, ..., depth / 2, depth
_INEQUALITY_SLACK = 1e-12  # relative, for float sequences


def x_limit(spec: SequenceSpec, probe_depth: int = 64) -> SequenceLimit:
    """Limit of x_n as n grows.

    Closed-form rational families report the exact limit of the rational
    rule.  List-backed families are probed at doubling indices and
    Richardson-extrapolated assuming a 1/n expansion; a noisy tail yields
    'undetermined', which is a valid outcome rather than an error.
    """
    if probe_depth < 16:
        raise ValueError("probe_depth must be at least 16")
    value = _rational_limit(*spec._pair) if spec._pair else spec._fam.limit
    if value is not None:
        if value == math.inf:
            return SequenceLimit("infinite")
        return SequenceLimit("finite", value, 0.0)

    top = _max_index(spec)
    depth = probe_depth if top is None else min(probe_depth, top)
    if depth < 16:
        return SequenceLimit("undetermined")
    nodes = [max(1, depth >> (_RICHARDSON_ORDER - j)) for j in range(_RICHARDSON_ORDER)]
    nodes.append(depth)
    samples = [x_float(spec, n) for n in nodes]

    growing = all(b > a for a, b in zip(samples, samples[1:]))
    if growing and samples[-1] > 1e6 * max(samples[0], 1.0):
        return SequenceLimit("infinite")
    ratios = [b / a for a, b in zip(samples, samples[1:]) if a > 0]
    if growing and all(r > 1.5 for r in ratios):
        return SequenceLimit("infinite")

    table = [samples]
    for m in range(1, len(samples)):
        prev = table[-1]
        fac = float(2 ** m)
        table.append([(fac * prev[j + 1] - prev[j]) / (fac - 1.0)
                      for j in range(len(prev) - 1)])
    estimate = table[-1][0]
    error = abs(table[-1][0] - table[-2][0]) if len(table) >= 2 else math.inf
    scale = max(abs(estimate), 1.0)
    if not math.isfinite(estimate) or error > 1e-3 * scale:
        return SequenceLimit("undetermined")
    return SequenceLimit("finite", estimate, error)


def x_minus_limit(spec: SequenceSpec, n: int) -> float:
    """x_n - lim x for finite-limit families, evaluated without cancellation.

    For rational rules the difference polynomial num - M*den is formed
    exactly and rounded once per coefficient, so deviations far below machine
    epsilon relative to x_n come out clean.  Raises for families without a
    finite limit.
    """
    lim = x_limit(spec)
    if not lim.is_finite:
        raise ValueError("x_minus_limit needs a finite closed-form limit")
    closed = _x_minus_limit_closed(spec, n)
    return x_float(spec, n) - float(lim.value) if closed is None else float(closed)


def _x_minus_limit_closed(spec: SequenceSpec, n):
    """x_n - M over an int or an integer array n, without cancellation, or
    None when the family has no closed form for it.

    Rational rules evaluate (num - M den)(n) / den(n), the difference
    polynomial formed exactly and rounded once per coefficient.  The
    q-quotient uses (1-Cs)(1-(AB/C)s) - (1-As)(1-Bs) = -s (A-C)(B-C)/C with
    s = q^(n-1) (the s^2 terms cancel), so it never forms q^n - 1.
    """
    nn = np.asarray(n, dtype=float)
    if spec.family == "q_gamma_quotient":
        A, B, C, q = (float(spec.params[k]) for k in ("A", "B", "C", "q"))
        with np.errstate(under="ignore"):
            s = np.exp((nn - 1.0) * math.log(q))
            return -s * (A - C) * (B - C) / (C * (1.0 - A * s) * (1.0 - B * s))
    pair, lim = spec.poly_pair(), x_limit(spec)
    if pair is None or not lim.is_finite:
        return None
    num, den = pair
    diff = [a - lim.value * b for a, b in zip_longest(num, den, fillvalue=0)]
    return (np.polyval([float(c) for c in reversed(diff)], nn)
            / np.polyval([float(c) for c in reversed(den)], nn))


# ---------------------------------------------------------------------------
# diagnostic scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneReport:
    monotone: bool
    first_violation: Optional[int]
    bounded_by_L2: Optional[bool]
    bound_first_violation: Optional[int]
    limit: SequenceLimit


def check_monotone_and_bounded(spec: SequenceSpec, n_max: int) -> MonotoneReport:
    """Scan x_1 .. x_{n_max} for strict increase and, when the limit M is
    finite, for x_n < M throughout.  Violations are report fields, not
    errors: they falsify the claim that the sequence came from a moment
    representation.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    top = _max_index(spec)
    if top is not None:
        n_max = min(n_max, top)
    limit = x_limit(spec)

    if spec.family == "q_gamma_quotient":
        return _check_q_quotient_monotone(spec, limit)

    bound = limit.value if limit.is_finite else None
    first_violation = bound_violation = prev = None
    for n in range(1, n_max + 1):
        cur = x_value(spec, n)
        if first_violation is None and prev is not None and cur <= prev:
            first_violation = n
        if bound_violation is None and bound is not None and cur - bound >= 0:
            bound_violation = n
        if first_violation is not None and (bound is None or bound_violation is not None):
            break
        prev = cur
    bounded = None if bound is None else bound_violation is None
    return MonotoneReport(first_violation is None, first_violation, bounded, bound_violation,
                          limit)


def _check_q_quotient_monotone(spec: SequenceSpec, limit: SequenceLimit) -> MonotoneReport:
    # x_n - 1 = -s (A-C)(B-C) / (C (1-As)(1-Bs)) with s = q^(n-1); the sign
    # and the geometric decay of |x_n - 1| decide the scan exactly, without
    # evaluating q^n (which underflows long before typical n_max).
    p = spec.params
    sign = (p["A"] - p["C"]) * (p["B"] - p["C"])
    if sign == 0:  # constant sequence x_n = 1 = L^2
        return MonotoneReport(False, 2, False, 1, limit)
    if sign > 0:   # x_n < 1, |x_n - 1| strictly decreasing
        return MonotoneReport(True, None, True, None, limit)
    return MonotoneReport(False, 2, False, 1, limit)


@dataclass(frozen=True)
class InequalityReport:
    ineq1_ok: bool
    ineq2_ok: bool
    violations: tuple  # of (name, n, lhs, rhs)


def _ineq1_sides(y1, y2, y3, y4):
    lhs = y3 * (y4 - y2) + y1 * (y2 - y1)
    rhs = y2 * (y3 - y2) + 2 * y1 * (y3 - y2)
    return lhs, rhs


def _ineq2_sides(y1, y2, y3, y4):
    lhs = 2 * y1 * y2 * y3 + y2 * y3 * y4
    rhs = y1 * y2 * y2 + y2 * y3 * y3 + y1 * y3 * y4
    return lhs, rhs


def check_nonlinear_inequalities(spec: SequenceSpec, n_max: int) -> InequalityReport:
    """Necessary nonlinear inequalities for moment-derived sequences.

    Both follow from positivity of integrals of t^{2n} (t^2 - x_{n+1})^2 ...
    against the even measure; the second one from positivity of the order-4
    Hankel determinant of the shifted measure.  Checked for n = 0 ..
    n_max - 4 in the window (x_{n+1}, ..., x_{n+4}).  Comparison is exact
    for rational sequences, otherwise strict up to a relative slack.
    """
    if n_max < 5:
        raise ValueError("n_max must be at least 5")
    top = _max_index(spec)
    if top is not None:
        n_max = min(n_max, top)
    exact = spec.is_rational
    violations = []
    ok1 = ok2 = True
    window = [x_value(spec, k) for k in (1, 2, 3, 4)]
    for n in range(0, n_max - 3):
        y1, y2, y3, y4 = window
        for name, sides in (("ineq1", _ineq1_sides), ("ineq2", _ineq2_sides)):
            lhs, rhs = sides(y1, y2, y3, y4)
            tol = 0 if exact else _INEQUALITY_SLACK * max(abs(float(lhs)), abs(float(rhs)), 1.0)
            if not lhs > rhs - tol:
                violations.append((name, n, lhs, rhs))
                if name == "ineq1":
                    ok1 = False
                else:
                    ok2 = False
        if n + 5 <= n_max:
            window = window[1:] + [x_value(spec, n + 5)]
    return InequalityReport(ok1, ok2, tuple(violations))

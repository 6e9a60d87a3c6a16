"""Positive sequences x_1, x_2, ... and their partial products.

A sequence spec is the single source of truth for one model: it fixes a
family (closed-form rule, explicit list, or Taylor-norm quotients) together
with its parameters.  Everything downstream -- moments, recurrence
polynomials, Jacobi truncations, measure checks -- is driven by ``x_value``;
the partial products x_n! are the even moments of the spec's one MomentSequence.

Each family states its formula once, as a rule that returns the numerator
and denominator of x_n.  Run once on a polynomial variable and the exact
values of a closed-form spec's parameters (a float by its binary value), the
rule gives the spec's exact pair of integer polynomials, which answers every
exact question about the spec: positivity of every x_n, the limit,
x_n - lim x, ``poly_pair()``, the all-n certificates, and the values
N(n) / D(n) that exact specs evaluate.  Run on numbers, it gives the x_n of
float and list-backed specs in the arithmetic of their parameters.  Exact
parameters give ``fractions.Fraction`` values, float parameters give
floats.  The floating view of a spec is one memoized array, ``x_floats``,
shared by every consumer that reads x_1 .. x_n as floats.
The diagnostic checks (monotonicity, the nonlinear necessary inequalities)
certify their claims for every n from a closed-form spec's pair where a
sign certificate applies, and scan x_1 .. x_{n_max} otherwise.  They return
reports instead of raising, so sequences that fail to be moment sequences can
still be analyzed.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from itertools import accumulate, zip_longest
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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
    if isinstance(value, numbers.Rational):  # int, Fraction, numpy integers
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
# Each rule(*params, t) returns (num, den) with x_n = num / den, where t is n,
# or s = q^(n-1) for a family of variable "s".  Float and list-backed specs
# run it on numbers: x_value is num / den, the float formula's operations in
# its order (a den of 1 divides exactly).  Run once on the exact values of a
# closed-form spec's parameters and the variable _Poly t, it gives the spec's
# exact pair, defined up to a common factor (_exact_pair), which an exact
# spec evaluates on integers (_x_ratio).
# Half-integer offsets use doubled integers, (2n - 1) / (2 (nu + n)) for
# (n - 1/2) / (nu + n): doubling is exact in binary, so a float rule rounds
# as the plain float formula does, and no Fraction constant slows it.

class _Family(NamedTuple):
    name: str
    param_names: tuple
    validate: Callable          # (params, strict) -> None, raises ParameterDomainError
    rule: Callable              # (*params, t) -> (num, den), in param_names order
    variable: Optional[str] = None  # "n", "s" (t = q^(n-1)) or None (a list family)


def _poly_eval(coeffs: Sequence, n) -> Number:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * n + c
    return acc


class _Poly:
    """An exact polynomial, ascending int or Fraction coefficients, with the
    + - * a rule applies to its variable, an index shift and a sign
    certificate."""
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    @staticmethod
    def of(value) -> "_Poly":
        return value if isinstance(value, _Poly) else _Poly([value])

    def shift(self, k: int, base=None) -> "_Poly":
        """p(t + k), or, for base (a, b) and q = a / b, p(q^k s) times
        b^(k deg), which keeps integer coefficients integer; deg is the
        formal degree len(coeffs) - 1, so a numerator and a denominator of
        one length keep their quotient."""
        c = list(self.coeffs)
        if base is not None:
            a, b = base[0] ** k, base[1] ** k
            d = len(c) - 1
            return _Poly([ci * a ** i * b ** (d - i) for i, ci in enumerate(c)])
        for i in range(len(c) - 1):  # Taylor shift by repeated synthetic division
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += k * c[j + 1]
        return _Poly(c)

    def positive(self, base=None) -> bool:
        """True when p is certified positive at every t >= 0, or, with a
        base, at every s in (0, 1]: no coefficient is negative and the
        constant term is positive, after dividing out the power of s and
        substituting s = 1 / (1 + u), u >= 0, for a polynomial in s
        (Descartes' rule of signs with no sign change; Collins & Akritas
        1976).  False means only that this test does not decide it."""
        c = self.coeffs
        if base is not None:
            support = [i for i, ci in enumerate(c) if ci]
            if not support:
                return False
            # (1 + u)^d p(1 / (1 + u)) / s^low is the reversed p shifted by 1
            c = _Poly(c[support[0]:support[-1] + 1][::-1]).shift(1).coeffs
        return c[0] > 0 and all(ci >= 0 for ci in c)

    def __add__(self, other):
        return _Poly([a + b for a, b in
                      zip_longest(self.coeffs, _Poly.of(other).coeffs, fillvalue=0)])

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = _Poly.of(other).coeffs
        out = [0] * (len(self.coeffs) + len(other) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other):
                out[i + j] += a * b
        return _Poly(out)

    __radd__ = __add__
    __rmul__ = __mul__


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterDomainError(message)


def _validate_half_integer_j(params, strict):
    j = params["j"]
    _require(j > 0, "j must be positive")
    if strict:
        _require(isinstance(j, Fraction) and (2 * j).denominator == 1,
                 "j must be a positive half-integer (1/2, 1, 3/2, ...)")


# A validator states what positivity does not imply: the weight clauses of
# strict mode and a family's ranges.  x_n > 0 is _require_positive's.

def _validate_ultraspherical(params, strict):
    if strict:
        _require(params["nu"] > Fraction(-1, 2), "nu > -1/2 required (weight integrability)")


def _validate_jacobi_type(params, strict):
    if strict:
        _require(params["alpha"] > Fraction(-1, 2), "alpha > -1/2 required")
        _require(params["beta"] > -1, "beta > -1 required")


def _validate_bessel_orders(params, strict):
    mu, nu = params["mu"], params["nu"]
    _require(mu + nu > 0 and mu - nu > 0, "mu + nu > 0 and mu - nu > 0 required")


def _validate_mpb(params, strict):
    _validate_bessel_orders(params, strict)
    _require(params["beta"] > 0, "beta > 0 required")


def _validate_gamma_quotient(params, strict):
    if strict:
        _require(min(params["a"], params["b"]) >= params["c"], "a >= c and b >= c required")


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


def _x_taylor(norms, n):
    # x_n = (rho(n) / rho(n-1))^2 from Taylor norms rho(0) = 1, rho(1), ...,
    # so that x_n! = rho(n)^2 matches the series sum |z|^(2n) / rho(n)^2
    if n >= len(norms):
        raise SequenceRangeError(f"n = {n} exceeds the {len(norms) - 1} supplied Taylor norms")
    r = norms[n] / norms[n - 1]
    return r * r, 1


def _x_explicit(values, n):
    if n > len(values):
        raise SequenceRangeError(f"n = {n} exceeds the {len(values)} supplied values")
    return values[n - 1], 1


_FAMILIES = {fam.name: fam for fam in (
    _Family("canonical", (), lambda p, s: None, lambda n: (n, 1), "n"),
    _Family("su11", ("j",), _validate_half_integer_j,
            lambda j, n: (n, 2 * j + n - 1), "n"),
    _Family("barut_girardello", ("j",), _validate_half_integer_j,
            lambda j, n: (n * (2 * j + n - 1), 1), "n"),
    _Family("ultraspherical", ("nu",), _validate_ultraspherical,
            lambda nu, n: (2 * n - 1, 2 * (nu + n)), "n"),
    _Family("jacobi_type", ("alpha", "beta"), _validate_jacobi_type,
            lambda a, b, n: (2 * (a + n) - 1, 2 * (a + b + n) + 1), "n"),
    _Family("meixner_pollaczek_bessel", ("mu", "nu", "beta"), _validate_mpb,
            lambda mu, nu, beta, n: (4 / beta ** 2 * (mu + nu + n - 1) * (mu - nu + n - 1), 1),
            "n"),
    _Family("bessel_k_exp", ("mu", "nu"), _validate_bessel_orders,
            lambda mu, nu, n: ((mu + nu + n - 1) * (mu - nu + n - 1), 2 * (mu + n) - 1), "n"),
    _Family("bessel_k_abs", ("mu", "nu"), _validate_bessel_orders,
            lambda mu, nu, n: ((mu + nu + 2 * n - 2) * (mu + nu + 2 * n - 1)
                               * (mu - nu + 2 * n - 2) * (mu - nu + 2 * n - 1),
                               (2 * (mu + 2 * n - 1) - 1) * (2 * (mu + 2 * n) - 1)), "n"),
    _Family("gamma_quotient", ("a", "b", "c"), _validate_gamma_quotient,
            lambda a, b, c, n: ((c + n - 1) * (a + b - c + n - 1), (a + n - 1) * (b + n - 1)),
            "n"),
    # q-analogue of the gamma quotient in s = q^(n-1): the second numerator
    # factor carries the exponent a + b - c, i.e. the combination A*B/C
    _Family("q_gamma_quotient", ("A", "B", "C", "q"), _validate_q_quotient,
            lambda A, B, C, q, s: ((1 - C * s) * (1 - (A * B / C) * s),
                                   (1 - A * s) * (1 - B * s)), "s"),
    _Family("grinshpan_ismail_s3", ("a1", "a2", "a3"), _validate_gi_s3,
            lambda a1, a2, a3, n: (n * (n + a1 + a2) * (n + a1 + a3) * (n + a2 + a3),
                                   (n + a1) * (n + a2) * (n + a3) * (n + a1 + a2 + a3)), "n"),
    _Family("analytic_function", ("taylor_norms",), _validate_taylor_norms, _x_taylor),
    _Family("explicit", ("values",), _validate_explicit, _x_explicit),
    _Family("rational", ("num", "den"), _validate_rational,
            lambda num, den, n: (_poly_eval(num, n), _poly_eval(den, n)), "n"),
)}


def family_names() -> list:
    return sorted(_FAMILIES)


def _exact_pair(fam: _Family, args: tuple, q) -> tuple:
    """(num, den, base): the rule run on the variable t and the exact values of
    ``args`` (a float by its binary value), cleared of denominators.  num and
    den are integer _Poly's of one length, ascending; base is (a, b) for a
    pair in s = q^(n-1) with q = a / b, else None."""
    exact = (tuple(map(Fraction, a)) if isinstance(a, tuple) else Fraction(a) for a in args)
    pair = [_Poly.of(p).coeffs for p in fam.rule(*exact, _Poly([0, 1]))]
    scale = math.lcm(*(c.denominator for coeffs in pair for c in coeffs))
    width = max(map(len, pair))
    num, den = (_Poly([int(c * scale) for c in coeffs] + [0] * (width - len(coeffs)))
                for coeffs in pair)
    return num, den, None if q is None else Fraction(q).as_integer_ratio()


def _at(p: _Poly, k: int, base) -> _Poly:
    """p at the index n = t + k as a polynomial in t >= 0, or, for a pair in
    s = q^(n-1) with base (a, b), in s = q^t in (0, 1]."""
    return p.shift(k) if base is None else p.shift(k - 1, base)


def _require_positive(spec: "SequenceSpec") -> None:
    """Raise ParameterDomainError unless x_n > 0 for every n >= 1, certified
    by the sign test of num den at n = t + 1.  Only a rational spec falls
    back, to a positive leading ratio and x_1 .. x_64 > 0."""
    num, den, base = spec._pair
    if (_at(num, 1, base) * _at(den, 1, base)).positive(base):
        return
    _require(spec.family == "rational", "x_n is not certified positive for every n >= 1")
    num, den = spec._args
    _require(num[-1] / den[-1] > 0, "the leading ratio num[-1]/den[-1] must be positive, "
             "or x_n turns negative for large n")
    for n in range(1, 65):
        _x_ratio(spec, n)


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
        can be demonstrated.  In both modes a closed-form spec must be
        certified positive, x_n > 0 for every n >= 1, from its exact pair.
    **params
        Family parameters; ints, Fractions and strings like ``"3/2"`` stay
        exact, floats stay floating.

    ``is_rational`` is True when every parameter is exact, so that x_n
    evaluates as a Fraction at every integer n.
    """

    __slots__ = ("family", "params", "strict", "_fam", "_args", "_pair", "is_rational",
                 "_floats", "_moments")

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
        # the one exact form of a closed-form spec: positivity, x_limit,
        # _x_minus_limit, poly_pair(), the certificates and, for an exact
        # spec, every x_n read it
        object.__setattr__(self, "_pair", fam.variable and _exact_pair(
            fam, args, clean["q"] if fam.variable == "s" else None))
        object.__setattr__(self, "is_rational", all(
            isinstance(v, Fraction)
            for key, value in clean.items() for v in (value if key in _LIST_PARAMS else (value,))))
        object.__setattr__(self, "_floats", np.frombuffer(b""))  # empty, read-only
        object.__setattr__(self, "_moments", None)  # its MomentSequence, made on first use
        if self._pair:
            _require_positive(self)

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
        function of n, ascending and defined up to a common factor (the
        integer pair with its trailing zeros trimmed, as Fractions), or None
        for a float spec and for list-backed and q-type families."""
        if not (self.is_rational and self._fam.variable == "n"):
            return None
        num, den, _ = self._pair
        return tuple([Fraction(c) for c in p[:max(i for i, c in enumerate(p) if c) + 1]]
                     for p in (num.coeffs, den.coeffs))


def _x_ratio(spec: SequenceSpec, n: int) -> tuple:
    """Integers (N, D) with x_n = N / D and N, D > 0 from the spec's integer
    pair, evaluated homogeneously at u / v = n / 1, or at
    u / v = a^(n-1) / b^(n-1) for a pair in s = q^(n-1) with q = a / b."""
    num, den, base = spec._pair
    n = operator.index(n)
    u, v = (n, 1) if base is None else (base[0] ** (n - 1), base[1] ** (n - 1))
    num, den = reversed(num.coeffs), reversed(den.coeffs)
    N, D, w = next(num), next(den), 1
    for a, b in zip(num, den):
        w *= v
        N, D = N * u + a * w, D * u + b * w
    return _positive_ratio(N, D, n)


def _positive_ratio(N: int, D: int, n: int) -> tuple:
    """(N, D) with D > 0 for x_n = N / D; ParameterDomainError when D
    vanishes or x_n <= 0, decided on the integers.  Only a ``rational``
    spec can get here with x_n <= 0, past the x_1 .. x_64 it was checked on."""
    if D == 0:
        raise ParameterDomainError(f"the denominator of x_n vanishes at n = {n}")
    if D < 0:
        N, D = -N, -D
    if N <= 0:
        raise ParameterDomainError(f"x_{n} is not positive")
    return N, D


def x_value(spec: SequenceSpec, n: int) -> Number:
    """x_n for n >= 1: a Fraction for a rational spec, a float otherwise."""
    if n < 1:
        raise SequenceRangeError("x_n is defined for n >= 1")
    if spec.is_rational and spec._pair:
        return Fraction(*_x_ratio(spec, n))
    fam = spec._fam
    num, den = fam.rule(*spec._args, spec.params["q"] ** (n - 1) if fam.variable == "s" else n)
    return num / den


def x_float(spec: SequenceSpec, n: int) -> float:
    """x_n rounded once to the nearest float: the same bits as
    ``float(x_value(spec, n))``.  An exact closed-form spec divides its
    integers N(n) / D(n), which Python rounds correctly, and forms no
    Fraction.  An x_n beyond the float range raises SequenceRangeError, as
    does a float rule that overflows on the way (4 / beta^2 at beta = 1e200)."""
    if not spec.is_rational or n < 1:
        try:
            return float(x_value(spec, n))
        except OverflowError:
            raise SequenceRangeError(f"the float rule overflows at x_{n}") from None
    N, D = _x_ratio(spec, n) if spec._pair else x_value(spec, n).as_integer_ratio()
    return _float_ratio(N, D, n)


def _float_ratio(N: int, D: int, k: int) -> float:
    """x_k = N / D rounded once; SequenceRangeError beyond the float range."""
    try:
        return N / D
    except OverflowError:
        raise SequenceRangeError(f"x_{k} exceeds the float range") from None


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
        kept = np.concatenate([kept, _more_floats(spec, len(kept) + 1, n,
                                                  kept[-1] if len(kept) else None)])
        kept.flags.writeable = False
        if len(kept) > len(spec._floats):
            object.__setattr__(spec, "_floats", kept)
    return kept[:n]


def _more_floats(spec: SequenceSpec, start: int, n: int, last) -> list:
    """x_float(spec, k) for k = start .. n, where ``last`` is x_float at
    start - 1 (None at start = 1).  An exact pair in n goes to
    :func:`_pair_floats`.

    An exact q-quotient has |x_n - 1| = s |(A-C)(B-C)| / (C (1-As)(1-Bs))
    with s = q^(n-1), which does not increase with n, and x_n - 1 keeps one
    sign; rounding is monotone, so once an entry is 1.0 every later one is,
    and the rest is filled with 1.0 rather than dividing the ever longer
    integers a^(n-1), b^(n-1).  For (A, B, C, q) = (1/8, 1/4, 1/2, 1/2), the
    library_long benchmark spec, that happens from n = 53 on.
    """
    if not (spec.is_rational and spec._pair):
        return [x_float(spec, k) for k in range(start, n + 1)]
    if spec._pair[2] is None:
        return _pair_floats(spec, start, n)
    out = []
    for k in range(start, n + 1):
        if last == 1.0:
            return out + [1.0] * (n + 1 - k)
        last = _float_ratio(*_x_ratio(spec, k), k)
        out.append(last)
    return out


def _pair_floats(spec: SequenceSpec, start: int, n: int) -> list:
    """N(k) / D(k) for k = start .. n of a pair in n, rounded once each.

    N(k) and D(k) come from the forward-difference tables of the pair at
    k = start: exact integer additions, the same integers as
    :func:`_x_ratio` up to a common sign, whose quotient rounds the same.
    A vanishing D, an x_k <= 0 or an x_k beyond the float range raises
    at the first such k, as :func:`_x_ratio` and :func:`x_float` do.
    """
    num, den, _ = spec._pair
    nums, dens = (_poly_values(p.coeffs, start, n + 1 - start) for p in (num, den))
    try:
        if min(dens) > 0 and min(nums) > 0:
            return [N / D for N, D in zip(nums, dens)]
    except OverflowError:
        pass
    out = []  # some D <= 0, N <= 0 or quotient out of range: go entry by entry
    for k, N, D in zip(range(start, n + 1), nums, dens):
        out.append(_float_ratio(*_positive_ratio(N, D, k), k))
    return out


def _poly_values(coeffs: Sequence[int], start: int, count: int) -> list:
    """p(start), ..., p(start + count - 1) for the integer polynomial with
    ascending ``coeffs``: the differences Delta^j p(start), j <= deg p, by
    Horner and subtraction, then one running sum per order from
    Delta^deg p, which is constant, down to p."""
    d = len(coeffs) - 1
    diffs = [_poly_eval(coeffs, start + i) for i in range(d + 1)]
    for j in range(d):
        for i in range(d, j, -1):
            diffs[i] -= diffs[i - 1]
    values = [diffs[d]] * count
    for j in range(d - 1, -1, -1):
        values = list(accumulate(values[:count - 1], initial=diffs[j]))
    return values


def x_log_factorials(xs: Iterable[float]) -> Iterator[float]:
    """log(x_0!), log(x_1!), ... summed term by term over ``xs`` = x_1, x_2,
    ... as floats; immune to overflow."""
    return accumulate(map(math.log, xs), initial=0)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

class SequenceLimit(NamedTuple):
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


_PROBE_DEPTH = 64
_RICHARDSON_ORDER = 4  # probes at depth / 2^4, ..., depth / 2, depth
_INEQUALITY_SLACK = 1e-12  # relative, for float sequences


def x_limit(spec: SequenceSpec) -> SequenceLimit:
    """Limit of x_n as n grows.

    Closed-form families report the exact limit of their pair: the ratio of
    its leading terms in n, or of its constant terms in s = q^(n-1).
    List-backed families are probed at doubling indices up to n = 64 and
    Richardson-extrapolated assuming a 1/n expansion; a noisy tail yields
    'undetermined', which is a valid outcome rather than an error.
    """
    if spec._pair:
        num, den, base = spec._pair
        i = 0 if base else -1  # num and den have one length
        if den.coeffs[i] == 0:
            return SequenceLimit("infinite")
        return SequenceLimit("finite", Fraction(num.coeffs[i], den.coeffs[i]), 0.0)

    top = _max_index(spec)
    depth = _PROBE_DEPTH if top is None else min(_PROBE_DEPTH, top)
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
    """x_n - lim x for n >= 1, evaluated without cancellation.

    A closed-form spec forms num - M*den exactly from its pair, a float
    parameter by its binary value, and rounds it once per coefficient, so
    deviations far below machine epsilon relative to x_n come out clean; a
    list-backed spec subtracts its probed limit from x_n.  Raises
    ValueError when the limit is not finite.
    """
    return float(_x_minus_limit(spec, n))


def _x_minus_limit(spec: SequenceSpec, n):
    """x_n - M over an int or an integer array n >= 1, for a finite limit M.

    A closed-form spec evaluates (r num - p den)(t) / (r den)(t) for
    M = p / r from its integer pair, at t = n or at t = s = q^(n-1), with
    the difference polynomial's integer coefficients formed exactly and
    rounded once each: a deviation far below machine epsilon relative to x_n
    comes out clean, and q^n - 1 is never formed.  Float parameters enter
    by their binary values.  A list-backed spec reads x_floats - M.
    """
    nn = np.asarray(n)
    if nn.size and nn.min() < 1:
        raise SequenceRangeError("x_n is defined for n >= 1")
    lim = x_limit(spec)
    if not lim.is_finite:
        raise ValueError("x_minus_limit needs a finite limit")
    if not spec._pair:
        return x_floats(spec, int(nn.max(initial=0)))[nn - 1] - float(lim.value)
    num, den, base = spec._pair
    p, r = lim.value.as_integer_ratio()
    # scaled by a power of two as rounded (int / int rounds once, at any
    # size), so huge cleared integers neither overflow nor reach inf
    m = 2 ** (r * max(map(abs, den.coeffs))).bit_length()
    diff = [(r * a - p * b) / m for a, b in zip(num.coeffs, den.coeffs)]
    if base:
        with np.errstate(under="ignore"):
            t = np.power(base[0] / base[1], nn - 1)  # exact for q = 1/2
    else:
        t = nn.astype(float)
    return (np.polyval(diff[::-1], t)
            / np.polyval([r * c / m for c in reversed(den.coeffs)], t))


# ---------------------------------------------------------------------------
# diagnostic scans
# ---------------------------------------------------------------------------

class MonotoneReport(NamedTuple):
    monotone: bool
    first_violation: Optional[int]
    bounded_by_L2: Optional[bool]
    bound_first_violation: Optional[int]
    limit: SequenceLimit
    # True when every field was decided for all n from the closed form; False
    # when a scan to n_max decided it, so a claim it passes holds to n_max only
    certified_all_n: bool


def _index_pair(spec: SequenceSpec, top: int):
    """(nums, dens, base) for a closed-form spec, or None: its integer pair
    at n = t + k for k = 1 .. top (see _at), both negated when den is
    negative.  None for a list-backed spec, and when den is not certified to
    keep one sign at every n >= 1.
    """
    if not spec._pair:
        return None
    num, den, base = spec._pair
    first = _at(den, 1, base)
    if (-first).positive(base):
        num, den = -num, -den
    elif not first.positive(base):
        return None
    return ([_at(num, k, base) for k in range(1, top + 1)],
            [_at(den, k, base) for k in range(1, top + 1)], base)


def _certified_monotone(spec: SequenceSpec, bound) -> bool:
    """True when x_n > x_{n-1} for every n >= 2 and, for a finite limit
    ``bound`` = M, x_n < M for every n >= 1, each certified on the sign of
    num(n) den(n-1) - num(n-1) den(n) and of M den(n) - num(n)."""
    pair = _index_pair(spec, 2)
    if pair is None:
        return False
    (num1, num2), (den1, den2), base = pair
    if not (num2 * den1 - num1 * den2).positive(base):
        return False
    return bound is None or (bound * den1 - num1).positive(base)


def check_monotone_and_bounded(spec: SequenceSpec, n_max: int) -> MonotoneReport:
    """Strict increase of x_n and, when the limit M is finite, x_n < M.

    A closed-form spec first tries to certify both claims for every n from
    its pair, reading no x_n; a float parameter enters by its binary value.
    Otherwise x_1 .. x_{n_max} are scanned, and ``first_violation`` and
    ``bound_first_violation`` are the first n that break each claim.
    Violations are report fields, not errors: they falsify the claim that
    the sequence came from a moment representation.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    limit = x_limit(spec)
    bound = limit.value if limit.is_finite else None
    if _certified_monotone(spec, bound):
        return MonotoneReport(True, None, None if bound is None else True, None, limit, True)
    return _scan_monotone(spec, n_max, limit)


def _scan_monotone(spec: SequenceSpec, n_max: int, limit: SequenceLimit) -> MonotoneReport:
    """The monotone and bound claims scanned on x_1 .. x_{n_max}."""
    top = _max_index(spec)
    if top is not None:
        n_max = min(n_max, top)
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
                          limit, False)


class InequalityReport(NamedTuple):
    ineq1_ok: bool
    ineq2_ok: bool
    violations: tuple  # of (name, n, lhs, rhs)
    # True when both were certified for all n; False when the window was
    # scanned, so an inequality that passes holds to n_max only
    certified_all_n: bool


def _ineq1_sides(y1, y2, y3, y4):
    lhs = y3 * (y4 - y2) + y1 * (y2 - y1)
    rhs = y2 * (y3 - y2) + 2 * y1 * (y3 - y2)
    return lhs, rhs


def _ineq2_sides(y1, y2, y3, y4):
    lhs = 2 * y1 * y2 * y3 + y2 * y3 * y4
    rhs = y1 * y2 * y2 + y2 * y3 * y3 + y1 * y3 * y4
    return lhs, rhs


def _certified_inequalities(spec: SequenceSpec) -> bool:
    """True when both window inequalities are certified for every n >= 0.

    The window x_{n+1} .. x_{n+4} over its positive common denominator
    P = den_1 ... den_4 is Y_i / P with Y_i = num_i prod_{j != i} den_j.
    Both sides are homogeneous in the y's, of degree 2 and 3, so lhs - rhs
    has the sign of the same expression in the polynomial Y's.
    """
    pair = _index_pair(spec, 4)
    if pair is None:
        return False
    nums, dens, base = pair
    ys = [math.prod((d for j, d in enumerate(dens) if j != i), start=nums[i])
          for i in range(4)]
    return all((lhs - rhs).positive(base)
               for lhs, rhs in (_ineq1_sides(*ys), _ineq2_sides(*ys)))


def check_nonlinear_inequalities(spec: SequenceSpec, n_max: int) -> InequalityReport:
    """Necessary nonlinear inequalities for moment-derived sequences.

    Both follow from positivity of integrals of t^{2n} (t^2 - x_{n+1})^2 ...
    against the even measure; the second one from positivity of the order-4
    Hankel determinant of the shifted measure.  A closed-form spec first
    tries to certify both for every n from its pair, reading no x_n.
    Otherwise the window (x_{n+1}, ..., x_{n+4}) is scanned for n = 0 ..
    n_max - 4; the comparison is exact for rational sequences, otherwise
    strict up to a relative slack.
    """
    if n_max < 5:
        raise ValueError("n_max must be at least 5")
    if _certified_inequalities(spec):
        return InequalityReport(True, True, (), True)
    return _scan_inequalities(spec, n_max)


def _scan_inequalities(spec: SequenceSpec, n_max: int) -> InequalityReport:
    """Both window inequalities scanned for n = 0 .. n_max - 4; a list of
    fewer than four values has no window and reports none."""
    top = _max_index(spec)
    if top is not None:
        n_max = min(n_max, top)
    if n_max < 4:
        return InequalityReport(True, True, (), False)
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
    return InequalityReport(ok1, ok2, tuple(violations), False)

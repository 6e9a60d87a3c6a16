"""Explicit orthogonality measures and quadrature verification.

Each catalog entry is a named density -- radial on [0, L) or even on
[-L, L] / the real line -- normalized to unit mass; ``DEFAULT_MEASURES``
pairs each sequence family with the density whose even moments are its
partial products.  The module verifies moment problems by
double-exponential quadrature of the even moments (:func:`moment_integral`).

The ladder-operator measure with the Bessel kernel appears in the sources in
two inequivalent forms; both candidates are kept and a numerical moment test
selects the one actually solving the moment problem (see
:func:`select_bessel_ladder_measure`).
"""

from __future__ import annotations

import functools
import inspect
import math
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .moments import MomentSequence
from .quadrature import QuadratureResult, exp_sinh, tanh_sinh
from .sequences import SequenceSpec, x_floats, x_log_factorials
from .special import bessel_k, log_gamma


class MeasureSpec(NamedTuple):
    """One normalized density.

    ``kind`` is 'radial' (support [0, L)) or 'even' (support [-L, L], with
    L = inf for the whole line).  ``density`` maps a point to the density
    value; ``density_edge``, when present, additionally receives the exact
    distances to the interval endpoints and must be preferred for weights
    singular there.
    """
    name: str
    kind: str
    L: float
    density: Callable[[float], float]
    params: Dict[str, float]
    density_edge: Optional[Callable[[float, float, float], float]] = None


# ---------------------------------------------------------------------------
# catalog densities
# ---------------------------------------------------------------------------

def _param(value) -> float:
    """A measure parameter as a float; ValueError beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a parameter exceeds the float range") from None


def gaussian_radial() -> MeasureSpec:
    """2 r exp(-r^2) dr on [0, inf); moments n!."""
    return MeasureSpec("gaussian_radial", "radial", math.inf,
                       lambda r: 2.0 * r * math.exp(-r * r), {})


def disc_radial(j) -> MeasureSpec:
    """2(2j-1) r (1 - r^2)^(2j-2) dr on [0, 1); moments n!/(2j)_n.

    Requires j > 1/2 (at j = 1/2 the moment problem degenerates to a unit
    mass at r = 1).  The endpoint weight is singular for j < 1.
    """
    jf = _param(j)
    if jf <= 0.5:
        raise ValueError("disc_radial needs j > 1/2")
    c = 2.0 * (2.0 * jf - 1.0)
    expo = 2.0 * jf - 2.0

    def density(r: float) -> float:
        return c * r * (1.0 - r * r) ** expo

    def density_edge(r: float, da: float, db: float) -> float:
        return c * r * (db * (1.0 + r)) ** expo

    return MeasureSpec("disc_radial", "radial", 1.0, density, {"j": jf},
                       density_edge=density_edge)


def bessel_ladder_radial(j) -> MeasureSpec:
    """[4 / Gamma(2j)] K_{2j-1}(2r) r^{2j} dr on [0, inf); the reduction of
    the ladder-operator resolution of the identity.  Moments n! (2j)_n."""
    jf = _param(j)
    if jf <= 0:
        raise ValueError("bessel_ladder_radial needs j > 0")
    log_c = math.log(4.0) - log_gamma(2.0 * jf)

    def density(r: float) -> float:
        return math.exp(log_c + 2.0 * jf * math.log(r)) * bessel_k(2.0 * jf - 1.0, 2.0 * r)

    return MeasureSpec("bessel_ladder_radial", "radial", math.inf, density,
                       {"j": jf})


def bessel_ladder_radial_plain(j) -> MeasureSpec:
    """(2/pi) K_{2j-1}(2r) r^{2-2j} dr on [0, inf): the alternate printed
    form, kept as a candidate for the selection test."""
    jf = _param(j)
    c = 2.0 / math.pi

    def density(r: float) -> float:
        return c * bessel_k(2.0 * jf - 1.0, 2.0 * r) * r ** (2.0 - 2.0 * jf)

    return MeasureSpec("bessel_ladder_radial_plain", "radial", math.inf, density,
                       {"j": jf})


def ultraspherical_even(nu) -> MeasureSpec:
    """Gamma(nu+1)/(sqrt(pi) Gamma(nu+1/2)) (1-x^2)^(nu-1/2) dx on [-1, 1];
    even moments (1/2)_n / (nu+1)_n."""
    nf = _param(nu)
    if nf <= -0.5:
        raise ValueError("ultraspherical_even needs nu > -1/2")
    log_c = log_gamma(nf + 1.0) - 0.5 * math.log(math.pi) - log_gamma(nf + 0.5)
    c = math.exp(log_c)
    expo = nf - 0.5

    def density(x: float) -> float:
        return c * (1.0 - x * x) ** expo

    def density_edge(x: float, da: float, db: float) -> float:
        # distances refer to the radial half [0, 1]: only 1 - x is singular
        return c * (db * (1.0 + x)) ** expo

    return MeasureSpec("ultraspherical_even", "even", 1.0, density, {"nu": nf},
                       density_edge=density_edge)


def jacobi_even(alpha, beta) -> MeasureSpec:
    """Gamma(a+b+3/2)/(Gamma(a+1/2)Gamma(b+1)) |x|^(2a) (1-x^2)^b dx on
    [-1, 1]; even moments (a+1/2)_n / (a+b+3/2)_n."""
    af, bf = _param(alpha), _param(beta)
    if af <= -0.5 or bf <= -1.0:
        raise ValueError("jacobi_even needs alpha > -1/2 and beta > -1")
    c = math.exp(log_gamma(af + bf + 1.5) - log_gamma(af + 0.5) - log_gamma(bf + 1.0))

    def density(x: float) -> float:
        return c * abs(x) ** (2.0 * af) * (1.0 - x * x) ** bf

    def density_edge(x: float, da: float, db: float) -> float:
        # distances are measured from 0 and from L on the radial half
        return c * da ** (2.0 * af) * (db * (1.0 + abs(x))) ** bf

    return MeasureSpec("jacobi_even", "even", 1.0, density,
                       {"alpha": af, "beta": bf}, density_edge=density_edge)


def bessel_mp_even(mu, nu, beta) -> MeasureSpec:
    """2^(1-2mu) beta^(2mu) / (Gamma(mu+nu)Gamma(mu-nu)) K_{2nu}(beta|x|)
    |x|^(2mu-1) dx on the line; even moments 4^n beta^(-2n) (mu+nu)_n (mu-nu)_n."""
    mf, nf, bf = _param(mu), _param(nu), _param(beta)
    if mf - abs(nf) <= 0 or bf <= 0:
        raise ValueError("bessel_mp_even needs mu > |nu| and beta > 0")
    log_c = ((1.0 - 2.0 * mf) * math.log(2.0) + 2.0 * mf * math.log(bf)
             - log_gamma(mf + nf) - log_gamma(mf - nf))

    def density(x: float) -> float:
        ax = abs(x)
        if ax == 0.0:
            return math.inf
        return math.exp(log_c + (2.0 * mf - 1.0) * math.log(ax)) * bessel_k(2.0 * nf, bf * ax)

    return MeasureSpec("bessel_mp_even", "even", math.inf, density,
                       {"mu": mf, "nu": nf, "beta": bf})


def bessel_k_exp_even(mu, nu) -> MeasureSpec:
    """Gamma(mu+1/2) 2^mu / (sqrt(pi) Gamma(mu+nu) Gamma(mu-nu))
    exp(-t^2) K_nu(t^2) |t|^(2mu-1) dt on the line; even moments
    (mu+nu)_n (mu-nu)_n / (2^n (mu+1/2)_n)."""
    mf, nf = _param(mu), _param(nu)
    if mf - abs(nf) <= 0:
        raise ValueError("bessel_k_exp_even needs mu > |nu|")
    log_c = (log_gamma(mf + 0.5) + mf * math.log(2.0) - 0.5 * math.log(math.pi)
             - log_gamma(mf + nf) - log_gamma(mf - nf))

    def density(t: float) -> float:
        at = abs(t)
        if at == 0.0:
            return math.inf
        s = at * at
        if s == 0.0:
            return math.inf
        return math.exp(log_c - s + (2.0 * mf - 1.0) * math.log(at)) * bessel_k(nf, s)

    return MeasureSpec("bessel_k_exp_even", "even", math.inf, density,
                       {"mu": mf, "nu": nf})


def bessel_k_abs_even(mu, nu) -> MeasureSpec:
    """Gamma(mu+1/2) 2^(mu-1) / (sqrt(pi) Gamma(mu+nu) Gamma(mu-nu))
    exp(-|t|) K_nu(|t|) |t|^(mu-1) dt on the line; even moments
    (mu+nu)_{2n} (mu-nu)_{2n} / (4^n (mu+1/2)_{2n})."""
    mf, nf = _param(mu), _param(nu)
    if mf - abs(nf) <= 0:
        raise ValueError("bessel_k_abs_even needs mu > |nu|")
    log_c = (log_gamma(mf + 0.5) + (mf - 1.0) * math.log(2.0)
             - 0.5 * math.log(math.pi) - log_gamma(mf + nf) - log_gamma(mf - nf))

    def density(t: float) -> float:
        at = abs(t)
        if at == 0.0:
            return math.inf
        return math.exp(log_c - at + (mf - 1.0) * math.log(at)) * bessel_k(nf, at)

    return MeasureSpec("bessel_k_abs_even", "even", math.inf, density,
                       {"mu": mf, "nu": nf})


def hermite_even() -> MeasureSpec:
    """exp(-x^2)/sqrt(pi) dx on the line: the spectral measure of the
    canonical shift operator; the canonical phi_n are orthonormal under it."""
    c = 1.0 / math.sqrt(math.pi)
    return MeasureSpec("hermite_even", "even", math.inf,
                       lambda x: c * math.exp(-x * x), {})


_CATALOG: Dict[str, Callable[..., MeasureSpec]] = {
    "gaussian_radial": gaussian_radial,
    "disc_radial": disc_radial,
    "bessel_ladder_radial": bessel_ladder_radial,
    "bessel_ladder_radial_plain": bessel_ladder_radial_plain,
    "ultraspherical_even": ultraspherical_even,
    "jacobi_even": jacobi_even,
    "bessel_mp_even": bessel_mp_even,
    "bessel_k_exp_even": bessel_k_exp_even,
    "bessel_k_abs_even": bessel_k_abs_even,
    "hermite_even": hermite_even,
}

# The catalog density each sequence family is paired with by default; it is
# built with the family's own parameters, which carry the same names.
DEFAULT_MEASURES: Dict[str, str] = {
    "canonical": "gaussian_radial",
    "su11": "disc_radial",
    "barut_girardello": "bessel_ladder_radial",
    "ultraspherical": "ultraspherical_even",
    "jacobi_type": "jacobi_even",
    "meixner_pollaczek_bessel": "bessel_mp_even",
    "bessel_k_exp": "bessel_k_exp_even",
    "bessel_k_abs": "bessel_k_abs_even",
}


def measure_names() -> List[str]:
    return sorted(_CATALOG)


def measure_params(name: str) -> Tuple[str, ...]:
    """The parameter names of a catalog measure."""
    return tuple(inspect.signature(_CATALOG[name]).parameters)


def get_measure(name: str, **params) -> MeasureSpec:
    if name not in _CATALOG:
        raise KeyError(f"unknown measure {name!r}; known: {', '.join(measure_names())}")
    names = measure_params(name)
    if set(params) != set(names):
        raise ValueError(f"measure {name!r} takes parameters {names}; "
                         f"got {tuple(sorted(params))}")
    return _CATALOG[name](**params)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class MomentRow(NamedTuple):
    n: int
    computed: float
    expected: float
    rel_error: float
    converged: bool


class MomentCheckReport(NamedTuple):
    measure: str
    family: str
    rows: Tuple[MomentRow, ...]
    max_abs_rel_error: float
    tolerance: float
    verdict: Optional[bool]  # None when any row's quadrature failed to converge

    @property
    def passed(self) -> bool:
        return bool(self.verdict)


def moment_integral(measure: MeasureSpec, n: int, tolerance: float,
                    log_scale: float = 0.0) -> QuadratureResult:
    """integral of r^(2n) over (0, L) against the radial projection of the
    measure (twice the density of an even one), optionally damped by
    exp(-log_scale) for overflow-free comparison: tanh-sinh for finite L,
    through the edge form of the density when it has one, else exp-sinh.

    The moments of a positive measure are positive, so a result of exactly
    0.0, where no node added a nonzero term (each underflowed, overflowed or
    was skipped), is reported unconverged."""
    factor = 2.0 if measure.kind == "even" else 1.0
    if not math.isinf(measure.L):
        damping = math.exp(-log_scale)
        if measure.density_edge is not None:
            res = tanh_sinh(
                None, 0.0, measure.L, tolerance,
                f_edge=lambda r, da, db:
                    factor * (r ** (2 * n) * damping) * measure.density_edge(r, da, db))
        else:
            res = tanh_sinh(lambda r: factor * (r ** (2 * n) * damping) * measure.density(r),
                            0.0, measure.L, tolerance)
    else:
        # on the half line r^(2n) overflows where the damped integrand is O(1)
        def f(r: float) -> float:
            lr = math.log(r)
            base = factor * measure.density(r)
            if base <= 0.0 or not math.isfinite(base):
                return 0.0 if base == 0.0 else math.inf
            return math.exp(2.0 * n * lr - log_scale + math.log(base))
        res = exp_sinh(f, tolerance)
    return res._replace(converged=False) if res.value == 0.0 else res


def verify_moment_problem(measure: MeasureSpec, spec: SequenceSpec, n_max: int,
                          tolerance: float = 1e-11) -> MomentCheckReport:
    """Check integral r^(2n) d(lambda) = x_n! for n = 0 .. n_max.

    x_n! is read from the spec's one MomentSequence, which the caller may
    have grown already.  Rows whose quadrature does not converge are flagged
    and withhold the verdict.  Expected values beyond the floating range are
    compared in the log domain by damping the integrand.

    Every moment's quadrature visits the same nodes, so the density (and its
    edge form) is memoized for this call, keyed by the node's float
    arguments: each distinct node is evaluated once for all n, and a hit
    returns the value the density itself returns there.
    """
    edge = measure.density_edge
    measure = measure._replace(density=functools.cache(measure.density),
                               density_edge=edge and functools.cache(edge))
    moments = MomentSequence(spec)
    rows = []
    worst = 0.0
    any_unconverged = False
    for n, log_expected in enumerate(x_log_factorials(x_floats(spec, n_max).tolist())):
        if log_expected > 640.0:  # compare exp(-logE) * integral against 1
            res = moment_integral(measure, n, tolerance, log_scale=log_expected)
            expected = math.inf
            computed = res.value  # damped: should be 1
            rel = abs(res.value - 1.0)
        else:
            expected = float(moments.even_moment(n))
            res = moment_integral(measure, n, tolerance)
            computed = res.value
            rel = abs(computed - expected) / max(abs(expected), 1e-300)
        converged = res.converged
        any_unconverged |= not converged
        worst = max(worst, rel)
        rows.append(MomentRow(n, computed, expected, rel, converged))
    verdict = None if any_unconverged else worst <= tolerance
    return MomentCheckReport(measure.name, spec.family, tuple(rows), worst,
                             tolerance, verdict)


class LadderMeasureSelection(NamedTuple):
    j: float
    chosen: str
    max_rel_error_chosen: float
    max_rel_error_rejected: float
    consistent: bool  # exactly one candidate reproduces the moments


def select_bessel_ladder_measure(j, n_check: int = 4,
                                 tolerance: float = 1e-8) -> Tuple[MeasureSpec, LadderMeasureSelection]:
    """Moment test between the two printed forms of the ladder-operator
    measure; returns the verified catalog entry."""
    if isinstance(j, float):  # half-integers are exact in binary
        j = Fraction(j)
    spec = SequenceSpec("barut_girardello", j=j)
    reduced = bessel_ladder_radial(j)
    plain = bessel_ladder_radial_plain(j)
    rep_reduced = verify_moment_problem(reduced, spec, n_check, tolerance)
    rep_plain = verify_moment_problem(plain, spec, n_check, tolerance)
    ok_reduced = bool(rep_reduced.verdict)
    ok_plain = bool(rep_plain.verdict)
    if ok_reduced == ok_plain:
        raise ArithmeticError(
            "ladder-measure selection is ambiguous: "
            f"reduced max rel err {rep_reduced.max_abs_rel_error:.3e}, "
            f"plain max rel err {rep_plain.max_abs_rel_error:.3e}")
    winner, loser = (reduced, rep_plain) if ok_reduced else (plain, rep_reduced)
    chosen_rep = rep_reduced if ok_reduced else rep_plain
    info = LadderMeasureSelection(float(j), winner.name,
                                  chosen_rep.max_abs_rel_error,
                                  loser.max_abs_rel_error, True)
    return winner, info

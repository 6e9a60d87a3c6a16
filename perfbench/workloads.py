"""Workload definitions: which operations one pass runs, and with what inputs.

An operation is one fresh interpreter. CLI operations run
``nlcpoly.cli.main([cfg, ...])`` on a generated config; library operations
run a fixed list of public library calls on one sequence spec. The seed sets
``run.seed`` in every config and draws the library sample points; it never
changes how much work a pass does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# README catalog families at their documented example parameters. The flag
# says whether the CLI pairs the family with a default measure, which adds
# the "measure" verdict to ``all``.
CATALOG: Dict[str, Tuple[Dict[str, str], bool]] = {
    "canonical": ({}, True),
    "su11": ({"j": "3/2"}, True),
    "barut_girardello": ({"j": "1"}, True),
    "ultraspherical": ({"nu": "1"}, True),
    "jacobi_type": ({"alpha": "1", "beta": "1"}, True),
    "meixner_pollaczek_bessel": ({"mu": "1", "nu": "1/4", "beta": "2"}, True),
    "bessel_k_exp": ({"mu": "3/2", "nu": "1/2"}, True),
    "bessel_k_abs": ({"mu": "3/2", "nu": "1/2"}, True),
    "gamma_quotient": ({"a": "3", "b": "2", "c": "1"}, False),
    "q_gamma_quotient": ({"A": "1/8", "B": "1/4", "C": "1/2", "q": "1/2"}, False),
    "grinshpan_ismail_s3": ({"a1": "1", "a2": "1/2", "a3": "1/4"}, False),
    "rational": ({"num": "0, 1", "den": "1"}, False),
}

# The heavy setting from the roadmap: --n-max 20 --order 400.
HEAVY: Dict[str, Tuple[Dict[str, str], bool]] = {
    "su11": ({"j": "3/2"}, True),
    "grinshpan_ismail_s3": ({"a1": "1", "a2": "1/2", "a3": "1/4"}, False),
    "ultraspherical": ({"nu": "3/10"}, True),
    "barut_girardello": ({"j": "1"}, True),
}

# Library specs: three exact, and ultraspherical with a Python float, which
# the CLI cannot produce (it parses 0.3 as Fraction(3, 10)). All four have
# lim x_n = 1.
LIBRARY: Dict[str, Tuple[str, Dict[str, object]]] = {
    "grinshpan_ismail_s3": ("grinshpan_ismail_s3", {"a1": "1", "a2": "1/2", "a3": "1/4"}),
    "jacobi_type": ("jacobi_type", {"alpha": "1", "beta": "1"}),
    "q_gamma_quotient": ("q_gamma_quotient", {"A": "1/8", "B": "1/4", "C": "1/2", "q": "1/2"}),
    "ultraspherical_float": ("ultraspherical", {"nu": 0.3}),
}

# What the paper says the Nevai diagnostic must report. GI-s3 has
# sqrt(x_n) - 1 = O(1/n^2) and the q-quotient decays geometrically, so both
# converge; jacobi_type and ultraspherical have x_n - 1 ~ c/n, a tail
# exponent of exactly 1, which the diagnostic's [0.9, 1.1] band calls
# inconclusive.
NEVAI_CLAIM = {
    "grinshpan_ismail_s3": "converges",
    "q_gamma_quotient": "converges",
    "jacobi_type": "inconclusive",
    "ultraspherical": "inconclusive",
}

# Known defects that the checks report by name instead of hiding. Defect A
# (ROADMAP): run.order drives both the Jacobi truncation and the Hausdorff
# finite-difference order, and at order 400 the float differences blow up,
# so cm_check FAILs on genuine moment sequences and `all` exits 1.
DEFECT_A = "defect A: cm_check FAILs on a genuine moment sequence at order 400"

# Not run: the README's 4-value `explicit` and `analytic_function` examples
# are too short for `all` at n_max 12 and exit 2 with a config error.
TOO_SHORT_FOR_ALL = {
    "explicit": {"values": "1, 3/2, 2, 5/2"},
    "analytic_function": {"taylor_norms": "1, 1, 1.4142135623730951, 2.449489742783178"},
}

SIZES = {
    "full": {
        "catalog": list(CATALOG), "heavy": list(HEAVY), "heavy_n_max": 20,
        "heavy_order": 400, "library": list(LIBRARY), "window": (2000, 4000),
        "phi_n": 6000, "nevai_n": 4096, "monotone_n": 10**4, "ineq_n": 10**3,
        "hankel_n": 20, "berg_n": 20,
    },
    "tiny": {
        "catalog": ["su11", "grinshpan_ismail_s3"], "heavy": ["su11"],
        "heavy_n_max": 8, "heavy_order": 40,
        "library": ["grinshpan_ismail_s3", "ultraspherical_float"], "window": (200, 400),
        "phi_n": 300, "nevai_n": 64, "monotone_n": 100, "ineq_n": 50,
        "hankel_n": 6, "berg_n": 8,
    },
}

WORKLOADS = ("cli_catalog", "cli_heavy", "library_long")


@dataclass
class Op:
    """One operation of a pass: a fresh interpreter running one family."""
    name: str
    kind: str  # "cli" or "library"
    family: str
    params: Dict[str, object]
    argv: List[str] = field(default_factory=list)      # cli: flags after the config path
    config: str = ""                                   # cli: config text without [output]
    calls: List[list] = field(default_factory=list)    # library: call list
    measure: bool = False
    n_max: int = 12
    order: int = 8
    known_failures: Dict[str, str] = field(default_factory=dict)


def _config_text(family: str, params: Dict[str, str], seed: int) -> str:
    lines = ["[sequence]", f"family = {family}"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    lines += ["", "[run]", "command = all", f"seed = {seed}", ""]
    return "\n".join(lines)


def build(workload: str, seed: int, scale: str = "full") -> List[Op]:
    """Operations of one pass, in the order they run."""
    size = SIZES[scale]
    if workload == "cli_catalog":
        return [Op(fam, "cli", fam, CATALOG[fam][0],
                   config=_config_text(fam, CATALOG[fam][0], seed),
                   measure=CATALOG[fam][1])
                for fam in size["catalog"]]
    if workload == "cli_heavy":
        n_max, order = size["heavy_n_max"], size["heavy_order"]
        return [Op(fam, "cli", fam, HEAVY[fam][0],
                   argv=["--n-max", str(n_max), "--order", str(order)],
                   config=_config_text(fam, HEAVY[fam][0], seed),
                   measure=HEAVY[fam][1], n_max=n_max, order=order,
                   known_failures={"verdict:cm_check": DEFECT_A})
                for fam in size["heavy"]]
    if workload == "library_long":
        rng = random.Random(seed)
        ops = []
        for label in size["library"]:
            family, params = LIBRARY[label]
            xs = sorted(round(rng.uniform(-0.6, 0.6), 4) for _ in range(3))
            calls = [["amplitude_extract", x, list(size["window"])] for x in xs]
            calls += [
                ["phi_value", size["phi_n"], round(rng.uniform(-1.2, 1.2), 4)],
                ["nevai_condition", size["nevai_n"]],
                ["check_monotone_and_bounded", size["monotone_n"]],
                ["check_nonlinear_inequalities", size["ineq_n"]],
                ["hankel_determinant", size["hankel_n"]],
                ["berg_duran_check", size["berg_n"]],
            ]
            ops.append(Op(label, "library", family, params, calls=calls))
        return ops
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")

"""Correctness checks that do not use the program's own elimination,
recurrence or eigen code.

Each check returns ``(name, ok, detail)``. The oracles are the closed-form
sequence rules documented in the README, evaluated here in Fractions, plain
Gaussian elimination for Hankel determinants and
``scipy.linalg.eigvalsh_tridiagonal`` for Jacobi zeros.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from workloads import NEVAI_CLAIM, Op

Check = Tuple[str, bool, str]
TOLERANCE = 1e-11  # the CLI's default run.tolerance, which the workloads keep
_HALF = Fraction(1, 2)


def _num(v):
    return v if isinstance(v, float) else Fraction(v)


def _q_gamma(p, n):
    s = p["q"] ** (n - 1)
    return (1 - p["C"] * s) * (1 - p["A"] * p["B"] / p["C"] * s) / ((1 - p["A"] * s) * (1 - p["B"] * s))


def _gi_s3(p, n):
    a1, a2, a3 = p["a1"], p["a2"], p["a3"]
    return (n * (n + a1 + a2) * (n + a1 + a3) * (n + a2 + a3)
            / ((n + a1) * (n + a2) * (n + a3) * (n + a1 + a2 + a3)))


# x_n as the README states each family; exact for exact parameters.
X_RULES = {
    "canonical": lambda p, n: Fraction(n),
    "su11": lambda p, n: n / (2 * p["j"] + n - 1),
    "barut_girardello": lambda p, n: n * (2 * p["j"] + n - 1),
    "ultraspherical": lambda p, n: (n - _HALF) / (p["nu"] + n),
    "jacobi_type": lambda p, n: (p["alpha"] + n - _HALF) / (p["alpha"] + p["beta"] + n + _HALF),
    "meixner_pollaczek_bessel": lambda p, n: (4 / p["beta"] ** 2 * (p["mu"] + p["nu"] + n - 1)
                                              * (p["mu"] - p["nu"] + n - 1)),
    "bessel_k_exp": lambda p, n: ((p["mu"] + p["nu"] + n - 1) * (p["mu"] - p["nu"] + n - 1)
                                  / (2 * (p["mu"] + n - _HALF))),
    "gamma_quotient": lambda p, n: ((p["c"] + n - 1) * (p["a"] + p["b"] - p["c"] + n - 1)
                                    / ((p["a"] + n - 1) * (p["b"] + n - 1))),
    "q_gamma_quotient": _q_gamma,
    "grinshpan_ismail_s3": _gi_s3,
    "rational": lambda p, n: (sum(c * n ** k for k, c in enumerate(p["num"]))
                              / sum(c * n ** k for k, c in enumerate(p["den"]))),
}


class Oracle:
    """The benchmark's own evaluation of one sequence spec."""

    def __init__(self, family: str, params: Dict[str, object]):
        self.family = family
        self.p = {k: [Fraction(t) for t in v.split(",")] if k in ("num", "den") else _num(v)
                  for k, v in params.items()}
        self.rule = X_RULES.get(family)

    def x(self, n: int):
        return self.rule(self.p, n)

    def x_minus_one(self, n: int) -> float:
        """x_n - 1 without cancellation, for the families whose limit is 1."""
        p = self.p
        if self.family == "q_gamma_quotient":
            A, B, C, q = (float(p[k]) for k in ("A", "B", "C", "q"))
            s = q ** (n - 1)
            return -s * (A - C) * (B - C) / (C * (1 - A * s) * (1 - B * s))
        if self.family == "ultraspherical" and isinstance(p["nu"], float):
            return -(p["nu"] + 0.5) / (p["nu"] + n)
        return float(self.x(n) - 1)

    def x_float(self, n: int) -> float:
        if self.family == "q_gamma_quotient" and n > 64:  # q^n needs huge Fractions
            return 1.0 + self.x_minus_one(n)
        return float(self.x(n))

    def even_moments(self, count: int) -> list:
        """mu_0, mu_2, ..., as running products in index order."""
        acc = Fraction(1) if not isinstance(self.x(1), float) else 1.0
        out = [acc]
        for k in range(1, count):
            acc = acc * self.x(k)
            out.append(acc)
        return out


def hankel_minors(even: list, size: int) -> List[Fraction]:
    """D_0 .. D_{size-1} of [mu_{i+j}] (odd moments zero) as running products
    of the pivots of unpivoted Gaussian elimination, in exact arithmetic."""
    mu = lambda m: Fraction(0) if m % 2 else Fraction(even[m // 2])  # noqa: E731
    a = [[mu(i + j) for j in range(size)] for i in range(size)]
    dets, acc = [], Fraction(1)
    for k in range(size):
        pivot = a[k][k]
        acc *= pivot
        dets.append(acc)
        if pivot == 0:
            break
        for i in range(k + 1, size):
            f = a[i][k] / pivot
            if f:
                for j in range(k, size):
                    a[i][j] -= f * a[k][j]
    return dets


def _psi_window(oracle: Oracle, x: float, n_lo: int, n_hi: int) -> np.ndarray:
    """psi_n(x) = phi_n(sqrt(2) x), n_lo .. n_hi, for lim x_n = 1."""
    a = [0.0] + [math.sqrt(oracle.x_float(k) / 4.0) for k in range(1, n_hi + 1)]
    out = np.empty(n_hi - n_lo + 1)
    prev, cur = 0.0, 1.0
    for k in range(n_hi):
        prev, cur = cur, (x * cur - a[k] * prev) / a[k + 1]
        if k + 1 >= n_lo:
            out[k + 1 - n_lo] = cur
    return out


def _phi(oracle: Oracle, n: int, x: float) -> float:
    b = [0.0] + [math.sqrt(oracle.x_float(k) / 2.0) for k in range(1, n + 1)]
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, (x * cur - b[k] * prev) / b[k + 1]
    return cur


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------

def _read_csv(path: str) -> List[List[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0][0].startswith("# nlcpoly"):
        raise ValueError(f"{os.path.basename(path)}: missing version/config comment line")
    return rows[2:]


def check_moments(op: Op, oracle: Oracle, moments: List[Fraction]) -> Check:
    if oracle.rule is None:
        return ("moments", True, "no closed form in README; not compared")
    expected = oracle.even_moments(len(moments))
    bad = [n for n, (m, e) in enumerate(zip(moments, expected)) if m != e]
    if len(moments) != op.n_max + 1:
        return ("moments", False, f"{len(moments)} rows, expected {op.n_max + 1}")
    return ("moments", not bad, f"mu2n_exact differs from the README rule at n={bad[:3]}" if bad else "")


def check_hankel_csv(rows: List[List[str]], moments: List[Fraction]) -> Check:
    dets = hankel_minors(moments, len(moments))
    for row in rows:
        n = int(row[0])
        if n >= len(dets):
            return ("hankel", False, f"D_{n} listed beyond the {len(dets)} moments written")
        if row[2] != "true" or not _close(float(row[1]), float(dets[n]), 1e-12):
            return ("hankel", False, f"D_{n}: got {row[1]} positive={row[2]}, expected {float(dets[n])!r}")
    return ("hankel", bool(rows), "" if rows else "hankel.csv is empty")


def check_polys_hankel(op: Op, rows: List[List[str]], moments: List[Fraction]) -> Check:
    """Each monic P_n must satisfy sum_k c_k mu_{k+m} = 0 for m < n, exactly."""
    mu = lambda m: Fraction(0) if m % 2 else moments[m // 2]  # noqa: E731
    polys: Dict[int, Dict[int, Fraction]] = {}
    for row in rows:
        polys.setdefault(int(row[0]), {})[int(row[1])] = Fraction(row[3])
    if sorted(polys) != list(range(op.n_max + 1)):
        return ("polys_hankel", False, f"degrees {sorted(polys)}, expected 0..{op.n_max}")
    for n, coeffs in polys.items():
        if coeffs.get(n) != 1 or sorted(coeffs) != list(range(n + 1)):
            return ("polys_hankel", False, f"P_{n} is not monic of degree {n}")
        for m in range(n):
            if sum(c * mu(k + m) for k, c in coeffs.items()) != 0:
                return ("polys_hankel", False, f"P_{n} is not orthogonal to x^{m}")
    return ("polys_hankel", True, "")


def check_zeros(op: Op, oracle: Oracle, rows: List[List[str]], moments: List[Fraction]) -> Check:
    order = op.order
    if len(rows) != order:
        return ("zeros", False, f"{len(rows)} zeros, expected {order}")
    xs = []
    for k in range(1, order):
        if k < len(moments):
            xs.append(moments[k] / moments[k - 1])
        elif oracle.rule is not None:
            xs.append(oracle.x(k))
        else:
            return ("zeros", False, f"no x_{k}: moments stop at n={len(moments) - 1}")
    off = np.sqrt(np.array([float(v) / 2.0 for v in xs]))
    eig = np.sort(eigvalsh_tridiagonal(np.zeros(order), off))[::-1]
    slack = 64 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(eig))))
    for j, (row, e) in enumerate(zip(rows, eig)):
        z, lo, hi = float(row[2]), float(row[3]), float(row[4])
        if not (lo - TOLERANCE - slack <= e <= hi + TOLERANCE + slack
                and abs(z - e) <= (hi - lo) + TOLERANCE + slack):
            return ("zeros", False, f"zero {j + 1}: {z!r} in [{lo!r}, {hi!r}], eigvalsh {e!r}")
    return ("zeros", True, "")


def check_cli(op: Op, out_dir: str, rc: Optional[int]) -> List[Check]:
    """All checks of one CLI operation; a crash or bad exit code fails each."""
    verdict_names = ["hankel_positive", "zeros_within_bounds", "cm_check"]
    if op.measure:
        verdict_names.append("measure")
    names = ["exit", "moments", "hankel", "polys_hankel", "zeros"] + [f"verdict:{v}" for v in verdict_names]
    path = lambda suffix: os.path.join(out_dir, f"{op.name}_{suffix}")  # noqa: E731
    try:
        if rc not in (0, 1):
            raise ValueError(f"exit code {rc}")
        with open(path("summary.json")) as fh:
            verdicts = json.load(fh)["results"]["verdicts"]
        moment_rows = _read_csv(path("moments.csv"))
        moments = [Fraction(r[2]) for r in moment_rows]
        hankel_rows = _read_csv(path("hankel.csv"))
        poly_rows = _read_csv(path("polys_hankel.csv"))
        zero_rows = _read_csv(path("zeros.csv"))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [(n, False, f"no usable output: {exc}") for n in names]
    oracle = Oracle(op.family, op.params)
    any_fail = "FAIL" in verdicts.values()
    checks = [("exit", rc == (1 if any_fail else 0), f"exit {rc} with verdicts {verdicts}"),
              check_moments(op, oracle, moments),
              check_hankel_csv(hankel_rows, moments),
              check_polys_hankel(op, poly_rows, moments),
              check_zeros(op, oracle, zero_rows, moments)]
    for v in verdict_names:  # every catalog family is a genuine moment sequence
        checks.append((f"verdict:{v}", verdicts.get(v) == "PASS", f"{v} = {verdicts.get(v)}"))
    return checks


# ---------------------------------------------------------------------------
# library results
# ---------------------------------------------------------------------------

def check_library(op: Op, rc: Optional[int], results: Optional[list]) -> List[Check]:
    names = ["exit"] + [c[0] for c in op.calls]
    if rc != 0 or results is None or len(results) != len(op.calls):
        return [(n, False, f"exit code {rc}, no results") for n in names]
    oracle = Oracle(op.family, op.params)
    checks: List[Check] = [("exit", True, "")]
    for (name, *args), (_, r) in zip(op.calls, results):
        if name == "amplitude_extract":
            x, (lo, hi) = args
            s = math.sqrt(1.0 - x * x) * _psi_window(oracle, x, lo, hi)
            rms_amp = math.sqrt(2.0 * float(np.mean(s * s)))
            ok = not r["inconclusive"] and _close(r["sine_fit"], rms_amp, 0.03)
            checks.append((name, ok, f"x={x}: sine fit {r['sine_fit']!r}, sqrt(2)*rms {rms_amp!r}"))
        elif name == "phi_value":
            n, x = args
            ref = _phi(oracle, n, x)
            checks.append((name, abs(r["value"] - ref) <= 1e-9 * max(1.0, abs(ref)),
                           f"phi_{n}({x}) = {r['value']!r}, expected {ref!r}"))
        elif name == "nevai_condition":
            total = 0.0
            for k in range(1, args[0] + 1):
                d = oracle.x_minus_one(k)
                total += abs(d) / (math.sqrt(1.0 + d) + 1.0) / 2.0
            claim = NEVAI_CLAIM[op.family]
            ok = r["verdict"] == claim and _close(r["partial_sum"], total, 1e-9)
            checks.append((name, ok, f"verdict {r['verdict']} (claim {claim}), "
                                     f"partial sum {r['partial_sum']!r} vs {total!r}"))
        elif name == "check_monotone_and_bounded":
            checks.append((name, r["monotone"] is True and r["bounded"] is True, str(r)))
        elif name == "check_nonlinear_inequalities":
            checks.append((name, r["ineq1_ok"] and r["ineq2_ok"], str(r)))
        elif name == "berg_duran_check":
            checks.append((name, r["hausdorff_ok"] and r["stieltjes_ok"], str(r)))
        elif name == "hankel_determinant":
            checks.append(_check_hankel_results(oracle, r))
    return checks


def _check_hankel_results(oracle: Oracle, rows: list) -> Check:
    dets = hankel_minors(oracle.even_moments(len(rows)), len(rows))
    for row, det in zip(rows, dets):
        value = _num(row["value"]) if row["exact"] else float(row["value"])
        ok = row["positive"] and (value == det if row["exact"] else _close(value, float(det), 1e-9))
        if not ok:
            return ("hankel_determinant", False,
                    f"D_{row['n']} = {row['value']} positive={row['positive']}, expected {float(det)!r}")
    return ("hankel_determinant", len(rows) == len(dets), "")


def check_deterministic(first, now) -> Check:
    """Outputs of a repeated operation must match its first run byte for byte."""
    return ("deterministic", now is not None and now == first,
            "outputs differ from the first run of this operation")

"""Command-line front end.

Reads a sectioned config file, runs one analysis pipeline (or ``all``) and
writes CSV tables plus a JSON summary.  Outputs are deterministic: identical
config and package version produce byte-identical files.  Exit status is 0
when every verdict-carrying check passes, 1 when any fails, 2 on usage or
configuration errors, and 3 when the program itself fails (an internal error,
printed with its traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import traceback
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .asymptotics import amplitude_extract, nevai_condition, rescaled_phi_window
from .config import CONFIG_KEYS, ConfigError, RunConfig, load_config
from .measures import DEFAULT_MEASURES, MeasureSpec, get_measure, verify_moment_problem
from .moments import (DegenerateMomentsError, MomentSequence, berg_duran_check,
                      hankel_determinant, hankel_polynomial)
from .recurrence import monic_q_polynomials, phi_window
from .sequences import (ParameterDomainError, SequenceRangeError, SequenceSpec, x_floats,
                        x_limit, x_log_factorials)
from .spectral import (TruncatedJacobi, ismail_li_bounds, jacobi_zeros, sturm_count,
                       support_endpoints)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


# the steps of ``all``, in order; verify-measure runs when there is a measure
_ALL_STEPS = ("moments", "hankel", "polys", "zeros", "bounds", "nevai", "cm-check",
              "verify-measure")


class _Runner:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.spec = cfg.spec()
        self.files: List[str] = []
        self.summary: Dict[str, object] = {}
        self.verdicts: Dict[str, Optional[bool]] = {}
        # shared by hankel and polys: one Chebyshev pass serves both
        self.moments = MomentSequence(self.spec)
        # resolved before any step runs, so a bad [measure] section writes nothing
        self.measure = _run_measure(cfg, self.spec)
        if self.measure is None and cfg.command == "verify-measure":
            raise ConfigError(f"no default measure for family {self.spec.family!r}; "
                              "add a [measure] section")
        os.makedirs(cfg.out_dir, exist_ok=True)

    def _path(self, suffix: str) -> str:
        return os.path.join(self.cfg.out_dir, f"{self.cfg.prefix}_{suffix}")

    def _write_csv(self, suffix: str, header: List[str], rows) -> str:
        path = self._path(suffix)
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# nlcpoly {__version__} config={self.cfg.sha256()}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        self.files.append(path)
        return path

    # -- commands ----------------------------------------------------------

    def cmd_moments(self) -> None:
        spec, n_max = self.spec, self.cfg.n_max
        log_mus = x_log_factorials(x_floats(spec, n_max).tolist())
        rows = []
        for n, log_mu in enumerate(log_mus):
            mu = self.moments.even_moment(n)
            value = float(mu) if log_mu < 700 else math.inf
            rows.append((n, value, str(mu), log_mu))
        self._write_csv("moments.csv", ["n", "mu2n", "mu2n_exact", "log_mu2n"], rows)
        self.summary["moments"] = {"n_max": n_max, "exact": True}

    def cmd_hankel(self) -> None:
        results = [hankel_determinant(self.moments, n) for n in range(self.cfg.n_max + 1)]
        all_positive = all(res.positive for res in results)
        rows = [(n, float(res.value), res.positive, res.exact)
                for n, res in enumerate(results)]
        self._write_csv("hankel.csv", ["n", "det", "positive", "exact"], rows)
        self.verdicts["hankel_positive"] = all_positive
        self.summary["hankel"] = {"all_positive": all_positive, "n_max": self.cfg.n_max}

    def cmd_polys(self) -> None:
        spec = self.spec
        rows = [(n, k, float(c), str(c))
                for n, poly in enumerate(monic_q_polynomials(spec, self.cfg.n_max))
                for k, c in enumerate(poly)]
        self._write_csv("polys_monic.csv", ["n", "k", "coeff", "coeff_exact"], rows)
        polys = [hankel_polynomial(self.moments, n) for n in range(1, self.cfg.n_max + 1)]
        rows = [(0, 0, 1.0, "1")]
        for n, poly in enumerate(polys, 1):
            rows.extend((n, k, float(c), str(c)) for k, c in enumerate(poly))
        self._write_csv("polys_hankel.csv", ["n", "k", "coeff", "coeff_exact"], rows)
        rng = random.Random(self.cfg.seed)
        points = [rng.uniform(-2.0, 2.0) for _ in range(5)]
        columns = [phi_window(spec, 0, self.cfg.n_max, x).tolist() for x in points]
        rows = [(n, x, phi[n])
                for n in range(self.cfg.n_max + 1) for x, phi in zip(points, columns)]
        self._write_csv("phi_samples.csv", ["n", "x", "phi"], rows)
        self.summary["polys"] = {"n_max": self.cfg.n_max}

    def _truncation(self, order: int) -> TruncatedJacobi:
        """The float truncation x_floats(spec, order - 1) / 2: the bits of the
        exact x_k / 2 rounded once, with no Fraction formed."""
        return TruncatedJacobi(tuple((x_floats(self.spec, order - 1) / 2).tolist()))

    def cmd_zeros(self) -> None:
        order = self.cfg.order
        result = jacobi_zeros(self._truncation(order), self.cfg.tolerance)
        rows = [(order, j + 1, z, lo, hi)
                for j, (z, (lo, hi)) in enumerate(zip(result.zeros, result.brackets))]
        self._write_csv("zeros.csv", ["n", "j", "zero", "lower_bracket", "upper_bracket"], rows)
        self.summary["zeros"] = {
            "order": order, "count_mismatches": result.count_mismatches,
            "max_residual": max(result.residual_bounds),
            "bisection_steps": result.bisection_steps,
        }

    def cmd_bounds(self) -> None:
        order = max(self.cfg.order, 2)
        a, b = ismail_li_bounds(self.spec, order)
        # no zero at or below A and every zero below B; the spectrum is
        # symmetric, so a zero pivot at either bound fails the first count
        q = self._truncation(order)
        contained = sturm_count(q, a) == 0 and sturm_count(q, b) == order
        supp = support_endpoints(self.spec)
        self.verdicts["zeros_within_bounds"] = contained
        self.summary["bounds"] = {
            "order": order, "A": a, "B": b, "contained": contained,
            "support_kind": supp.kind, "support_endpoint": supp.endpoint,
        }

    def cmd_verify_measure(self) -> None:
        report = verify_moment_problem(self.measure, self.spec, self.cfg.n_max,
                                       self.cfg.tolerance)
        rows = [(r.n, r.computed, r.expected, r.rel_error, r.converged)
                for r in report.rows]
        self._write_csv("measure_check.csv",
                        ["n", "computed", "expected", "rel_error", "converged"], rows)
        self.verdicts["measure"] = report.verdict
        self.summary["verify_measure"] = {
            "measure": self.measure.name,
            "max_abs_rel_error": report.max_abs_rel_error,
            "verdict": _verdict_word(report.verdict),
        }

    def cmd_nevai(self) -> None:
        diag = nevai_condition(self.spec, self.cfg.nevai_n_max)
        self._write_csv("nevai.csv", ["N", "partial_sum"],
                        list(diag.partial_sums_checkpoints))
        tail, note = diag.tail_exponent, diag.note
        if tail is not None and not math.isfinite(tail):  # strict JSON has no Infinity
            tail, note = None, f"{note}; tail exponent {_fmt(diag.tail_exponent)} written as null"
        self.summary["nevai"] = {
            "verdict": diag.verdict, "tail_exponent": tail, "n_max": diag.n_max, "note": note,
        }

    def cmd_amplitude(self) -> None:
        lim = x_limit(self.spec)
        if not (lim.is_finite and lim.value > 0):
            reason = "is 0" if lim.is_finite else "not finite"
            self.summary["amplitude"] = {"note": f"sequence limit {reason}; skipped"}
            return
        lo, hi = self.cfg.amplitude_window
        estimates = []
        rows = []
        for x in self.cfg.amplitude_points:
            est = amplitude_extract(self.spec, x, (lo, hi))
            fit = {"sine_fit": est.sine_fit_amplitude, "envelope": est.envelope_amplitude,
                   "spread": est.spread, "theta_fit": est.theta_fit}
            # an inconclusive estimate's NaNs are written as null (strict JSON)
            estimates.append({"x": x, "inconclusive": est.inconclusive,
                              **{k: v if math.isfinite(v) else None for k, v in fit.items()}})
            s = np.sqrt(1.0 - x * x) * rescaled_phi_window(self.spec, lo, min(lo + 64, hi), x)
            rows.extend((x, lo + i, float(v)) for i, v in enumerate(s))
        self._write_csv("amplitude_trace.csv", ["x", "n", "s_n"], rows)
        self.summary["amplitude"] = {"window": [lo, hi], "estimates": estimates}

    def cmd_cm_check(self) -> None:
        # run.order is the Jacobi truncation; the difference order stays the library default
        report = berg_duran_check(self.spec, self.cfg.n_max)
        self.verdicts["cm_check"] = report.hausdorff_ok and report.stieltjes_hankels_ok
        self.summary["cm_check"] = {
            "hausdorff_ok": report.hausdorff_ok,
            "stieltjes_hankels_ok": report.stieltjes_hankels_ok,
            "min_signed_difference": report.cm_report.min_signed_difference,
            "first_failure": list(report.cm_report.first_failure)
            if report.cm_report.first_failure else None,
        }

    def run(self) -> int:
        command = self.cfg.command
        steps = (command,)
        if command == "all":
            steps = _ALL_STEPS if self.measure is not None else _ALL_STEPS[:-1]
        for step in steps:
            getattr(self, "cmd_" + step.replace("-", "_"))()

        failed = [k for k, v in self.verdicts.items() if v is False]
        overall: Optional[bool] = None
        if self.verdicts:
            if failed:
                overall = False
            elif any(v is None for v in self.verdicts.values()):
                overall = None  # some verdict withheld (e.g. unconverged row)
            else:
                overall = True
        self.summary["verdicts"] = {k: _verdict_word(v) for k, v in self.verdicts.items()}
        payload = {
            "command": command,
            "config_sha256": self.cfg.sha256(),
            "family": self.spec.family,
            "results": self.summary,
            "verdict": _verdict_word(overall),
            "version": __version__,
        }
        path = self._path("summary.json")
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt, allow_nan=False)
            fh.write("\n")
        self.files.append(path)

        print(f"nlcpoly {__version__}  command={command}  family={self.spec.family}")
        for key, verdict in sorted(self.verdicts.items()):
            print(f"  {key}: {_verdict_word(verdict)}")
        for f in self.files:
            print(f"  wrote {f}")
        if failed:
            return 1
        return 0


def _verdict_word(v: Optional[bool]) -> Optional[str]:
    if v is None:
        return None
    return "PASS" if v else "FAIL"


def _run_measure(cfg: RunConfig, spec: SequenceSpec) -> Optional[MeasureSpec]:
    """The run's measure: the [measure] section's density, else the family's
    default, else None."""
    if not cfg.measure:
        return default_measure_for(spec)
    try:
        return get_measure(cfg.measure, **cfg.measure_params)
    except ValueError as exc:  # parameters missing, unknown or outside the domain
        raise ConfigError(f"measure {cfg.measure!r}: {exc}") from exc


def default_measure_for(spec: SequenceSpec) -> Optional[MeasureSpec]:
    """Catalog density paired with a family, when one exists and accepts the
    family's parameters."""
    name = DEFAULT_MEASURES.get(spec.family)
    if name is None:
        return None
    try:
        return get_measure(name, **spec.params)
    except ValueError:  # e.g. disc_radial needs j > 1/2
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlcpoly",
        description="Moment, polynomial and spectral analyses for positive "
                    "coherent-state sequences.")
    parser.add_argument("config", help="path to the INI-style run config")
    for k in CONFIG_KEYS:
        if k.flag:  # the flag's text is read and checked like the key's
            parser.add_argument("--" + k.field.replace("_", "-"), dest=k.field,
                                help=f"override [{k.section}] {k.key}")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="generic override, repeatable; flags win over the file "
                             "and over --set")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.sets)
    for k in CONFIG_KEYS:
        if k.flag and getattr(args, k.field):  # an empty --out-dir or --prefix is ignored
            overrides.append(f"{k.section}.{k.key}={getattr(args, k.field)}")
    try:
        return _run(args.config, overrides)
    except Exception as exc:  # a crash must not read as a FAIL (1) or a config error (2)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


def _run(config_path: str, overrides: List[str]) -> int:
    try:
        cfg = load_config(config_path, overrides)
        runner = _Runner(cfg)
    except (ConfigError, ParameterDomainError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return runner.run()
    except (ConfigError, DegenerateMomentsError, ParameterDomainError,
            SequenceRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

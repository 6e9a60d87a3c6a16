"""nlcpoly benchmark: fresh-process CLI and long-index library workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_catalog --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table

A closed loop: one parent process runs one operation at a time, and every
operation is a fresh Python interpreter (``perfbench/child.py``), because
CLI users pay the import and lazy set-up on every run. A pass is every
operation of the workload once, in order; operations repeat round-robin
until the next one would end past ``--seconds``, at least twice each.

End-to-end metrics (``--trace 0``); a pass figure sums each operation's median:
  wall_s       one pass: spawn-to-exit time of each operation
  compute_s    one pass: time inside nlcpoly.cli.main(argv) or the library calls
  setup_s      median over executions: spawn until `import nlcpoly.cli` has finished
  peak_rss_mb  the largest max-RSS of any operation

``--trace 1`` runs each operation untraced and traced in turn and prints
the per-layer metrics of the traced executions (see ``tracer.py``), with
the tracing overhead as traced minus untraced compute_s.

Failed (operation, check) pairs are split into unexpected failures, which
make ``correct`` false, and the named known defects of ``workloads.py``;
``fail_ratio`` counts both. Details, per-family times and the spans of the
last run of each workload go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 170.0  # an operation never gets more than what is left of this

END_TO_END = (("wall_s", "s"), ("compute_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
TIMED = ("moments.hankel_polynomial", "moments.hankel_determinant", "moments.berg_duran_check",
         "spectral.jacobi_zeros", "spectral.build_truncated",
         "sequences.check_monotone_and_bounded", "sequences.check_nonlinear_inequalities",
         "recurrence.phi_value", "recurrence.monic_q_coefficients",
         "asymptotics.amplitude_extract", "asymptotics.rescaled_phi_window",
         "asymptotics.nevai_condition", "measures.verify_moment_problem",
         "measures.select_bessel_ladder_measure", "special.cm_sequence_test", "config.load_config")
COUNTED = ("moments.bareiss_determinant", "spectral.jacobi_zeros", "spectral.sturm_count",
           "sequences.x_value", "sequences.x_float", "sequences.x_limit", "special.bessel_k")
COUNTERS = (("quadrature.nodes", "count"), ("quadrature.levels.max", "count"),
            ("quadrature.skipped_nodes", "count"), ("quadrature.unconverged", "count"),
            ("moments.precision_bits.max", "bits"))
PER_LAYER = (
    [(f"{f}.s", "s") for f in TIMED]
    + [(f"{f}.calls", "count") for f in COUNTED]
    + [("quadrature.calls", "count"), ("quadrature.s", "s")] + list(COUNTERS)
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("cli.output_bytes", "bytes"), ("cli.files", "count"),
       ("trace.compute_s", "s"), ("trace.untraced_compute_s", "s"),
       ("trace.overhead_s", "s"), ("trace.outside_s", "s"), ("trace.spans", "count")]
)
_QUAD_RULES = ("quadrature.tanh_sinh", "quadrature.exp_sinh")


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------

def _spawn(payload: dict, tmp: Path, timeout: float) -> dict:
    """Run one child interpreter; returns its timings, RSS and result file."""
    op_path, res_path = tmp / "op.json", tmp / "result.json"
    op_path.write_text(json.dumps(payload))
    if res_path.exists():
        res_path.unlink()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lock, state = threading.Lock(), {"exited": False, "timed_out": False}

    def kill():
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                proc.kill()

    with open(tmp / "child.log", "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(op_path), str(res_path)],
                                stdout=log, stderr=subprocess.STDOUT, cwd=tmp, env=env)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
        except BaseException:  # interrupted, e.g. SIGTERM: leave no child behind
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0 and res_path.exists():
        result = json.loads(res_path.read_text())
    return {"wall_s": end - start, "rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": result["imported"] - start if result else None,
            "compute_s": result["compute_s"] if result else None,
            "timed_out": state["timed_out"], "exit": proc.returncode, "result": result,
            "log": (tmp / "child.log").read_text()[-2000:]}


def _outputs_digest(out_dir: Path) -> Dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run of one workload: repeated operations, checks and aggregation.

    Operations run round-robin in workload order, each again and again until
    the next one would end past ``seconds``, and at least twice each so that
    every run also checks that a repeated operation writes byte-identical
    outputs. A pass figure is the sum over operations of each one's median,
    which keeps a slow moment of the machine from counting twice.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.ops = workloads.build(workload, seed, scale)
        self.tmp = WORK / f"tmp-{os.getpid()}"
        self.records: Dict[str, List[dict]] = {op.name: [] for op in self.ops}
        self.attempted = 0
        self.unexpected: List[str] = []
        self.known: List[str] = []
        self.first_outputs: Dict[str, object] = {}

    def execute(self) -> None:
        if self.tmp.exists():
            shutil.rmtree(self.tmp)
        self.tmp.mkdir(parents=True)
        self.t0 = time.perf_counter()
        try:
            for op in self.ops:
                if op.kind == "cli":
                    (self.tmp / f"{op.name}.cfg").write_text(op.config)
            self._spawn({"kind": "import", "trace": False})  # fills caches; not measured
            while not self._round():
                pass
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def _round(self) -> bool:
        """Run each operation once more; True once the time is used up."""
        for op in self.ops:
            recs = self.records[op.name]
            elapsed = time.perf_counter() - self.t0
            if len(recs) >= 2 and (elapsed + recs[-1]["wall_s"] > self.seconds
                                   or elapsed > RUN_BUDGET_S / 2):
                return True
            if recs and elapsed > RUN_BUDGET_S:  # far too slow: report what ran
                return True
            recs.append(self._run_op(op, self.trace and len(recs) % 2 == 1, len(recs)))
        return False

    def _spawn(self, payload: dict) -> dict:
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.t0)
        return _spawn(payload, self.tmp, max(5.0, remaining))

    def _run_op(self, op: workloads.Op, traced: bool, index: int) -> dict:
        payload = {"kind": op.kind, "trace": traced}
        if op.kind == "cli":
            out_dir = self.tmp / f"{op.name}-{index}"
            payload.update(argv=[str(self.tmp / f"{op.name}.cfg"), *op.argv,
                                 "--out-dir", str(out_dir), "--prefix", op.name],
                           out_dir=str(out_dir))
        else:
            payload.update(family=op.family, params=op.params, calls=op.calls)
        rec = self._spawn(payload)
        rec["traced"] = traced
        result = rec.pop("result")
        rc = None if rec["timed_out"] or result is None else result["rc"]
        if op.kind == "cli":
            found = checks.check_cli(op, str(out_dir), rc)
            outputs = _outputs_digest(out_dir) if out_dir.exists() else None
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            found = checks.check_library(op, rc, result and result["results"])
            outputs = result and json.dumps(result["results"], sort_keys=True)
        if op.name in self.first_outputs:
            found.append(checks.check_deterministic(self.first_outputs[op.name], outputs))
        else:
            self.first_outputs[op.name] = outputs
        for name, ok, detail in found:
            self.attempted += 1
            if ok:
                continue
            if name in op.known_failures:
                self.known.append(f"{op.name} {name} ({op.known_failures[name]})")
            else:
                log = f"\n{rec['log']}" if rc is None else ""
                self.unexpected.append(f"{self.workload} {op.name} {name}: {detail}{log}")
        if result is not None:
            rec["trace"] = result.get("trace")
            rec["files"], rec["output_bytes"] = result.get("files", 0), result.get("output_bytes", 0)
        return rec

    # -- aggregation -------------------------------------------------------

    def _samples(self, op: workloads.Op, traced: bool) -> List[dict]:
        return [r for r in self.records[op.name] if r["traced"] == traced]

    def _median(self, op: workloads.Op, key: str) -> float:
        return statistics.median(r[key] or 0.0 for r in self._samples(op, False))

    def end_to_end(self) -> Dict[str, tuple]:
        """name -> (value, unit, sample count) from the untraced executions."""
        n = sum(len(self._samples(op, False)) for op in self.ops)
        setups = [r["setup_s"] for op in self.ops for r in self._samples(op, False)
                  if r["setup_s"] is not None] or [0.0]
        values = {"wall_s": sum(self._median(op, "wall_s") for op in self.ops),
                  "compute_s": sum(self._median(op, "compute_s") for op in self.ops),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": max(self._median(op, "rss_mb") for op in self.ops)}
        return {name: (values[name], unit, len(setups) if name == "setup_s" else n)
                for name, unit in END_TO_END}

    def per_layer(self) -> Dict[str, tuple]:
        """Per-layer metrics: each operation's median over its traced executions,
        summed over operations (the largest, for the .max counters)."""
        totals = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        n = 0
        for op in self.ops:
            samples = [_layer_values(r) for r in self._samples(op, True) if r.get("trace")]
            n += len(samples)
            for name in totals if samples else ():
                med = statistics.median(s[name] for s in samples)
                totals[name] = max(totals[name], med) if name.endswith(".max") else totals[name] + med
        totals["trace.untraced_compute_s"] = sum(self._median(op, "compute_s") for op in self.ops)
        totals["trace.overhead_s"] = totals["trace.compute_s"] - totals["trace.untraced_compute_s"]
        return {name: (totals[name], unit, n) for name, unit in PER_LAYER}

    def families(self) -> Dict[str, dict]:
        """Median per-operation times of the untraced executions (detail, not gated)."""
        return {op.name: {"wall_s": self._median(op, "wall_s"), "setup_s": self._median(op, "setup_s"),
                          "compute_s": self._median(op, "compute_s"), "rss_mb": self._median(op, "rss_mb"),
                          "samples": len(self._samples(op, False)),
                          "wall_s_all": [r["wall_s"] for r in self.records[op.name]]}
                for op in self.ops}

    def summary(self) -> dict:
        failed = len(self.unexpected)
        out = {"workload": self.workload, "seed": self.seed, "trace": self.trace,
               "executions": sum(len(r) for r in self.records.values()), "ops": len(self.ops),
               "attempted": self.attempted, "failed": failed, "known_failures": len(self.known),
               "fail_ratio": (failed + len(self.known)) / max(1, self.attempted),
               "end_to_end": self.end_to_end(), "families": self.families(),
               "unexpected": self.unexpected, "known": sorted(set(self.known))}
        if self.trace:
            out["per_layer"] = self.per_layer()
            out["spans"] = {f"{name}#{i}": r["trace"]["spans"]
                            for name, recs in self.records.items()
                            for i, r in enumerate(recs) if r.get("trace")}
        return out


def _layer_values(rec: dict) -> Dict[str, float]:
    """Per-layer metric values of one traced execution."""
    t = rec["trace"]
    v = {f"{f}.s": t["inclusive"][f] for f in TIMED}
    v.update({f"{f}.calls": t["calls"][f] for f in COUNTED})
    v["quadrature.calls"] = sum(t["calls"][f] for f in _QUAD_RULES)
    v["quadrature.s"] = sum(t["inclusive"][f] for f in _QUAD_RULES)
    v.update(t["counters"])
    v.update({f"{layer}.self_s": s for layer, s in t["self_s"].items()})
    v.update({"cli.output_bytes": rec["output_bytes"], "cli.files": rec["files"],
              "trace.compute_s": rec["compute_s"],
              "trace.outside_s": rec["compute_s"] - sum(t["self_s"].values()),
              "trace.spans": len(t["spans"]),
              "trace.untraced_compute_s": 0.0, "trace.overhead_s": 0.0})
    return v


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    run = Run(workload, seed, seconds, trace, scale)
    run.execute()
    summary = run.summary()
    WORK.mkdir(exist_ok=True)
    (WORK / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(summary, indent=1))
    return summary


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _print_summary(s: dict) -> None:
    print(f"# {s['workload']} seed={s['seed']} trace={int(s['trace'])} "
          f"operations={s['ops']} executions={s['executions']}")
    for name, fam in s["families"].items():
        print(f"#   {name:26s} wall {fam['wall_s']:.4f} s  setup {fam['setup_s']:.4f} s  "
              f"compute {fam['compute_s']:.4f} s  rss {fam['rss_mb']:.1f} MB  (n={fam['samples']})")
    print(f"# checks: attempted {s['attempted']}, unexpected failures {s['failed']}, "
          f"known failures {s['known_failures']}, fail_ratio {s['fail_ratio']:.4f}")
    for line in s["known"]:
        print(f"#   known: {line}")
    for line in s["unexpected"]:
        print(f"#   FAILED: {line}")
    for name, (value, unit, n) in s["end_to_end"].items():
        print(f"# {name} = {value:.6g} {unit} (median, n={n})")
    for name, (value, unit, n) in s.get("per_layer", {}).items():
        print(f"# {name} = {value:.6g} {unit} (median, n={n})")


def _result_line(s: dict, metrics: Dict[str, tuple]) -> str:
    return json.dumps({"correct": s["failed"] == 0, "attempted": s["attempted"],
                       "failed": s["failed"],
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "nlcpoly" / "cli.py").is_file():
        print(f"error: no nlcpoly sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        s = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_summary(s)
        print(_result_line(s, s["per_layer"] if args.trace else s["end_to_end"]))
        return 0
    table, total = [], {"failed": 0, "attempted": 0}
    for workload in workloads.WORKLOADS:
        s = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        _print_summary(s)
        total["failed"] += s["failed"]
        total["attempted"] += s["attempted"]
        metrics = dict(s["per_layer"] if args.trace else s["end_to_end"])
        metrics["fail_ratio"] = (s["fail_ratio"], "ratio", s["attempted"])
        table += [(workload, k, v) for k, v in metrics.items()]
    print(f"# {'workload':14s} {'metric':40s} {'median':>14s} unit  samples")
    for workload, name, (value, unit, n) in table:
        print(f"# {workload:14s} {name:40s} {value:14.6g} {unit:5s} {n}")
    print(_result_line(total, {f"{w}.{k}": v for w, k, v in table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

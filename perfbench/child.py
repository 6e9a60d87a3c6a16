"""Run one benchmark operation in a fresh interpreter.

Usage: python3 child.py OP_JSON RESULT_JSON

The parent starts its clock just before spawning this process; the import
of ``nlcpoly.cli`` is timed against the same monotonic clock, so set-up
covers interpreter start-up and the package import. Only ``sys`` and
``time`` are imported before it. The result file holds the timings, the
outputs the parent checks and, in a traced run, the spans.
"""

import sys
import time

import nlcpoly.cli

IMPORTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
from fractions import Fraction  # noqa: E402


def _library_calls(spec_family, params, calls):
    """Run the listed library calls; returns (seconds, raw results)."""
    import nlcpoly as nl  # noqa: PLC0415  (loaded with nlcpoly.cli)
    start = time.perf_counter()
    spec = nl.SequenceSpec(spec_family, **params)
    raw = []
    for name, *args in calls:
        if name == "hankel_determinant":  # D_0 .. D_n on one moment sequence
            moments = nl.MomentSequence(spec)
            raw.append([nl.hankel_determinant(moments, n) for n in range(args[0] + 1)])
        else:
            raw.append(getattr(nl, name)(spec, *args))
    return time.perf_counter() - start, raw


def _exact(value):
    return str(value) if isinstance(value, Fraction) else repr(float(value))


def _serialize(calls, raw):
    """JSON-safe view of the library results the parent checks."""
    out = []
    for (name, *args), r in zip(calls, raw):
        if name == "amplitude_extract":
            item = {"x": r.x, "sine_fit": r.sine_fit_amplitude,
                    "envelope": r.envelope_amplitude, "inconclusive": r.inconclusive}
        elif name == "phi_value":
            item = {"n": args[0], "x": args[1], "value": r}
        elif name == "nevai_condition":
            item = {"verdict": r.verdict, "tail_exponent": r.tail_exponent,
                    "partial_sum": r.partial_sum}
        elif name == "check_monotone_and_bounded":
            item = {"monotone": r.monotone, "bounded": r.bounded_by_L2}
        elif name == "check_nonlinear_inequalities":
            item = {"ineq1_ok": r.ineq1_ok, "ineq2_ok": r.ineq2_ok}
        elif name == "hankel_determinant":
            item = [{"n": h.order, "value": _exact(h.value), "positive": h.positive,
                     "exact": h.exact, "precision_bits": h.precision_bits} for h in r]
        elif name == "berg_duran_check":
            item = {"hausdorff_ok": r.hausdorff_ok, "stieltjes_ok": r.stieltjes_hankels_ok}
        out.append([name, item])
    return out


def _output_files(out_dir):
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    return len(names), sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)


def main(op_path, result_path):
    with open(op_path) as fh:
        op = json.load(fh)
    tracer = None
    if op["trace"]:
        from tracer import Tracer  # noqa: PLC0415
        tracer = Tracer()
        tracer.install(sys.modules["nlcpoly"])
    result = {"imported": IMPORTED}
    if op["kind"] == "cli":
        main_fn = nlcpoly.cli.main
        t0 = time.perf_counter()
        result["rc"] = main_fn(op["argv"])
        result["compute_s"] = time.perf_counter() - t0
        result["files"], result["output_bytes"] = _output_files(op["out_dir"])
    elif op["kind"] == "library":
        compute, raw = _library_calls(op["family"], op["params"], op["calls"])
        result.update(rc=0, compute_s=compute, results=_serialize(op["calls"], raw))
    else:  # "import": warm-up that only pays the import
        result.update(rc=0, compute_s=0.0)
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

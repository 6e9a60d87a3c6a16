"""Tests of the benchmark itself: each correctness check rejects a corrupted
artifact, the tracer's self-time accounting adds up, and a tiny pass of
every workload runs end to end.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _cli_op(family="su11", n_max=6, order=6):
    params, measure = workloads.CATALOG[family]
    return workloads.Op(family, "cli", family, params, argv=["--n-max", str(n_max), "--order", str(order)],
                        config=workloads._config_text(family, params, 5),
                        measure=measure, n_max=n_max, order=order)


def _spawn_cli(op, tmp: Path):
    cfg = tmp / f"{op.name}.cfg"
    cfg.write_text(op.config)
    out_dir = tmp / "out"
    rec = run._spawn({"kind": "cli", "trace": False, "out_dir": str(out_dir),
                      "argv": [str(cfg), *op.argv, "--out-dir", str(out_dir), "--prefix", op.name]},
                     tmp, 60.0)
    return rec, out_dir


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    op = _cli_op()
    rec, out_dir = _spawn_cli(op, tmp)
    assert rec["exit"] == 0, rec["log"]
    return op, out_dir, rec["result"]["rc"]


@pytest.fixture
def corrupted(cli_artifacts, tmp_path):
    """A private copy of the CLI outputs that a test may edit."""
    op, out_dir, rc = cli_artifacts
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    return op, copy, rc


def _by_name(found):
    return {name: (ok, detail) for name, ok, detail in found}


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _rows(path: Path):
    return path.read_text().splitlines()


def test_cli_checks_pass_on_real_output(cli_artifacts):
    op, out_dir, rc = cli_artifacts
    found = _by_name(checks.check_cli(op, str(out_dir), rc))
    assert all(ok for ok, _ in found.values()), found
    assert {"exit", "moments", "hankel", "polys_hankel", "zeros", "verdict:measure"} <= set(found)


def test_polys_hankel_rejects_perturbed_coefficient(corrupted):
    op, out, rc = corrupted
    path = out / f"{op.name}_polys_hankel.csv"
    lines = _rows(path)
    n, k, coeff, exact = lines[-2].split(",")  # a lower coefficient of the top degree
    lines[-2] = ",".join([n, k, coeff, str(checks.Fraction(exact) + checks.Fraction(1, 10**9))])
    path.write_text("\n".join(lines) + "\n")
    ok, detail = _by_name(checks.check_cli(op, str(out), rc))["polys_hankel"]
    assert not ok and "orthogonal" in detail


def test_moments_rejects_changed_moment(corrupted):
    op, out, rc = corrupted
    path = out / f"{op.name}_moments.csv"
    lines = _rows(path)
    fields = lines[5].split(",")
    fields[2] = str(checks.Fraction(fields[2]) * checks.Fraction(1001, 1000))
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    found = _by_name(checks.check_cli(op, str(out), rc))
    assert not found["moments"][0]


def test_hankel_rejects_wrong_determinant(corrupted):
    op, out, rc = corrupted
    path = out / f"{op.name}_hankel.csv"
    lines = _rows(path)
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-9))
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert not _by_name(checks.check_cli(op, str(out), rc))["hankel"][0]


def test_zeros_rejects_shifted_zero(corrupted):
    op, out, rc = corrupted
    path = out / f"{op.name}_zeros.csv"
    lines = _rows(path)
    fields = lines[3].split(",")
    fields[2] = repr(float(fields[2]) + 1e-7)
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    ok, detail = _by_name(checks.check_cli(op, str(out), rc))["zeros"]
    assert not ok and "eigvalsh" in detail


def test_verdict_rejects_a_claim_the_paper_contradicts(corrupted):
    op, out, rc = corrupted
    _edit(out / f"{op.name}_summary.json", '"measure": "PASS"', '"measure": "FAIL"')
    found = _by_name(checks.check_cli(op, str(out), rc))
    assert not found["verdict:measure"][0]
    assert not found["exit"][0]  # exit 0 although a verdict says FAIL


def test_crash_fails_every_check(cli_artifacts):
    op, out_dir, _ = cli_artifacts
    found = checks.check_cli(op, str(out_dir), 2)
    assert found and not any(ok for _, ok, _ in found)


def test_deterministic_rejects_one_changed_byte(cli_artifacts, corrupted):
    _, out_dir, _ = cli_artifacts
    op, out, _ = corrupted
    first = run._outputs_digest(out_dir)
    assert checks.check_deterministic(first, run._outputs_digest(out))[1]
    path = out / f"{op.name}_zeros.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("3")
    path.write_bytes(bytes(data))
    assert not checks.check_deterministic(first, run._outputs_digest(out))[1]


@pytest.fixture(scope="module")
def library_results(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lib")
    op = workloads.build("library_long", 9, "tiny")[0]
    rec = run._spawn({"kind": "library", "trace": False, "family": op.family,
                      "params": op.params, "calls": op.calls}, tmp, 60.0)
    assert rec["exit"] == 0, rec["log"]
    return op, rec["result"]["results"]


def _mutate_hankel(rows):
    rows[-1]["value"] = str(checks.Fraction(rows[-1]["value"]) * 2)


LIBRARY_CORRUPTIONS = {
    "amplitude_extract": lambda r: r.update(sine_fit=r["sine_fit"] * 1.1),
    "phi_value": lambda r: r.update(value=r["value"] + 1e-6),
    "nevai_condition": lambda r: r.update(partial_sum=r["partial_sum"] * (1 + 1e-6)),
    "check_monotone_and_bounded": lambda r: r.update(bounded=False),
    "check_nonlinear_inequalities": lambda r: r.update(ineq2_ok=False),
    "hankel_determinant": _mutate_hankel,
    "berg_duran_check": lambda r: r.update(stieltjes_ok=False),
}


def test_library_checks_pass_on_real_results(library_results):
    op, results = library_results
    found = checks.check_library(op, 0, results)
    assert all(ok for _, ok, _ in found), found


@pytest.mark.parametrize("call", sorted(LIBRARY_CORRUPTIONS))
def test_library_check_rejects_corrupted_result(library_results, call):
    op, results = library_results
    bad = json.loads(json.dumps(results))
    index = next(i for i, (name, _) in enumerate(bad) if name == call)
    LIBRARY_CORRUPTIONS[call](bad[index][1])
    found = checks.check_library(op, 0, bad)
    assert not found[1 + index][1], found[1 + index]
    assert all(ok for i, (_, ok, _) in enumerate(found) if i != 1 + index)


def test_nevai_rejects_verdict_other_than_the_claim(library_results):
    op, results = library_results
    bad = json.loads(json.dumps(results))
    index = next(i for i, (name, _) in enumerate(bad) if name == "nevai_condition")
    bad[index][1]["verdict"] = "diverges"
    assert not checks.check_library(op, 0, bad)[1 + index][1]


def test_tracer_self_times_add_up():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.inner = tr.wrap("sequences.x_value", lambda: 1)
    mod.outer = tr.wrap("moments.bareiss_determinant", lambda: mod.inner() + mod.inner())
    assert mod.outer() == 2
    report = tr.report()
    # outer spans 5 ticks; the two hot inner calls span 1 tick each
    assert report["inclusive"]["moments.bareiss_determinant"] == 5.0
    assert report["self_s"]["moments"] == 3.0 and report["self_s"]["sequences"] == 2.0
    assert report["calls"]["sequences.x_value"] == 2
    assert [s[2] for s in report["spans"]] == ["moments.bareiss_determinant"]  # hot calls: no span


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_runs_end_to_end(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    s = run.run_workload(workload, 2, 0, trace, "tiny")
    assert all(f["samples"] >= (1 if trace else 2) for f in s["families"].values())
    assert s["attempted"] > 0
    assert s["failed"] == 0, s["unexpected"]
    assert set(s["end_to_end"]) == {name for name, _ in run.END_TO_END}
    assert all(v > 0 for v, _, _ in s["end_to_end"].values())
    if trace:
        assert set(s["per_layer"]) == {name for name, _ in run.PER_LAYER}
        assert s["spans"]
    assert (tmp_path / f"{workload}-trace{int(trace)}.json").exists()


@pytest.mark.parametrize("family", sorted(workloads.TOO_SHORT_FOR_ALL))
def test_readme_short_examples_exit_2(family, tmp_path):
    """Known defect: the README's 4-value examples are too short for `all`."""
    params = workloads.TOO_SHORT_FOR_ALL[family]
    op = workloads.Op(family, "cli", family, params, config=workloads._config_text(family, params, 1))
    rec, _ = _spawn_cli(op, tmp_path)
    assert rec["exit"] == 0 and rec["result"]["rc"] == 2


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "cli_catalog", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""

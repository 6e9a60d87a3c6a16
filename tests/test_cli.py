import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nlcpoly
from nlcpoly import SequenceSpec, build_truncated, ismail_li_bounds, jacobi_zeros
from nlcpoly.cli import _Runner, main
from nlcpoly.config import ConfigError, RunConfig, load_config


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """
[sequence]
family = canonical

[run]
command = {command}
n_max = {n_max}
order = 6

[output]
dir = {out}
prefix = t
"""


# -- config parsing ------------------------------------------------------------

def test_load_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, "[sequence]\nfamily = canonical\n"))
    assert cfg.family == "canonical"
    assert cfg.command == "all"
    assert cfg.tolerance == 1e-11


def test_rational_parameters_stay_exact(tmp_path):
    cfg = load_config(write_config(
        tmp_path, "[sequence]\nfamily = su11\nj = 3/2\n"))
    assert cfg.family_params["j"] == Fraction(3, 2)
    assert isinstance(cfg.family_params["j"], Fraction)


def test_overrides_win(tmp_path):
    path = write_config(tmp_path, BASE.format(command="moments", n_max=4, out=tmp_path))
    cfg = load_config(path, ["run.n_max=9", "run.command=zeros"])
    assert cfg.n_max == 9 and cfg.command == "zeros"


def test_unknown_family_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="canonical"):
        load_config(write_config(tmp_path, "[sequence]\nfamily = wat\n"))


def test_unknown_command_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="zeros"):
        load_config(write_config(
            tmp_path, "[sequence]\nfamily = canonical\n[run]\ncommand = wat\n"))


def test_config_hash_ignores_output_paths(tmp_path):
    p1 = write_config(tmp_path, BASE.format(command="moments", n_max=4, out="a"), "a.cfg")
    p2 = write_config(tmp_path, BASE.format(command="moments", n_max=4, out="b"), "b.cfg")
    assert load_config(p1).sha256() == load_config(p2).sha256()


# -- CLI runs --------------------------------------------------------------------

def test_missing_config_exits_2(tmp_path):
    assert main([str(tmp_path / "absent.cfg")]) == 2


def test_malformed_family_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "[sequence]\nfamily = nope\n")
    assert main([path]) == 2
    err = capsys.readouterr().err
    assert "canonical" in err and "su11" in err


def test_zeros_command_emits_symmetric_csv(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE.format(command="zeros", n_max=4, out=out))
    assert main([path, "--order", "4"]) == 0
    lines = (out / "t_zeros.csv").read_text().splitlines()
    assert lines[0].startswith("# nlcpoly")
    assert lines[1] == "n,j,zero,lower_bracket,upper_bracket"
    zeros = [float(line.split(",")[2]) for line in lines[2:]]
    assert len(zeros) == 4
    assert zeros[0] == pytest.approx(-zeros[3]) and zeros[1] == pytest.approx(-zeros[2])


def test_zeros_summary_reports_bisection_steps(tmp_path):
    from nlcpoly import build_truncated, jacobi_zeros
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE.format(command="zeros", n_max=4, out=out))
    assert main([path, "--order", "7"]) == 0
    zeros = json.loads((out / "t_summary.json").read_text())["results"]["zeros"]
    expected = jacobi_zeros(build_truncated(load_config(path).spec(), 7), 1e-11)
    assert zeros["bisection_steps"] == expected.bisection_steps > 0
    assert zeros["count_mismatches"] == expected.count_mismatches == 0


def test_verify_measure_pass_exit_zero(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE.format(command="verify-measure", n_max=12, out=out))
    assert main([path]) == 0
    summary = json.loads((out / "t_summary.json").read_text())
    assert summary["results"]["verify_measure"]["verdict"] == "PASS"
    assert summary["verdict"] == "PASS"


def test_verify_measure_mismatch_exit_one(tmp_path):
    out = tmp_path / "out"
    text = """
[sequence]
family = canonical

[measure]
name = disc_radial
j = 1

[run]
command = verify-measure
n_max = 4

[output]
dir = %s
prefix = t
""" % out
    path = write_config(tmp_path, text)
    assert main([path]) == 1
    summary = json.loads((out / "t_summary.json").read_text())
    assert summary["verdict"] == "FAIL"


def test_internal_error_exits_3_with_traceback(tmp_path, capsys, monkeypatch):
    def broken(self):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(_Runner, "cmd_moments", broken)
    path = write_config(tmp_path, BASE.format(command="moments", n_max=4, out=tmp_path / "out"))
    assert main([path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: injected failure")
    assert "Traceback" in err
    # a genuine FAIL keeps exit status 1
    failing = write_config(tmp_path, BASE.format(command="verify-measure", n_max=4,
                                                 out=tmp_path / "out2")
                           + "\n[measure]\nname = disc_radial\nj = 1\n", name="fail.cfg")
    assert main([failing]) == 1


def test_cli_runs_without_scipy(tmp_path):
    # scipy and mpmath are test-only dependencies: neither the import nor an
    # `all` run, on a plain or on a Bessel-weight family, may load them
    configs = []
    for family, block in (("su11", "family = su11\nj = 3/2"),
                          ("bessel_k_exp", "family = bessel_k_exp\nmu = 3/2\nnu = 1/2")):
        out = tmp_path / family
        configs.append(write_config(tmp_path, f"[sequence]\n{block}\n[run]\ncommand = all\n"
                                              f"[output]\ndir = {out}\nprefix = t\n",
                                    name=f"{family}.cfg"))
    script = ("import sys\n"
              "import nlcpoly.cli\n"
              "def loaded():\n"
              "    return 'scipy' in sys.modules or 'mpmath' in sys.modules\n"
              "seen = [loaded()]\n"
              "for cfg in sys.argv[1:]:\n"
              "    assert nlcpoly.cli.main([cfg]) == 0\n"
              "    seen.append(loaded())\n"
              "print(seen)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nlcpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, *configs], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[False, False, False]"


@pytest.mark.parametrize("block, command", [
    ("family = ultraspherical\nnu = inf", "all"),
    ("family = gamma_quotient\na = inf\nb = 2\nc = 1", "all"),
    ("family = ultraspherical\nnu = abc", "all"),
    ("family = explicit\nvalues = 1, 2, inf, 4", "moments"),
], ids=["nu_inf", "a_inf", "nu_abc", "explicit_inf"])
def test_non_finite_or_non_numeric_parameter_exits_2(tmp_path, capsys, block, command):
    text = (f"[sequence]\n{block}\n[run]\ncommand = {command}\nn_max = 4\n"
            f"[output]\ndir = {tmp_path / 'out'}\nprefix = t\n")
    assert main([write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_measure_parameter_error_exits_2(tmp_path, capsys):
    text = """
[sequence]
family = su11
j = 3/2

[measure]
name = disc_radial
j = 1/2

[run]
command = verify-measure
n_max = 4

[output]
dir = %s
prefix = t
""" % (tmp_path / "out")
    assert main([write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "j > 1/2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("family, measure, command", [
    ("family = su11\nj = 3/2", "[measure]\nname = nope\n", "all"),
    ("family = su11\nj = 3/2", "[measure]\nname = disc_radial\n", "all"),
    ("family = su11\nj = 3/2", "[measure]\nname = disc_radial\nj = 3/2\nk = 2\n", "all"),
    ("family = barut_girardello\nj = 3/2", "[measure]\nname = bessel_ladder_radial\n", "all"),
    ("family = gamma_quotient\na = 3\nb = 2\nc = 1", "", "verify-measure"),
], ids=["unknown_name", "missing_j", "extra_key", "ladder_missing_j", "no_default_measure"])
def test_every_measure_section_error_exits_2(tmp_path, capsys, family, measure, command):
    # the measure is resolved before any step runs, so nothing is written
    text = (f"[sequence]\n{family}\n{measure}[run]\ncommand = {command}\n"
            f"n_max = 4\n[output]\ndir = {tmp_path / 'out'}\nprefix = t\n")
    assert main([write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


SU11 = "[sequence]\nfamily = su11\nj = 3/2\n"
CANONICAL = "[sequence]\nfamily = canonical\n"
OUTPUT = "[output]\ndir = {out}\nprefix = t\n"


@pytest.mark.parametrize("text, flags", [
    (CANONICAL + "[run]\nn_max = abc\n" + OUTPUT, []),
    (CANONICAL + "[run]\ntolerance = x\n" + OUTPUT, []),
    (CANONICAL + "[run]\namplitude_points = a\n" + OUTPUT, []),
    (CANONICAL + "[run]\namplitude_window = 2000\n" + OUTPUT, []),
    (CANONICAL + "[run]\nnevai_n_max = 5\n" + OUTPUT, []),
    (CANONICAL + "[run]\ntolerance = 1e-16\n" + OUTPUT, []),
    (SU11 + "[run]\ncommand = amplitude\namplitude_points = 1.5\n" + OUTPUT, []),
    (SU11 + "[run]\ncommand = amplitude\namplitude_window = 4000,2000\n" + OUTPUT, []),
    (CANONICAL + "[output]\ndir =\n", []),
    ("family = canonical\n" + OUTPUT, []),
    (CANONICAL + "[run]\nn_max = 4\nn_max = 5\n" + OUTPUT, []),
    (CANONICAL + "[run]\nn_max = 4\n[run]\norder = 5\n" + OUTPUT, []),
    (SU11 + "[run]\nn_mx = 9\n" + OUTPUT, []),
    (CANONICAL + OUTPUT + "prefx = u\n", []),
    (CANONICAL + "[runn]\nn_max = 4\n" + OUTPUT, []),
    (SU11 + "[measure]\nj = 5/2\n[run]\ncommand = verify-measure\n" + OUTPUT, []),
    (CANONICAL + "name = foo\n" + OUTPUT, []),
    (SU11 + "[measure]\nname = disc_radial\nj = 3/2\nfamily = su11\n" + OUTPUT, []),
    ("[sequence]\nfamily = ultraspherical\nnu = -3/5\nstrict = 0\n[run]\ncommand = hankel\n"
     + OUTPUT, []),
    (CANONICAL + OUTPUT, ["--n-max", "abc"]),
    (CANONICAL + OUTPUT, ["--command", "nope"]),
], ids=["n_max_abc", "tolerance_x", "points_a", "window_one_value", "nevai_n_max_5",
        "tolerance_1e-16", "point_1.5", "window_reversed", "empty_dir", "no_section_header",
        "duplicate_key", "duplicate_section", "run_key_typo", "output_key_typo",
        "unknown_section", "nameless_measure", "sequence_name", "measure_family",
        "sequence_strict", "flag_n_max_abc", "flag_command_nope"])
def test_every_bad_config_exits_2_before_writing(tmp_path, capsys, text, flags):
    # each key is read and range-checked at load, so nothing is written
    out = tmp_path / "out"
    assert main([write_config(tmp_path, text.format(out=out)), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_non_utf8_config_exits_2_before_writing(tmp_path, capsys):
    # a Latin-1 e-acute in a comment is not UTF-8
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_bytes(b"; r\xe9sum\xe9\n" + BASE.format(command="all", n_max=4, out=out).encode())
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_semicolon_is_a_plain_character_in_values(tmp_path):
    # comments take whole lines, so a ';' inside a value is kept
    out = tmp_path / "a;b"
    text = BASE.format(command="moments", n_max=4, out=out).replace("prefix = t", "prefix = t;1")
    assert main([write_config(tmp_path, text)]) == 0
    assert (out / "t;1_summary.json").exists()


def test_percent_is_a_plain_character(tmp_path):
    out = tmp_path / "out"
    text = BASE.format(command="moments", n_max=4, out=out).replace("prefix = t", "prefix = 100%")
    assert main([write_config(tmp_path, text)]) == 0
    assert (out / "100%_summary.json").exists()


def test_default_ladder_measure_is_the_catalog_form(tmp_path):
    # barut_girardello pairs with bessel_ladder_radial, checked like every other pairing
    out = tmp_path / "out"
    text = BASE.format(command="all", n_max=4, out=out).replace(
        "family = canonical", "family = barut_girardello\nj = 1")
    assert main([write_config(tmp_path, text)]) == 0
    results = json.loads((out / "t_summary.json").read_text())["results"]
    assert results["verify_measure"]["measure"] == "bessel_ladder_radial"
    assert "ladder_selection" not in results["verify_measure"]


def _default_measure_chain(spec):
    """The per-family if-chain the pairing table replaced (reference only)."""
    from nlcpoly.measures import get_measure
    p = spec.params
    try:
        if spec.family == "canonical":
            return get_measure("gaussian_radial")
        if spec.family == "su11" and p["j"] > Fraction(1, 2):
            return get_measure("disc_radial", j=p["j"])
        if spec.family == "barut_girardello":
            return get_measure("bessel_ladder_radial", j=p["j"])
        if spec.family == "ultraspherical":
            return get_measure("ultraspherical_even", nu=p["nu"])
        if spec.family == "jacobi_type":
            return get_measure("jacobi_even", alpha=p["alpha"], beta=p["beta"])
        if spec.family == "meixner_pollaczek_bessel":
            return get_measure("bessel_mp_even", mu=p["mu"], nu=p["nu"], beta=p["beta"])
        if spec.family == "bessel_k_exp":
            return get_measure("bessel_k_exp_even", mu=p["mu"], nu=p["nu"])
        if spec.family == "bessel_k_abs":
            return get_measure("bessel_k_abs_even", mu=p["mu"], nu=p["nu"])
    except (ValueError, KeyError):
        return None
    return None


def test_default_measure_table_matches_the_family_chain():
    from conftest import catalog_specs
    from nlcpoly.cli import default_measure_for
    specs = catalog_specs() + [
        SequenceSpec("su11", j=Fraction(1, 2)),
        SequenceSpec("su11", j=Fraction(5, 2)),
        SequenceSpec("su11", strict=False, j=0.3),
        SequenceSpec("ultraspherical", strict=False, nu=Fraction(-3, 4)),
        SequenceSpec("ultraspherical", nu=0.3),
        SequenceSpec("jacobi_type", strict=False, alpha=0, beta=Fraction(-5, 4)),
        SequenceSpec("barut_girardello", strict=False, j=0.75),
        SequenceSpec("rational", num=[0, 1], den=[1]),
        SequenceSpec("explicit", values=[1, 2, 3]),
    ]
    for spec in specs:
        got, want = default_measure_for(spec), _default_measure_chain(spec)
        assert (got is None) == (want is None), spec
        if want is not None:
            assert (got.name, got.params) == (want.name, want.params), spec
    assert default_measure_for(SequenceSpec("su11", j=Fraction(1, 2))) is None
    assert default_measure_for(SequenceSpec("gamma_quotient", a=3, b=2, c=1)) is None


def test_all_computes_zeros_once(tmp_path, monkeypatch):
    import nlcpoly.cli as cli
    calls = []
    real = cli.jacobi_zeros
    monkeypatch.setattr(cli, "jacobi_zeros", lambda *a: calls.append(1) or real(*a))
    main([write_config(tmp_path, BASE.format(command="all", n_max=4, out=tmp_path / "out"))])
    assert len(calls) == 1


def test_bounds_computes_no_zeros(tmp_path, monkeypatch):
    import nlcpoly.cli as cli
    calls = []
    real = cli.jacobi_zeros
    monkeypatch.setattr(cli, "jacobi_zeros", lambda *a: calls.append(1) or real(*a))
    out = tmp_path / "out"
    assert main([write_config(tmp_path, BASE.format(command="bounds", n_max=4, out=out))]) == 0
    assert calls == []
    summary = json.loads((out / "t_summary.json").read_text())
    assert summary["results"]["verdicts"] == {"zeros_within_bounds": "PASS"}


HEAVY_SPECS = [
    SequenceSpec("su11", j=Fraction(3, 2)),
    SequenceSpec("grinshpan_ismail_s3", a1=1, a2=Fraction(1, 2), a3=Fraction(1, 4)),
    SequenceSpec("ultraspherical", nu=Fraction(3, 10)),
    SequenceSpec("barut_girardello", j=1),
]


def _bounds_verdicts(tmp_path, spec, orders):
    """(count verdict of cmd_bounds, midpoint test on the bisected zeros) per order."""
    cfg = RunConfig(family=spec.family, family_params=dict(spec.params),
                    command="bounds", out_dir=str(tmp_path))
    runner = _Runner(cfg)
    pairs = []
    for n in orders:
        cfg.order = n
        runner.cmd_bounds()
        a, b = ismail_li_bounds(spec, n)
        zeros = jacobi_zeros(build_truncated(spec, n), cfg.tolerance).zeros
        pairs.append((runner.summary["bounds"]["contained"], all(a < z < b for z in zeros)))
    return pairs


def test_bounds_counts_agree_with_bisected_zeros(tmp_path):
    from conftest import catalog_specs
    for spec in catalog_specs():
        for n, (counted, bisected) in enumerate(_bounds_verdicts(tmp_path, spec, range(2, 41)), 2):
            assert counted is bisected, (spec.family, n)


@pytest.mark.parametrize("spec", HEAVY_SPECS, ids=lambda s: s.family)
def test_bounds_counts_agree_with_bisected_zeros_at_order_400(tmp_path, spec):
    assert _bounds_verdicts(tmp_path, spec, [400]) == [(True, True)]


def test_zero_on_a_bound_fails_the_strict_inequality(tmp_path, monkeypatch):
    # x_1 = 2 gives the order-2 zeros +-1 exactly; with the bounds moved onto
    # them the Sturm pivot at -1 is exactly zero and counts as a zero on A
    import nlcpoly.cli as cli
    monkeypatch.setattr(cli, "ismail_li_bounds", lambda spec, n: (-1.0, 1.0))
    out = tmp_path / "out"
    text = BASE.format(command="bounds", n_max=4, out=out).replace(
        "family = canonical", "family = explicit\nvalues = 2, 3").replace(
        "order = 6", "order = 2")
    assert main([write_config(tmp_path, text)]) == 1
    bounds = json.loads((out / "t_summary.json").read_text())["results"]["bounds"]
    assert bounds["contained"] is False


def test_repeated_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    path = write_config(tmp_path, BASE.format(command="all", n_max=6, out=out1))
    assert main([path]) == 0
    assert main([path, "--out-dir", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_moments_csv_has_17_digit_floats(tmp_path):
    out = tmp_path / "out"
    text = BASE.format(command="moments", n_max=3, out=out).replace(
        "family = canonical", "family = ultraspherical\nnu = 1")
    path = write_config(tmp_path, text)
    assert main([path]) == 0
    lines = (out / "t_moments.csv").read_text().splitlines()
    row = lines[3].split(",")  # n = 1: mu_2 = x_1 = 1/4
    assert row[1] == format(0.25, ".17g")
    assert row[2] == "1/4"


def test_cm_check_command(tmp_path):
    out = tmp_path / "out"
    text = BASE.format(command="cm-check", n_max=16, out=out).replace(
        "family = canonical", "family = su11\nj = 1")
    assert main([write_config(tmp_path, text)]) == 0
    summary = json.loads((out / "t_summary.json").read_text())
    assert summary["results"]["cm_check"]["hausdorff_ok"] is True


def test_cm_check_difference_order_does_not_follow_run_order(tmp_path):
    # run.order is the Jacobi truncation; cm-check differences to the library's
    # order 8, so a heavy truncation order leaves a genuine moment sequence passing
    out = tmp_path / "out"
    text = BASE.format(command="cm-check", n_max=16, out=out).replace(
        "family = canonical", "family = su11\nj = 3/2")
    assert main([write_config(tmp_path, text), "--n-max", "20", "--order", "400"]) == 0
    summary = json.loads((out / "t_summary.json").read_text())
    assert summary["results"]["cm_check"]["hausdorff_ok"] is True
    assert summary["verdict"] == "PASS"


def test_amplitude_command_on_bounded_family(tmp_path):
    out = tmp_path / "out"
    text = """
[sequence]
family = gamma_quotient
a = 2
b = 1
c = 1

[run]
command = amplitude
amplitude_window = 1000,2000
amplitude_points = 0.0,0.5

[output]
dir = %s
prefix = t
""" % out
    assert main([write_config(tmp_path, text)]) == 0
    summary = json.loads((out / "t_summary.json").read_text())
    est = summary["results"]["amplitude"]["estimates"]
    assert est[0]["sine_fit"] == pytest.approx(1.0, rel=1e-9)
    assert (out / "t_amplitude_trace.csv").exists()


def test_nevai_command_unbounded_family(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE.format(command="nevai", n_max=6, out=out))
    assert main([path]) == 0
    summary = json.loads((out / "t_summary.json").read_text())
    assert summary["results"]["nevai"]["verdict"] == "diverges"


@pytest.mark.parametrize("command", ["nevai", "amplitude"])
def test_zero_limit_writes_no_nan(tmp_path, command):
    # x_n = 1/n: the rescaling by M = lim x_n = 0 is undefined
    out = tmp_path / "out"
    text = BASE.format(command=command, n_max=6, out=out).replace(
        "family = canonical", "family = rational\nnum = 1\nden = 0, 1")
    assert main([write_config(tmp_path, text)]) == 0
    written = {path.name: path.read_text() for path in out.iterdir()}
    assert not any("nan" in body.lower() for body in written.values())
    results = json.loads(written["t_summary.json"])["results"]
    if command == "nevai":
        assert results["nevai"]["verdict"] == "inconclusive"
        assert results["nevai"]["tail_exponent"] is None
    else:
        assert results["amplitude"] == {"note": "sequence limit is 0; skipped"}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_every_summary_is_strict_json(tmp_path, monkeypatch):
    # the 12 README catalog `all` runs, a nevai run whose deviations all vanish
    # (tail exponent inf) and an amplitude window too short to fit (NaN fit)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    configs = [(op.name, op.config) for op in workloads.build("cli_catalog", 1)]
    chebyshev = "[sequence]\nfamily = gamma_quotient\na = 2\nb = 1\nc = 1\n\n[run]\n"
    configs += [("nevai", chebyshev + "command = nevai\n"),
                ("amplitude", chebyshev + "command = amplitude\namplitude_window = 100,110\n"
                                          "amplitude_points = 0.999\n")]
    assert len(configs) == 14
    for name, text in configs:
        out = tmp_path / name
        text += f"\n[output]\ndir = {out}\nprefix = t\n"
        assert main([write_config(tmp_path, text, name + ".cfg")]) == 0, name
    summaries = {path.parent.name: json.loads(path.read_text(), parse_constant=_reject_constant)
                 for path in tmp_path.glob("*/*_summary.json")}
    assert sorted(summaries) == sorted(name for name, _ in configs)
    nevai = summaries["nevai"]["results"]["nevai"]
    assert nevai["verdict"] == "converges" and nevai["tail_exponent"] is None
    assert nevai["note"] == "deviations below noise floor; tail exponent inf written as null"
    estimate, = summaries["amplitude"]["results"]["amplitude"]["estimates"]
    assert estimate["inconclusive"] is True
    assert [estimate[k] for k in ("sine_fit", "envelope", "spread", "theta_fit")] == [None] * 4


def test_explicit_family_through_pipeline(tmp_path):
    out = tmp_path / "out"
    text = """
[sequence]
family = explicit
values = 1, 3/2, 2, 5/2, 3, 7/2, 4, 9/2

[run]
command = zeros
order = 6

[output]
dir = %s
prefix = t
""" % out
    assert main([write_config(tmp_path, text)]) == 0
    assert (out / "t_zeros.csv").exists()


def test_degenerate_moment_sequence_exits_2(tmp_path, capsys):
    # x = 1, 1, 2, ... makes D_2 = D_3 = 0, so no monic P_3 or P_4 exists;
    # the polynomials are built in ascending degree, so P_3 is reported
    text = """
[sequence]
family = explicit
values = 1, 1, 2, 3, 4, 5, 6, 7

[run]
command = polys
n_max = 4

[output]
dir = %s
prefix = t
""" % (tmp_path / "out")
    assert main([write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: degenerate moment sequence: D_2 = 0, "
                          "no monic polynomial of degree 3")
    assert "Traceback" not in err


def test_explicit_family_too_short_for_order_exits_2(tmp_path, capsys):
    text = """
[sequence]
family = explicit
values = 1, 2

[run]
command = zeros
order = 9
"""
    assert main([write_config(tmp_path, text)]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_rational_denominator_vanishing_past_validation_exits_2(tmp_path, capsys):
    # den = (n - 100)(n - 101) passes the load-time check of n <= 64; the
    # step that first reads x_100 stops the run after earlier steps wrote
    text = """
[sequence]
family = rational
num = 1, 0, 1
den = 10100, -201, 1

[run]
command = all

[output]
dir = %s
prefix = t
""" % (tmp_path / "out")
    assert main([write_config(tmp_path, text), "--order", "120"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the denominator of x_n vanishes at n = 100")
    assert "Traceback" not in err
    assert sorted(p.name for p in (tmp_path / "out").iterdir())[0] == "t_hankel.csv"


FAMILY_BLOCKS = {
    "canonical": "family = canonical",
    "su11": "family = su11\nj = 1",
    "barut_girardello": "family = barut_girardello\nj = 1",
    "ultraspherical": "family = ultraspherical\nnu = 1",
    "jacobi_type": "family = jacobi_type\nalpha = 1\nbeta = 1",
    "meixner_pollaczek_bessel": "family = meixner_pollaczek_bessel\nmu = 1\nnu = 1/4\nbeta = 2",
    "bessel_k_exp": "family = bessel_k_exp\nmu = 3/2\nnu = 1/2",
    "bessel_k_abs": "family = bessel_k_abs\nmu = 3/2\nnu = 1/2",
    "gamma_quotient": "family = gamma_quotient\na = 3\nb = 2\nc = 1",
    "q_gamma_quotient": "family = q_gamma_quotient\nA = 1/8\nB = 1/4\nC = 1/2\nq = 1/2",
    "grinshpan_ismail_s3": "family = grinshpan_ismail_s3\na1 = 1\na2 = 1/2\na3 = 1/4",
    "analytic_function": "family = analytic_function\ntaylor_norms = 1, 1, 2, 6, 24, 120, 720, 5040",
    "explicit": "family = explicit\nvalues = 1, 3/2, 2, 5/2, 3, 7/2, 4, 9/2",
    "rational": "family = rational\nnum = 0, 1\nden = 1",
}


@pytest.mark.parametrize("family", sorted(FAMILY_BLOCKS))
def test_full_pipeline_runs_for_every_family(tmp_path, family):
    out = tmp_path / "out"
    text = f"""
[sequence]
{FAMILY_BLOCKS[family]}

[run]
command = all
n_max = 6
order = 5
tolerance = 1e-8

[output]
dir = {out}
prefix = t
"""
    code = main([write_config(tmp_path, text)])
    assert code == 0, family
    summary = json.loads((out / "t_summary.json").read_text())
    assert summary["results"]["hankel"]["all_positive"] is True

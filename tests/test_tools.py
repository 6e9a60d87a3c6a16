"""Smoke tests of the digest tools, which compare the outputs of two source
trees, and of the names the benchmark traces: a renamed benchmark workload,
test spec list or library name breaks here and not only when the tools or
a traced benchmark run are next run."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import nlcpoly
from nlcpoly import SequenceSpec

from test_sequences import PAIR_SPECS

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
import cli_digests  # noqa: E402
import library_digests  # noqa: E402
import run as perfbench_run  # noqa: E402
import tracer  # noqa: E402


def test_cli_digests_cover_every_benchmark_run():
    # 12 cli_catalog and 4 cli_heavy configs, each as `all`, `zeros`, `bounds`,
    # `amplitude`, `cm-check` and `verify-measure`, and the order-1000
    # barut_girardello zeros run
    labels = [label for label, _, _ in cli_digests.benchmark_runs()]
    assert len(labels) == len(set(labels)) == 16 * 6 + 1


def test_library_digest_of_a_pair_spec_is_json():
    spec = SequenceSpec("ultraspherical", nu=Fraction(3, 10))
    assert spec in PAIR_SPECS
    digest = library_digests.digest_spec(nlcpoly, spec, library_digests.TEST_CALLS)
    digest = json.loads(json.dumps(digest))
    assert set(digest) == {"values", "x_floats", "hankel_polynomials", "berg_duran", "calls",
                           "x_limit", "x_minus_limit", "nevai_condition", "poly_pair",
                           "moment_check", "fresh_berg_duran", "fresh_moment_check"}
    # the pair up to its common factor: (n - 1/2) / (n + 3/10)
    assert digest["poly_pair"] == [["-1/2", "1"], ["3/10", "1"]]
    assert digest["x_limit"]["value"] == "1"
    assert [n for n, _ in digest["x_minus_limit"]] == list(library_digests.MINUS_LIMIT_AT)
    assert digest["nevai_condition"]["n_max"] == library_digests.NEVAI_N
    # checked against ultraspherical_even nu = 3/10, the family's default measure
    check = digest["moment_check"]
    assert check["measure"] == "ultraspherical_even" and check["verdict"] is True
    assert [row["n"] for row in check["rows"]] == list(range(library_digests.MOMENT_N_MAX + 1))
    assert len(digest["values"]) == library_digests.N_VALUES
    assert len(digest["x_floats"]) == library_digests.FLOATS_N
    assert len(digest["hankel_polynomials"]) == library_digests.HANKEL_DEGREE
    assert digest["berg_duran"]["effective_n_max"] == library_digests.BERG_N_MAX
    # an equal spec built anew gives the reports of the spec whose view was grown
    assert digest["fresh_berg_duran"] == digest["berg_duran"]
    assert digest["fresh_moment_check"] == check
    assert [name for name, *_ in digest["calls"]] == [c[0] for c in library_digests.TEST_CALLS]


def test_traced_names_are_public_layer_functions():
    # the tracer wraps only public functions defined in a layer module, and a
    # traced run reads every TIMED and COUNTED name from its report
    names = {*perfbench_run.TIMED, *perfbench_run.COUNTED, *tracer.HOT,
             *tracer.QUADRATURE_RULES}
    for name in sorted(names):
        layer, attr = name.split(".")
        assert layer in tracer.LAYERS, name
        module = importlib.import_module(f"nlcpoly.{layer}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and not attr.startswith("_"), name
        assert fn.__module__ == module.__name__, name


def test_tracer_installs_on_the_package():
    # a traced benchmark run wraps every layer and rebinds the names in the
    # modules tracer.install lists; run in a child so this process stays unwrapped
    script = ("import nlcpoly, nlcpoly.cli, tracer\n"
              "tracer.Tracer().install(nlcpoly)\n"
              "assert nlcpoly.x_float.__wrapped__ is nlcpoly.sequences.x_float.__wrapped__\n")
    src = str(Path(nlcpoly.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

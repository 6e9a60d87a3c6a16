"""Smoke tests of the digest tools, which compare the outputs of two source
trees: a renamed benchmark workload, test spec list or library name breaks
here and not only when the tools are next run."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import nlcpoly
from nlcpoly import SequenceSpec

from test_sequences import PAIR_SPECS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import cli_digests  # noqa: E402
import library_digests  # noqa: E402


def test_cli_digests_cover_every_benchmark_run():
    # 12 cli_catalog and 4 cli_heavy configs, each as `all`, `zeros` and `bounds`
    labels = [label for label, _, _ in cli_digests.benchmark_runs()]
    assert len(labels) == len(set(labels)) == 48


def test_library_digest_of_a_pair_spec_is_json():
    spec = SequenceSpec("ultraspherical", nu=Fraction(3, 10))
    assert spec in PAIR_SPECS
    digest = library_digests.digest_spec(nlcpoly, spec, library_digests.TEST_CALLS)
    digest = json.loads(json.dumps(digest))
    assert set(digest) == {"values", "calls", "x_limit", "x_minus_limit", "nevai_condition",
                           "poly_pair"}
    # the pair up to its common factor: (n - 1/2) / (n + 3/10)
    assert digest["poly_pair"] == [["-1/2", "1"], ["3/10", "1"]]
    assert digest["x_limit"]["value"] == "1"
    assert [n for n, _ in digest["x_minus_limit"]] == list(library_digests.MINUS_LIMIT_AT)
    assert digest["nevai_condition"]["n_max"] == library_digests.NEVAI_N
    assert len(digest["values"]) == library_digests.N_VALUES
    assert [name for name, *_ in digest["calls"]] == [c[0] for c in library_digests.TEST_CALLS]

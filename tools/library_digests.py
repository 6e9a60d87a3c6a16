"""Write the library results on a fixed set of sequence specs for one source tree.

Usage (from the repository root):

    python3 tools/library_digests.py SRC OUT.json

Imports ``nlcpoly`` from the package under SRC (a ``src`` directory). The
specs are the four ``library_long`` specs of ``perfbench/workloads.py``,
the exact and float spec lists of ``tests/test_sequences.py`` and
``tests/test_moments.py``, the exact specs of
``test_sequences.VIOLATOR_SPECS``, whose claims the checks leave to their
scans, ``test_sequences.LONG_LIST_SPEC``, a list-backed spec with a
finite limit, whose ``x_minus_limit`` and Nevai deviations read its float
view, ``test_moments.THREE_ATOMS``, the ratios of uniform mass on
{0, 1, 2}, whose Chebyshev pass ends at a zero pivot with every later
determinant zero, and three specs whose pass ends at a zero pivot with
later determinants that are not zero, so that ``hankel_determinant`` and
``hankel_polynomial`` continue past it: the explicit ``1, 1, 2, 3, 4, 5``
and the two rational ``test_moments.STOP_SPECS``. For each spec OUT.json
holds:

* ``x_value`` as ``str`` and ``x_float`` as ``repr`` for n <= 2000 (or up
  to the length of a list-backed spec);
* the float view ``x_floats(spec, FLOATS_N)`` as ``repr``, which the
  ``x_float`` rows do not read;
* the full ``check_monotone_and_bounded`` and
  ``check_nonlinear_inequalities`` reports, violations included;
* ``hankel_polynomial`` for degrees 1 .. ``HANKEL_DEGREE`` on one moment
  sequence, and the full ``berg_duran_check`` report at n_max
  ``BERG_N_MAX``;
* the ``hankel_determinant`` values and the ``phi_value`` and
  ``amplitude_extract`` results; the ``library_long`` specs run the calls of
  that workload, every other spec runs ``TEST_CALLS``;
* every reader of the spec's exact pair: ``x_limit``, ``x_minus_limit`` at
  n in ``MINUS_LIMIT_AT`` where the limit is finite, ``nevai_condition`` at
  ``NEVAI_N``, and ``poly_pair()`` divided by the leading coefficient of its
  denominator, so that two pairs of one function that differ by a common
  factor digest equal;
* the full ``verify_moment_problem`` report, rows and verdict included, at
  n_max ``MOMENT_N_MAX``, against the family's ``DEFAULT_MEASURES`` density built
  with the spec's parameters, where the family has one;
* ``berg_duran_check`` and ``verify_moment_problem`` once more on an equal
  spec built anew, whose moment view nothing has grown, where the entries
  above read the view that ``hankel_polynomial`` grew.

Fractions are written as ``str`` and floats by ``repr``, and an exception as
its type and message, so two such files from two source trees are equal
exactly when every result is the same Fraction, the same float bits or the
same error (the companion of ``tools/cli_digests.py``). A result record
is read through its NamedTuple ``_fields``, so digest each tree with the
copy of this tool in that tree:

    python3 ../parent/tools/library_digests.py ../parent/src /tmp/parent.json
    python3 tools/library_digests.py src /tmp/change.json
    diff /tmp/parent.json /tmp/change.json
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
N_VALUES = 2000
TEST_CALLS = [
    ["check_monotone_and_bounded", 2000],
    ["check_nonlinear_inequalities", 300],
    ["hankel_determinant", 10],
    ["phi_value", 300, 0.3],
    ["amplitude_extract", 0.3, [200, 400]],
    ["amplitude_extract", -0.95, [200, 400]],
    ["amplitude_extract", 0.95, [200, 400]],
]
MINUS_LIMIT_AT = (1, 10, 100, 1000)
NEVAI_N = 256
MOMENT_N_MAX = 12
FLOATS_N = 6000
HANKEL_DEGREE = 12
BERG_N_MAX = 20


def _plain(value):
    """JSON-ready copy: records as dicts, Fractions as str, floats by repr."""
    if hasattr(value, "_fields"):
        return {name: _plain(getattr(value, name)) for name in value._fields}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return value


def _guarded(fn):
    try:
        return _plain(fn())
    except Exception as exc:  # an error is a result to compare, not a failure
        return f"{type(exc).__name__}: {exc}"


def _call(nl, spec, name: str, *args):
    if name == "hankel_determinant":  # D_0 .. D_n on one moment sequence
        moments = nl.MomentSequence(spec)
        return [nl.hankel_determinant(moments, n) for n in range(args[0] + 1)]
    return getattr(nl, name)(spec, *args)


def _values(nl, spec) -> List[list]:
    out = []
    for n in range(1, N_VALUES + 1):
        try:
            out.append([str(nl.x_value(spec, n)), repr(nl.x_float(spec, n))])
        except nl.SequenceRangeError:
            break
    return out


def _monic_pair(spec):
    pair = spec.poly_pair()
    if pair is None:
        return None
    lead = pair[1][-1]
    return [[c / lead for c in coeffs] for coeffs in pair]


def _minus_limit(nl, spec):
    if not nl.x_limit(spec).is_finite:
        return None
    return [[n, _guarded(lambda: nl.x_minus_limit(spec, n))] for n in MINUS_LIMIT_AT]


def _moment_check(nl, spec):
    name = nl.measures.DEFAULT_MEASURES.get(spec.family)
    if name is None:
        return None
    measure = nl.get_measure(name, **spec.params)
    return nl.verify_moment_problem(measure, spec, MOMENT_N_MAX)


def _fresh(nl, spec):
    """An equal spec built anew, so its checks grow its moment view themselves."""
    return nl.SequenceSpec(spec.family, spec.strict, **spec.params)


def _hankel_polynomials(nl, spec) -> List[object]:
    moments = nl.MomentSequence(spec)
    return [_guarded(lambda: nl.hankel_polynomial(moments, n))
            for n in range(1, HANKEL_DEGREE + 1)]


def digest_spec(nl, spec, calls: List[list]) -> Dict[str, object]:
    return {"values": _guarded(lambda: _values(nl, spec)),
            "x_floats": _guarded(lambda: nl.x_floats(spec, FLOATS_N).tolist()),
            "hankel_polynomials": _hankel_polynomials(nl, spec),
            "berg_duran": _guarded(lambda: nl.berg_duran_check(spec, BERG_N_MAX)),
            "x_limit": _guarded(lambda: nl.x_limit(spec)),
            "x_minus_limit": _guarded(lambda: _minus_limit(nl, spec)),
            "nevai_condition": _guarded(lambda: nl.nevai_condition(spec, NEVAI_N)),
            "poly_pair": _guarded(lambda: _monic_pair(spec)),
            "moment_check": _guarded(lambda: _moment_check(nl, spec)),
            "fresh_berg_duran": _guarded(
                lambda: nl.berg_duran_check(_fresh(nl, spec), BERG_N_MAX)),
            "fresh_moment_check": _guarded(lambda: _moment_check(nl, _fresh(nl, spec))),
            "calls": [[name, *args, _guarded(lambda: _call(nl, spec, name, *args))]
                      for name, *args in calls]}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/library_digests.py SRC OUT.json", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    sys.path[:0] = [str(src), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import nlcpoly as nl  # noqa: PLC0415  (from SRC, which leads sys.path)
    if Path(nl.__file__).resolve().parent.parent != src:
        print(f"error: nlcpoly imported from {nl.__file__}, not from {src}", file=sys.stderr)
        return 2
    import test_moments  # noqa: PLC0415
    import test_sequences as ts  # noqa: PLC0415
    import workloads  # noqa: PLC0415

    digests = {}
    for op in workloads.build("library_long", SEED):
        spec = nl.SequenceSpec(op.family, **op.params)
        digests[f"library_long/{op.name}"] = digest_spec(nl, spec, op.calls)
    tests = [*ts.PAIR_SPECS, *ts.Q_SPECS, *(s for s, _ in ts.FLOAT_FORMULAS),
             *ts.FLOAT_VIEW_SPECS, *test_moments.FLOAT_SPECS,
             *(spec for spec in ts.VIOLATOR_SPECS if spec.is_rational), ts.LONG_LIST_SPEC,
             nl.SequenceSpec("explicit", values=test_moments.THREE_ATOMS),
             nl.SequenceSpec("explicit", values=[1, 1, 2, 3, 4, 5]),
             *(spec for spec, _ in test_moments.STOP_SPECS)]
    for spec in tests:
        label = f"tests/{spec!r}" + ("" if spec.strict else " strict=False")
        if label not in digests:
            digests[label] = digest_spec(nl, spec, TEST_CALLS)
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Digest the CLI outputs of the benchmark configs for one source tree.

Usage (from the repository root):

    python3 tools/cli_digests.py SRC OUT.json

Runs ``nlcpoly`` from the package under SRC (a ``src`` directory) on the 12
``cli_catalog`` and 4 ``cli_heavy`` configs of ``perfbench/workloads.py``,
each as its ``all`` run and as the single-step ``zeros``, ``bounds``,
``amplitude``, ``cm-check`` and ``verify-measure`` runs (``--command``).  A
single ``cm-check`` or ``verify-measure`` run grows the spec's moment view
itself, where in ``all`` it reads the view the ``hankel`` step grew.  Last
comes one ``zeros`` run of barut_girardello j = 1 at order 1000 and
tolerance 1e-12, where the counts on Q_n refute one of the block's brackets
and the search runs again on Q_n, a path no benchmark config reaches.  Each
runs in a fresh interpreter and an empty directory, and writes the exit code
and the sha256 of stdout and of every output file to OUT.json.  Two such
files from two source trees are equal exactly when every run wrote the same
bytes and exited the same way:

    python3 tools/cli_digests.py ../parent/src /tmp/parent.json
    python3 tools/cli_digests.py src /tmp/change.json
    diff /tmp/parent.json /tmp/change.json
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEED = 1
# single steps digested beside each ``all`` run
STEPS = ("zeros", "bounds", "amplitude", "cm-check", "verify-measure")
REPAIR = ("barut_girardello", {"j": "1"},
          ["--command", "zeros", "--order", "1000", "--tolerance", "1e-12"])
_MAIN = "import sys; from nlcpoly.cli import main; sys.exit(main(sys.argv[1:]))"


def benchmark_runs() -> List[Tuple[str, str, List[str]]]:
    """(label, config text, flags) of every cli_catalog and cli_heavy run,
    then of its single-step runs, then of the repair run."""
    ops = [(f"{workload}/{op.name}", op)
           for workload in ("cli_catalog", "cli_heavy")
           for op in workloads.build(workload, SEED)]
    family, params, flags = REPAIR
    return ([(label, op.config, op.argv) for label, op in ops]
            + [(f"{label}/{step}", op.config, [*op.argv, "--command", step])
               for step in STEPS for label, op in ops]
            + [(f"repair/{family}/zeros", workloads._config_text(family, params, SEED), flags)])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(src: Path, config: str, argv: List[str]) -> Dict[str, object]:
    """Run one config in an empty directory; exit code and output digests."""
    with tempfile.TemporaryDirectory() as work:
        Path(work, "run.ini").write_text(config)
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", _MAIN, "run.ini", *argv],
                              cwd=work, env=env, capture_output=True)
        files = {name: _sha256(Path(work, name).read_bytes())
                 for name in sorted(os.listdir(work)) if name != "run.ini"}
    return {"exit": proc.returncode, "stdout": _sha256(proc.stdout), "files": files}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cli_digests.py SRC OUT.json", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    digests = {label: digest_run(src, config, flags)
               for label, config, flags in benchmark_runs()}
    out.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

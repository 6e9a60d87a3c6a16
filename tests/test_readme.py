"""README.md examples stay runnable: the library quick start executes,
every [sequence] block under "Families" parses into a spec, the
"Configuration" example loads and lists the config key table's [run] and
[output] keys, the "Measures" list names the measure catalog, and every
`nl.<name>` the text cites is an attribute of the package."""

import re
from pathlib import Path

import nlcpoly
from nlcpoly import family_names, measure_names
from nlcpoly.config import CONFIG_KEYS, load_config

from conftest import spec_from_config_text

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _first_block(heading: str, lang: str) -> str:
    """Body of the first ```lang fenced block after the given heading line."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    exec(compile(_first_block("## Library quick start", "python"), "README.md", "exec"), {})


def test_every_family_block_parses():
    blocks = _first_block("### Families", "ini").split("[sequence]")[1:]
    families = [spec_from_config_text("[sequence]" + block).family for block in blocks]
    assert sorted(families) == family_names()


def test_measures_list_names_the_catalog():
    listed = README.split("Measures (`[measure] name = ...`):")[1].split("\n\n")[0]
    names = re.findall(r"`(\w+)(?:\([^)]*\))?`", listed)
    assert sorted(names) == measure_names()


def test_every_cited_package_name_exists():
    cited = set(re.findall(r"`nl\.(\w+)", README))
    assert cited
    assert sorted(name for name in cited if not hasattr(nlcpoly, name)) == []


def test_configuration_example_lists_the_key_table():
    section, listed = None, []
    for line in _first_block("## Configuration", "ini").splitlines():
        head = re.match(r"\[(\w+)\]", line)
        if head:
            section = head.group(1)
        elif section in ("run", "output") and re.match(r"\w+ =", line):
            listed.append((section, line.split("=")[0].strip()))
    assert sorted(listed) == sorted((k.section, k.key) for k in CONFIG_KEYS)


def test_configuration_example_loads(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(_first_block("## Configuration", "ini"))
    cfg = load_config(str(path))
    assert (cfg.family, cfg.measure, cfg.command) == ("su11", "disc_radial", "all")
    assert (cfg.n_max, cfg.order, cfg.tolerance, cfg.seed) == (12, 8, 1e-11, 20240101)
    assert (cfg.amplitude_window, cfg.amplitude_points) == ((2000, 4000), (0.0, 0.3, 0.6))
    assert (cfg.out_dir, cfg.prefix) == ("out", "run1")

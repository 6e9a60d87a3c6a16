"""Run configuration: an INI-style file with sections, plus flag overrides.

The ``[sequence]`` section names a family and its parameters (rational
values as strings like ``3/2`` survive a round trip losslessly), an optional
``[measure]`` section names a catalog density, and ``[run]`` / ``[output]``
hold the numeric knobs and output paths.  A commented example for every
family is in the package README.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .asymptotics import MIN_NEVAI_N
from .measures import measure_names, measure_params
from .quadrature import MIN_TOLERANCE
from .sequences import _FAMILIES, _LIST_PARAMS, SequenceSpec, _as_number, family_names

COMMANDS = ("moments", "hankel", "polys", "zeros", "bounds", "verify-measure",
            "nevai", "amplitude", "cm-check", "all")
SECTIONS = ("sequence", "measure", "run", "output")


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


class ConfigKey(NamedTuple):
    """A ``[run]`` or ``[output]`` key: the field it sets, how its text is read
    and its range.  ``[run]`` keys enter the config hash; a ``flag`` key has a
    CLI flag named after its field (``n_max`` -> ``--n-max``)."""
    section: str
    key: str
    field: str
    parse: Callable[[str], object]
    rule: str  # the range, as an error message states it
    ok: Callable[[object], bool]
    flag: bool = False


CONFIG_KEYS = (
    ConfigKey("run", "command", "command", str, "one of " + ", ".join(COMMANDS),
              lambda v: v in COMMANDS, True),
    ConfigKey("run", "n_max", "n_max", int, ">= 0", lambda v: v >= 0, True),
    ConfigKey("run", "order", "order", int, ">= 1", lambda v: v >= 1, True),
    ConfigKey("run", "tolerance", "tolerance", float, f"in [{MIN_TOLERANCE}, 1)",
              lambda v: MIN_TOLERANCE <= v < 1, True),
    ConfigKey("run", "seed", "seed", int, "an integer", lambda v: True),
    ConfigKey("run", "nevai_n_max", "nevai_n_max", int, f">= {MIN_NEVAI_N}",
              lambda v: v >= MIN_NEVAI_N),
    ConfigKey("run", "amplitude_window", "amplitude_window",
              lambda s: tuple(int(v) for v in s.split(",")), "lo,hi with 0 <= lo < hi",
              lambda v: len(v) == 2 and 0 <= v[0] < v[1]),
    ConfigKey("run", "amplitude_points", "amplitude_points",
              lambda s: tuple(float(v) for v in s.split(",") if v.strip()),
              "values in (-1, 1)", lambda v: all(-1 < x < 1 for x in v)),
    ConfigKey("output", "dir", "out_dir", str, "not empty", bool, True),
    ConfigKey("output", "prefix", "prefix", str, "any text", lambda v: True, True),
)


def _format_number(value) -> str:
    if isinstance(value, Fraction):
        return str(value)  # "p/q" or "p"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class RunConfig(NamedTuple):
    family: str
    family_params: Dict[str, object]
    command: str = "all"
    measure: Optional[str] = None
    measure_params: Mapping[str, object] = MappingProxyType({})  # read-only when shared
    n_max: int = 12
    order: int = 8
    tolerance: float = 1e-11
    seed: int = 20240101
    nevai_n_max: int = 4096
    amplitude_window: Tuple[int, int] = (2000, 4000)
    amplitude_points: Tuple[float, ...] = (0.0, 0.3, 0.6)
    out_dir: str = "."
    prefix: str = "nlcpoly"

    def spec(self) -> SequenceSpec:
        return SequenceSpec(self.family, **self.family_params)

    def canonical_text(self) -> str:
        """Deterministic re-serialization of the analysis-relevant sections;
        output paths are deliberately excluded so results are byte-identical
        wherever they are written."""
        sections = {"sequence": _section("family", self.family, self.family_params)}
        if self.measure:
            sections["measure"] = _section("name", self.measure, self.measure_params)
        sections["run"] = {k.key: _format_param(getattr(self, k.field))
                           for k in CONFIG_KEYS if k.section == "run"}
        return _write_sections(sections)

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _format_param(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(_format_number(v) for v in value)
    return _format_number(value)


def _section(head: str, name: str, params: Dict[str, object]) -> Dict[str, str]:
    return {head: name, **{key: _format_param(params[key]) for key in sorted(params)}}


def _new_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)  # '%' is a plain character
    parser.optionxform = str  # keep parameter case (A vs a)
    return parser


def _write_sections(sections: Dict[str, Dict[str, str]]) -> str:
    parser = _new_parser()
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _check_known(kind: str, names, known) -> None:
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown {kind} {name!r}; known: {', '.join(known)}")


def _parse_params(section, head: str) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for key, raw in section.items():
        if key == head:
            continue
        if key in _LIST_PARAMS:
            params[key] = [_as_number(tok) for tok in raw.split(",") if tok.strip()]
        else:
            params[key] = _as_number(raw)
    return params


def load_config(path: str, overrides: Optional[List[str]] = None) -> RunConfig:
    """Parse a config file; ``overrides`` are ``section.key=value`` strings
    that win over the file."""
    parser = _new_parser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # no section header, a duplicate key or section, or bytes that are not UTF-8
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        _check_known("section", [section], SECTIONS)
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
    return _config_from_parser(parser)


def _config_from_parser(parser: configparser.ConfigParser) -> RunConfig:
    _check_known("section", parser.sections(), SECTIONS)
    if not parser.has_section("sequence"):
        raise ConfigError("config needs a [sequence] section")
    seq = parser["sequence"]
    family = seq.get("family", "").strip()
    _check_known("family", [family], family_names())
    _check_known("[sequence] key", seq, ("family",) + _FAMILIES[family].param_names)
    values = {"family": family, "family_params": _parse_params(seq, "family")}

    if parser.has_section("measure"):
        section = parser["measure"]
        name = values["measure"] = section.get("name", "").strip()
        _check_known("[measure] name", [name], measure_names())
        _check_known("[measure] key", section, ("name",) + measure_params(name))
        values["measure_params"] = _parse_params(section, "name")

    for section in ("run", "output"):
        if parser.has_section(section):
            keys = {k.key: k for k in CONFIG_KEYS if k.section == section}
            _check_known(f"[{section}] key", parser[section], keys)
            for key, raw in parser[section].items():
                values[keys[key].field] = _read_key(keys[key], raw)
    return RunConfig(**values)


def _read_key(k: ConfigKey, raw: str):
    try:
        value = k.parse(raw.strip())
    except ValueError:
        raise ConfigError(f"cannot read {k.section}.{k.key} = {raw!r}") from None
    if not k.ok(value):
        raise ConfigError(f"{k.section}.{k.key} must be {k.rule}; got {raw!r}")
    return value

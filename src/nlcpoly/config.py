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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .sequences import _LIST_PARAMS, SequenceSpec, _as_number, family_names

COMMANDS = ("moments", "hankel", "polys", "zeros", "bounds", "verify-measure",
            "nevai", "amplitude", "cm-check", "all")


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


def _format_number(value) -> str:
    if isinstance(value, Fraction):
        return str(value)  # "p/q" or "p"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class RunConfig:
    family: str
    family_params: Dict[str, object]
    command: str = "all"
    measure: Optional[str] = None
    measure_params: Dict[str, object] = field(default_factory=dict)
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
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep parameter case (A vs a)
        parser["sequence"] = {"family": self.family}
        for key in sorted(self.family_params):
            parser["sequence"][key] = _format_param(self.family_params[key])
        if self.measure:
            parser["measure"] = {"name": self.measure}
            for key in sorted(self.measure_params):
                parser["measure"][key] = _format_param(self.measure_params[key])
        parser["run"] = {
            "command": self.command,
            "n_max": str(self.n_max),
            "order": str(self.order),
            "tolerance": repr(self.tolerance),
            "seed": str(self.seed),
            "nevai_n_max": str(self.nevai_n_max),
            "amplitude_window": f"{self.amplitude_window[0]},{self.amplitude_window[1]}",
            "amplitude_points": ",".join(repr(v) for v in self.amplitude_points),
        }
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _format_param(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(_format_number(v) for v in value)
    return _format_number(value)


def _parse_params(section) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for key, raw in section.items():
        if key in ("family", "name"):
            continue
        if key in _LIST_PARAMS:
            params[key] = [_as_number(tok) for tok in raw.split(",") if tok.strip()]
        else:
            params[key] = _as_number(raw)
    return params


def load_config(path: str, overrides: Optional[List[str]] = None) -> RunConfig:
    """Parse a config file; ``overrides`` are ``section.key=value`` strings
    that win over the file."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep parameter case (A vs a)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
    return _config_from_parser(parser)


def _config_from_parser(parser: configparser.ConfigParser) -> RunConfig:
    if not parser.has_section("sequence"):
        raise ConfigError("config needs a [sequence] section")
    seq = parser["sequence"]
    family = seq.get("family", "").strip()
    if family not in family_names():
        raise ConfigError(
            f"unknown family {family!r}; known: {', '.join(family_names())}")
    cfg = RunConfig(family=family, family_params=_parse_params(seq))

    if parser.has_section("measure"):
        cfg.measure = parser["measure"].get("name", "").strip() or None
        cfg.measure_params = _parse_params(parser["measure"])

    if parser.has_section("run"):
        run = parser["run"]
        cfg.command = run.get("command", cfg.command).strip()
        if cfg.command not in COMMANDS:
            raise ConfigError(
                f"unknown command {cfg.command!r}; known: {', '.join(COMMANDS)}")
        cfg.n_max = run.getint("n_max", cfg.n_max)
        cfg.order = run.getint("order", cfg.order)
        cfg.tolerance = run.getfloat("tolerance", cfg.tolerance)
        cfg.seed = run.getint("seed", cfg.seed)
        cfg.nevai_n_max = run.getint("nevai_n_max", cfg.nevai_n_max)
        if run.get("amplitude_window", None):
            lo, hi = (int(v) for v in run["amplitude_window"].split(","))
            cfg.amplitude_window = (lo, hi)
        if run.get("amplitude_points", None):
            cfg.amplitude_points = tuple(
                float(v) for v in run["amplitude_points"].split(",") if v.strip())
        if cfg.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        if cfg.n_max < 0 or cfg.order < 1:
            raise ConfigError("n_max must be >= 0 and order >= 1")

    if parser.has_section("output"):
        out = parser["output"]
        cfg.out_dir = out.get("dir", cfg.out_dir)
        cfg.prefix = out.get("prefix", cfg.prefix)
    return cfg


def spec_to_config_text(spec: SequenceSpec) -> str:
    """Serialize just a sequence spec; rational parameters round-trip
    losslessly through their p/q form."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep parameter case (A vs a)
    parser["sequence"] = {"family": spec.family}
    for key in sorted(spec.params):
        parser["sequence"][key] = _format_param(spec.params[key])
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def spec_from_config_text(text: str) -> SequenceSpec:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep parameter case (A vs a)
    parser.read_string(text)
    seq = parser["sequence"]
    return SequenceSpec(seq["family"], **_parse_params(seq))

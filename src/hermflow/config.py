"""Strict key-value run configuration.

Flat INI-style sections, parsed with no silent fallbacks: unknown sections
or keys are errors, as are missing required keys, so a typo can never be
absorbed into a default.  See README for the full key reference.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

__all__ = ["RunConfig", "check_seed", "load_config"]

_SCHEMA = {
    "model": {"a", "kappa", "nu", "lambda", "r0", "r1", "r4", "delta1"},
    "frame": {"dim", "degree", "quad_order"},
    "initial": {"family", "alpha", "amplitude", "decay", "path", "u_scale"},
    "time": {"dt", "t_final", "record_every"},
    "run": {"mode", "seed", "output_dir", "n_samples", "n_list", "save_state"},
}
_MODES = ("simulate", "verify", "sweep", "rescaled")
_FAMILIES = ("steady", "tilted", "random", "file")


@dataclass
class RunConfig:
    """Validated contents of one configuration file."""

    a: float
    kappa: float
    nu: float
    lam: float
    r0: float
    r1: float
    r4: float
    delta1: float
    dim: int
    degree: int
    quad_order: int | None
    family: str
    alpha: float
    amplitude: float
    decay: float
    path: str | None
    u_scale: float
    dt: float
    t_final: float
    record_every: int
    mode: str | None
    seed: int
    output_dir: str
    n_samples: int
    n_list: tuple
    save_state: bool
    raw: dict = field(default_factory=dict)


def _get(parser, section, key, conv, default=None, required=False):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            value = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} = {raw!r}: not a finite number")
        return value
    if required:
        raise ConfigError(f"missing required key [{section}] {key}")
    return default


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_n_list(raw: str) -> tuple:
    try:
        vals = tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"not an integer list: {raw!r}") from exc
    if not vals:
        raise ValueError("empty list")
    return vals


def check_seed(seed: int) -> int:
    """A random seed, from the config or the command line; numpy needs it >= 0."""
    if seed < 0:
        raise ConfigError(f"[run] seed must be non-negative, got {seed}")
    return seed


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key [{section}] {key} in {path}")

    mode = _get(parser, "run", "mode", str, default=None)
    if mode is not None and mode not in _MODES:
        raise ConfigError(f"[run] mode must be one of {_MODES}, got {mode!r}")
    family = _get(parser, "initial", "family", str, required=True)
    if family not in _FAMILIES:
        raise ConfigError(f"[initial] family must be one of {_FAMILIES}, got {family!r}")
    file_path = _get(parser, "initial", "path", str, default=None)
    if family == "file":
        if file_path is None:
            raise ConfigError("[initial] family = file requires a path")
        if not Path(file_path).exists():
            raise ConfigError(f"[initial] path does not exist: {file_path}")

    cfg = RunConfig(
        a=_get(parser, "model", "a", float, required=True),
        kappa=_get(parser, "model", "kappa", float, required=True),
        nu=_get(parser, "model", "nu", float, required=True),
        lam=_get(parser, "model", "lambda", float, required=True),
        r0=_get(parser, "model", "r0", float, default=0.0),
        r1=_get(parser, "model", "r1", float, default=0.0),
        r4=_get(parser, "model", "r4", float, default=0.0),
        delta1=_get(parser, "model", "delta1", float, default=0.0),
        dim=_get(parser, "frame", "dim", int, required=True),
        degree=_get(parser, "frame", "degree", int, required=True),
        quad_order=_get(parser, "frame", "quad_order", int, default=None),
        family=family,
        alpha=_get(parser, "initial", "alpha", float, default=0.0),
        amplitude=_get(parser, "initial", "amplitude", float, default=0.2),
        decay=_get(parser, "initial", "decay", float, default=0.5),
        path=file_path,
        u_scale=_get(parser, "initial", "u_scale", float, default=0.0),
        dt=_get(parser, "time", "dt", float, required=True),
        t_final=_get(parser, "time", "t_final", float, required=True),
        record_every=_get(parser, "time", "record_every", int, default=1),
        mode=mode,
        seed=check_seed(_get(parser, "run", "seed", int, default=0)),
        output_dir=_get(parser, "run", "output_dir", str, default="out"),
        n_samples=_get(parser, "run", "n_samples", int, default=200),
        n_list=_get(parser, "run", "n_list", _parse_n_list, default=(4, 8, 16, 32)),
        save_state=_get(parser, "run", "save_state", _parse_bool, default=False),
    )
    if cfg.record_every < 1:
        raise ConfigError("[time] record_every must be >= 1")
    if cfg.n_samples < 1:
        raise ConfigError("[run] n_samples must be >= 1")
    cfg.raw = {s: dict(parser.items(s)) for s in parser.sections()}
    return cfg

"""Strict key-value run configuration.

Flat INI-style sections, parsed with no silent fallbacks: unknown sections
or keys are errors, as are missing required keys, so a typo can never be
absorbed into a default.  Values are literal: ``%`` has no special
meaning.  See README for the full key reference.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import field, make_dataclass
from pathlib import Path

from .errors import ConfigError

__all__ = ["RunConfig", "check_seed", "load_config"]

_MODES = ("simulate", "verify", "sweep", "rescaled")
_FAMILIES = ("steady", "tilted", "random", "file")


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


_REQUIRED = object()  # default of a key the config must set

# section -> key -> (conversion, default); each key is the RunConfig field of
# its name, in this order, except ``lambda``, a Python keyword, which is ``lam``
_SCHEMA = {
    "model": {"a": (float, _REQUIRED), "kappa": (float, _REQUIRED), "nu": (float, _REQUIRED),
              "lambda": (float, _REQUIRED), "r0": (float, 0.0), "r1": (float, 0.0),
              "r4": (float, 0.0), "delta1": (float, 0.0)},
    "frame": {"dim": (int, _REQUIRED), "degree": (int, _REQUIRED)},
    "initial": {"family": (str, _REQUIRED), "alpha": (float, 0.0), "amplitude": (float, 0.2),
                "decay": (float, 0.5), "path": (str, None), "u_scale": (float, 0.0)},
    "time": {"dt": (float, _REQUIRED), "t_final": (float, _REQUIRED), "record_every": (int, 1)},
    "run": {"mode": (str, None), "seed": (int, 0), "output_dir": (str, "out"),
            "n_samples": (int, 200), "n_list": (_parse_n_list, (4, 8, 16, 32)),
            "save_state": (_parse_bool, False)},
}
_RENAMED = {"lambda": "lam"}

# Python < 3.12 has no module= argument, so the namespace names the module
RunConfig = make_dataclass(
    "RunConfig",
    [*(_RENAMED.get(key, key) for keys in _SCHEMA.values() for key in keys),
     ("raw", dict, field(default_factory=dict))],
    namespace={"__module__": __name__, "__doc__": "Validated contents of one configuration file."},
)


def _get(parser, section, key):
    conv, default = _SCHEMA[section][key]
    if not parser.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    raw = parser.get(section, key)
    try:
        value = conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r}: not a finite number")
    return value


def check_seed(seed: int) -> int:
    """A random seed, from the config or the command line; numpy needs it >= 0."""
    if seed < 0:
        raise ConfigError(f"[run] seed must be non-negative, got {seed}")
    return seed


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
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

    values = {_RENAMED.get(key, key): _get(parser, section, key)
              for section, keys in _SCHEMA.items() for key in keys}
    if values["mode"] is not None and values["mode"] not in _MODES:
        raise ConfigError(f"[run] mode must be one of {_MODES}, got {values['mode']!r}")
    if values["family"] not in _FAMILIES:
        raise ConfigError(f"[initial] family must be one of {_FAMILIES}, got {values['family']!r}")
    if values["family"] == "file":
        if values["path"] is None:
            raise ConfigError("[initial] family = file requires a path")
        if not Path(values["path"]).exists():
            raise ConfigError(f"[initial] path does not exist: {values['path']}")
    check_seed(values["seed"])
    if values["record_every"] < 1:
        raise ConfigError("[time] record_every must be >= 1")
    if values["n_samples"] < 1:
        raise ConfigError("[run] n_samples must be >= 1")
    return RunConfig(**values, raw={s: dict(parser.items(s)) for s in parser.sections()})

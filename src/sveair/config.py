"""Scenario configuration: flat `key = value` files with dotted sections.

Lines are `key = value`, `#` starts a comment, blank lines are ignored,
strings are unquoted. This module only parses: unknown keys, values of the
wrong type or outside a key's choices, an `init.band` that is not a pair
and an empty sweep `init.d_list` are errors naming the key. The range rules
live in the library code that reads each value; `runner.run_scenario`
applies them to every config before it writes anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from sveair.errors import ConfigError
from sveair.scenarios import (
    BUILTIN_NAMES,
    D_SWEEP_DEFAULT,
    S0_DEFAULT,
    SEED_BAND_DEFAULT,
    THETA_MAX_DEFAULT,
    V0_DEFAULT,
)

INIT_MODES = ("band", "steady-scaled", "steady")

_PROFILE_OVERRIDES = ("q_csv", "k_csv", "chi_csv", "beta_a_csv", "beta_i_csv")
_SCALAR_OVERRIDES = ("n0", "mu", "p", "epsilon", "zeta", "q", "xi", "gamma_a", "gamma_i")


@dataclass
class ScenarioConfig:
    """Scenario description with defaults filled in; `runner.run_scenario`
    judges its values."""

    builtin: str = "table2-c2"
    h: float = 0.5
    theta_max: float = THETA_MAX_DEFAULT
    t_max: float = 1500.0
    sample_every: float = 1.0
    snapshot_times: tuple = ()
    oracle_t_max: float = 200.0
    s0: float = S0_DEFAULT
    v0: float = V0_DEFAULT
    d_list: tuple = D_SWEEP_DEFAULT
    band: tuple = SEED_BAND_DEFAULT
    init_mode: str = "band"
    run_oracle: bool = False
    run_lyapunov: bool = False
    r0_only: bool = False
    out_dir: str = "out"
    scalar_overrides: dict = field(default_factory=dict)
    profile_overrides: dict = field(default_factory=dict)


def _parse_float(key: str, text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key!r}: not a number: {text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"line {lineno}: key {key!r}: non-finite value")
    return value


def _parse_bool(key: str, text: str, lineno: int) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"line {lineno}: key {key!r}: expected a boolean, got {text!r}")


def _parse_float_list(key: str, text: str, lineno: int) -> tuple:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    return tuple(_parse_float(key, piece, lineno) for piece in items)


def _parse_pair(key: str, text: str, lineno: int) -> tuple:
    pair = _parse_float_list(key, text, lineno)
    if len(pair) != 2:
        raise ConfigError(f"line {lineno}: {key} must be 'low,high', got {text!r}")
    return pair


def _choice(names: tuple):
    """A parser that accepts exactly one of `names`."""

    def parse(key: str, text: str, lineno: int) -> str:
        if text not in names:
            raise ConfigError(f"line {lineno}: {key} must be one of {names}, got {text!r}")
        return text

    return parse


# Every key outside `params.*`: the ScenarioConfig field it sets and its parser.
_KEYS = {
    "scenario.builtin": ("builtin", _choice(BUILTIN_NAMES)),
    "grid.h": ("h", _parse_float),
    "grid.theta_max": ("theta_max", _parse_float),
    "run.t_max": ("t_max", _parse_float),
    "run.sample_every": ("sample_every", _parse_float),
    "run.snapshot_times": ("snapshot_times", _parse_float_list),
    "run.oracle_t_max": ("oracle_t_max", _parse_float),
    "init.s0": ("s0", _parse_float),
    "init.v0": ("v0", _parse_float),
    "init.d_list": ("d_list", _parse_float_list),
    "init.band": ("band", _parse_pair),
    "init.mode": ("init_mode", _choice(INIT_MODES)),
    "toggles.run_oracle": ("run_oracle", _parse_bool),
    "toggles.run_lyapunov": ("run_lyapunov", _parse_bool),
    "output.dir": ("out_dir", lambda key, text, lineno: text),
}


def load_config(path) -> ScenarioConfig:
    """Parse a scenario config file, resolving relative profile paths
    against its directory. Raises ConfigError as the module docstring says.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    cfg = ScenarioConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)

        if key in _KEYS:
            name, parse = _KEYS[key]
            setattr(cfg, name, parse(key, value, lineno))
        elif key.startswith("params."):
            name = key[len("params."):]
            if name in _SCALAR_OVERRIDES:
                cfg.scalar_overrides[name] = _parse_float(key, value, lineno)
            elif name in _PROFILE_OVERRIDES:
                # An absolute path stays as it is.
                cfg.profile_overrides[name] = str(path.parent / value)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    if cfg.init_mode != "steady" and not cfg.d_list:
        raise ConfigError("init.d_list must be nonempty when sweeping")
    return cfg

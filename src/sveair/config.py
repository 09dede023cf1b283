"""Scenario configuration: flat `key = value` files with dotted sections.

Lines are `key = value`, `#` starts a comment, blank lines are ignored,
strings are unquoted. Unknown keys are errors (naming the key and line),
as are values that fail the downstream preconditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from sveair.errors import ConfigError, ParameterError
from sveair.grid import build_grid
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
    """Validated scenario description with defaults filled in."""

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
    "init.band": ("band", _parse_float_list),
    "init.mode": ("init_mode", _choice(INIT_MODES)),
    "toggles.run_oracle": ("run_oracle", _parse_bool),
    "toggles.run_lyapunov": ("run_lyapunov", _parse_bool),
    "output.dir": ("out_dir", lambda key, text, lineno: text),
}


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario config file.

    Raises:
        ConfigError: on parse errors (with line numbers), unknown keys,
            missing referenced files, or invalid values (naming the key).
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
                cfg.profile_overrides[name] = value
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    _validate(cfg, base=path.parent)
    return cfg


def _validate(cfg: ScenarioConfig, base: Path) -> None:
    if not cfg.h > 0:
        raise ConfigError(f"grid.h must be positive, got {cfg.h}")
    if cfg.theta_max < cfg.h:
        raise ConfigError(f"grid.theta_max must be at least grid.h, got {cfg.theta_max}")
    if not cfg.t_max > 0:
        raise ConfigError(f"run.t_max must be positive, got {cfg.t_max}")
    if any(not 0 <= ts <= cfg.t_max for ts in cfg.snapshot_times):
        raise ConfigError(
            f"run.snapshot_times must lie in [0, run.t_max = {cfg.t_max}], "
            f"got {', '.join(map(str, cfg.snapshot_times))}"
        )
    if not cfg.sample_every >= cfg.h:
        raise ConfigError(
            f"run.sample_every must be at least grid.h, got {cfg.sample_every}"
        )
    # The run steps, samples and takes snapshots on the grid.
    grid = build_grid(cfg.h, cfg.theta_max)
    try:
        for key, value in (("run.t_max", cfg.t_max), ("run.sample_every", cfg.sample_every),
                           *(("run.snapshot_times", ts) for ts in cfg.snapshot_times)):
            grid.steps(value, key)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    if not cfg.oracle_t_max > 0:
        raise ConfigError(f"run.oracle_t_max must be positive, got {cfg.oracle_t_max}")
    if cfg.s0 < 0 or cfg.v0 < 0:
        raise ConfigError("init.s0 and init.v0 must be nonnegative")
    if cfg.init_mode != "steady" and not cfg.d_list:
        raise ConfigError("init.d_list must be nonempty when sweeping")
    if any(d < 0 for d in cfg.d_list):
        raise ConfigError("init.d_list values must be nonnegative")
    if len(cfg.band) != 2 or not 0 <= cfg.band[0] < cfg.band[1]:
        raise ConfigError(f"init.band must be 'low,high' with 0 <= low < high, got {cfg.band}")
    for name, value in cfg.scalar_overrides.items():
        if name in ("n0", "mu") and not value > 0:
            raise ConfigError(f"params.{name} must be strictly positive")
        if name in ("epsilon", "q", "xi") and not 0 <= value <= 1:
            raise ConfigError(f"params.{name} must lie in [0, 1]")
        if value < 0:
            raise ConfigError(f"params.{name} must be nonnegative")
    resolved = {}
    for name, rel in cfg.profile_overrides.items():
        candidate = Path(rel)
        if not candidate.is_absolute():
            candidate = base / candidate
        if not candidate.is_file():
            raise ConfigError(f"params.{name}: referenced file does not exist: {candidate}")
        resolved[name] = str(candidate)
    cfg.profile_overrides = resolved

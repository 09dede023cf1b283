"""Scenario orchestration and file emission.

Builds the model from a ScenarioConfig, sweeps the initial conditions,
and writes the CSV products:
  - r0.csv                      r_a,r_i,prefactor,r0,beta_star
  - run_d<label>.csv            t,S,V,E,A,I,R,N,beta,eps,alpha,iota
  - snapshot_d<label>_t<..>.csv theta,e,a,i
  - volterra_d<label>.csv       t,beta,eps,alpha,iota,S,V
  - oracle_compare_d<label>.csv t,beta_pde,beta_volterra,rel_dev
  - lyapunov_d<label>.csv       t,L,dL_estimate,violation_flag

Every config, from a file or built in code, is judged before anything is
written: the grid, parameters, step plan, oracle window, steady state,
initial states and Lyapunov seed verdicts are built first, each by the
library code that reads the values, and a refusal there is one ConfigError
naming the config keys of that build (a StabilityError passes as it is).

Each initial condition is simulated once; the oracle window is a prefix of
that pass's per-step force of infection, and the Lyapunov series comes from
its observer, the evaluator that judged the seeds.

Runs execute sequentially in d-order, and identical configs give
byte-identical files on one machine at one BLAS thread count: the kernel
and dot products go through BLAS, which splits its sums by thread, so at
another thread count (`OPENBLAS_NUM_THREADS`) the run, oracle and
comparison files differ by round-off.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from sveair import diagnostics, reproduction, scenarios, volterra
from sveair.config import ScenarioConfig
from sveair.errors import (
    AbortedRunError, ConfigError, InvalidGridError, LyapunovDomainError, ParameterError,
    ProfileError,
)
from sveair.grid import AgeGrid, build_grid, constant_profile, load_profile_csv
from sveair.io import format_column, format_value, write_csv
from sveair.params import PROFILE_UNITS, ParameterSet
from sveair.solver import State, simulate, step_plan


@contextmanager
def _refusals_name(keys: str = ""):
    """Re-raise a library refusal in the block as a ConfigError led by the
    config `keys`; without keys, the library message names the key."""
    try:
        yield
    except (InvalidGridError, ProfileError, ParameterError) as exc:
        raise ConfigError(f"{keys}: {exc}" if keys else str(exc)) from exc


def build_model(cfg: ScenarioConfig) -> tuple[AgeGrid, ParameterSet]:
    """Grid and parameter set for a config; a refusal is a ConfigError
    naming the grid keys, or every `params.*` key the config sets."""
    with _refusals_name("grid.h, grid.theta_max"):
        grid = build_grid(cfg.h, cfg.theta_max)
    keys = [f"params.{name}" for name in (*cfg.scalar_overrides, *cfg.profile_overrides)]
    with _refusals_name(", ".join(keys) or "scenario.builtin"):
        overrides = {}
        for name, value in cfg.scalar_overrides.items():
            units = PROFILE_UNITS.get(name)
            overrides[name] = value if units is None else constant_profile(grid, value, units)
        for key, path in cfg.profile_overrides.items():
            name = key.removesuffix("_csv")
            overrides[name] = load_profile_csv(path, grid, PROFILE_UNITS[name])
        return grid, scenarios.builtin_scenario(cfg.builtin, grid, **overrides)


def _d_label(d: float) -> str:
    return format_value(d).replace("+", "")


def initial_states(
    cfg: ScenarioConfig,
    params: ParameterSet,
    steady: reproduction.SteadyState,
) -> list[tuple[str, State]]:
    """(label, State) pairs for the configured sweep; labels name files, so
    must differ. A refusal is a ConfigError naming the `init.*` keys the
    mode reads: none in steady mode, `init.band` only in band mode."""
    if cfg.init_mode == "steady":
        return [("steady", scenarios.steady_initial_state(steady))]
    labels = [_d_label(d) for d in cfg.d_list]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"init.d_list lists d = {label} more than once; "
                              f"every value writes its own run_d{label}.csv")
    band = cfg.init_mode == "band"
    keys = "init.mode, init.s0, init.v0, init.d_list" + (", init.band" if band else "")
    with _refusals_name(keys):
        return [(label, scenarios.band_initial_state(params, cfg.s0, cfg.v0, d, cfg.band)
                 if band else
                 scenarios.steady_scaled_initial_state(params, steady, cfg.s0, cfg.v0, d))
                for label, d in zip(labels, cfg.d_list)]


@dataclass(frozen=True)
class RunSummary:
    label: str
    final_metric: float
    balance_error: float
    aborted: bool


@dataclass(frozen=True)
class ExitReport:
    breakdown: reproduction.R0Breakdown
    beta_star: float
    runs: tuple
    ok: bool

    def lines(self) -> list[str]:
        bd = self.breakdown
        out = [
            f"r0 = {bd.r0:.6g} (r_a={bd.r_a:.6g}, r_i={bd.r_i:.6g}, "
            f"prefactor={bd.prefactor:.6g})",
            f"beta* = {self.beta_star:.6g}",
        ]
        for run in self.runs:
            status = "ABORTED" if run.aborted else "ok"
            out.append(
                f"run d={run.label}: {status} balance_error={run.balance_error:.3g} "
                f"final_convergence_metric={run.final_metric:.6g}"
            )
        return out


def write_r0_csv(out_dir: Path, breakdown: reproduction.R0Breakdown, beta_star: float) -> None:
    write_csv(
        out_dir / "r0.csv",
        ["r_a", "r_i", "prefactor", "r0", "beta_star"],
        [np.array([breakdown.r_a]), np.array([breakdown.r_i]),
         np.array([breakdown.prefactor]), np.array([breakdown.r0]),
         np.array([beta_star])],
    )


def _write_timeseries(path: Path, ts) -> None:
    write_csv(
        path,
        ["t", "S", "V", "E", "A", "I", "R", "N", "beta", "eps", "alpha", "iota"],
        [ts.t, ts.s, ts.v, ts.e, ts.a, ts.i, ts.r, ts.n, ts.beta, ts.eps, ts.alpha, ts.iota],
    )


def _oracle_compare(out_dir: Path, label: str, init: State, params, window, result) -> None:
    """PDE vs renewal-march force of infection over the oracle window."""
    path = volterra.solve_renewal(init, params, t_max=window)
    write_csv(
        out_dir / f"volterra_d{label}.csv",
        ["t", "beta", "eps", "alpha", "iota", "S", "V"],
        [path.t, path.beta, path.eps, path.alpha, path.iota, path.s, path.v],
    )
    beta_pde = result.beta_steps[:path.beta.size]
    scale = float(np.max(path.beta))
    rel_dev = np.abs(beta_pde - path.beta) / (scale if scale > 0 else 1.0)
    write_csv(
        out_dir / f"oracle_compare_d{label}.csv",
        ["t", "beta_pde", "beta_volterra", "rel_dev"],
        [path.t, beta_pde, path.beta, rel_dev],
    )


def _write_lyapunov(out_dir: Path, label: str, times: list, values: list) -> None:
    times, values = np.asarray(times), np.asarray(values)
    report = diagnostics.monotonicity_check(values, times)
    flags = np.zeros(values.size)
    for idx, *_rest in report.intervals:
        flags[idx + 1] = 1.0
    dl = np.zeros(values.size)
    if values.size > 1:
        dl[1:] = np.diff(values) / np.diff(times)
    write_csv(
        out_dir / f"lyapunov_d{label}.csv",
        ["t", "L", "dL_estimate", "violation_flag"],
        [times, values, dl, flags],
    )


def _check_seed(evaluator: diagnostics.LyapunovEvaluator, mode: str, label: str,
                init: State) -> None:
    """Evaluate L once on a seed, so that a seed outside its domain stops
    the sweep before any pass, with a ConfigError naming the key."""
    try:
        evaluator(init.s, init.v, init.e.values, init.a.values, init.i.values)
    except LyapunovDomainError as exc:
        if exc.scalars:
            raise ConfigError(f"{exc} (init.s0, init.v0)") from exc
        raise ConfigError(f"init.d_list: the {mode} seed d = {label} is outside "
                          f"the Lyapunov domain: {exc}") from exc


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> ExitReport:
    """Judge a scenario, then execute it end to end, writing all configured
    products. A refused config raises before the output directory is made."""
    grid, params = build_model(cfg)
    with _refusals_name():
        step_plan(grid, cfg.t_max, cfg.sample_every, cfg.snapshot_times,
                  ("run.t_max", "run.sample_every", "run.snapshot_times"))
        window = min(cfg.oracle_t_max, cfg.t_max)
        if cfg.run_oracle:
            volterra.march_steps(grid, window, "run.oracle_t_max")
    breakdown, steady = reproduction.matching_steady_state(params)
    evaluator = diagnostics.LyapunovEvaluator(params, steady) if cfg.run_lyapunov else None
    states = initial_states(cfg, params, steady)
    if evaluator is not None:
        for label, init in states:
            _check_seed(evaluator, cfg.init_mode, label, init)

    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_r0_csv(out, breakdown, steady.beta_star)
    if cfg.r0_only:
        return ExitReport(breakdown=breakdown, beta_star=steady.beta_star, runs=(), ok=True)

    # The age column of every snapshot of every mass, formatted at the first.
    theta = cache(lambda: format_column(grid.nodes))
    summaries = []
    ok = True
    for label, init in states:
        times, values = [], []
        try:
            result = simulate(
                init, params, t_max=cfg.t_max, sample_every=cfg.sample_every,
                snapshot_times=cfg.snapshot_times,
                observer=evaluator.observer(times, values) if evaluator is not None else None,
            )
        except AbortedRunError:
            summaries.append(RunSummary(label, float("nan"), float("nan"), True))
            ok = False
            continue
        _write_timeseries(out / f"run_d{label}.csv", result.timeseries)
        # Each snapshot file is named after its requested time, not the step
        # time n * h: 3 * 0.1 is 0.30000000000000004. Every initial state
        # starts at t = 0.
        for snap in result.timeseries.snapshots:
            write_csv(out / f"snapshot_d{label}_t{format_value(snap.t)}.csv",
                      ["theta", "e", "a", "i"], [theta(), snap.e, snap.a, snap.i])
        if cfg.run_oracle:
            _oracle_compare(out, label, init, params, window, result)
        if evaluator is not None:
            _write_lyapunov(out, label, times, values)
        summaries.append(RunSummary(
            label=label,
            final_metric=diagnostics.convergence_metric(result.final_state, steady, params.n0),
            balance_error=result.timeseries.balance_error(params.n0),
            aborted=False,
        ))
    return ExitReport(
        breakdown=breakdown, beta_star=steady.beta_star, runs=tuple(summaries), ok=ok
    )

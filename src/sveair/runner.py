"""Scenario orchestration and file emission.

Builds the model from a ScenarioConfig, sweeps the initial conditions,
and writes the CSV products:
  - r0.csv                      r_a,r_i,prefactor,r0,beta_star
  - run_d<label>.csv            t,S,V,E,A,I,R,N,beta,eps,alpha,iota
  - snapshot_d<label>_t<..>.csv theta,e,a,i
  - volterra_d<label>.csv       t,beta,eps,alpha,iota,S,V
  - oracle_compare_d<label>.csv t,beta_pde,beta_volterra,rel_dev
  - lyapunov_d<label>.csv       t,L,dL_estimate,violation_flag

Each initial condition is simulated once; the oracle window is a prefix of
that pass's per-step force of infection, and the Lyapunov series comes from
its observer, an evaluator built once per scenario.

Runs execute sequentially in d-order; all sums have fixed order, so
identical configs give byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sveair import diagnostics, reproduction, scenarios, volterra
from sveair.config import ScenarioConfig, check_on_grid
from sveair.errors import AbortedRunError, ConfigError
from sveair.grid import AgeGrid, Units, build_grid, constant_profile, load_profile_csv
from sveair.io import format_value, write_csv
from sveair.params import ParameterSet
from sveair.solver import State, simulate


def build_model(cfg: ScenarioConfig) -> tuple[AgeGrid, ParameterSet]:
    """Grid and parameter set for a validated config."""
    grid = build_grid(cfg.h, cfg.theta_max)
    overrides = {}
    for name, value in cfg.scalar_overrides.items():
        if name in ("q", "xi"):
            overrides[name] = constant_profile(grid, value, Units.PROPORTION)
        elif name in ("gamma_a", "gamma_i"):
            overrides[name] = constant_profile(grid, value, Units.RATE)
        else:
            overrides[name] = value
    units_by_field = {
        "q_csv": ("q", Units.PROPORTION),
        "k_csv": ("k", Units.RATE),
        "chi_csv": ("chi", Units.RATE),
        "beta_a_csv": ("beta_a", Units.TRANSMISSION),
        "beta_i_csv": ("beta_i", Units.TRANSMISSION),
    }
    for key, path in cfg.profile_overrides.items():
        field_name, units = units_by_field[key]
        overrides[field_name] = load_profile_csv(path, grid, units)
    return grid, scenarios.builtin_scenario(cfg.builtin, grid, **overrides)


def _d_label(d: float) -> str:
    return format_value(d).replace("+", "")


def initial_states(
    cfg: ScenarioConfig,
    params: ParameterSet,
    steady: reproduction.SteadyState,
) -> list[tuple[str, State]]:
    """(label, State) pairs for the configured sweep."""
    if cfg.init_mode == "steady":
        return [("steady", scenarios.steady_initial_state(steady))]
    pairs = []
    for d in cfg.d_list:
        label = _d_label(d)
        if cfg.init_mode == "band":
            state = scenarios.band_initial_state(params, cfg.s0, cfg.v0, d, cfg.band)
        else:
            state = scenarios.steady_scaled_initial_state(params, steady, cfg.s0, cfg.v0, d)
        pairs.append((label, state))
    return pairs


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
            f"prefactor={bd.prefactor:.6g}; "
            f"truncation tail < 1e{math.ceil(bd.log10_truncation_tail)})",
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


def _write_snapshots(out_dir: Path, label: str, ts) -> None:
    for snap in ts.snapshots:
        name = f"snapshot_d{label}_t{format_value(snap.t)}.csv"
        write_csv(out_dir / name, ["theta", "e", "a", "i"],
                  [snap.theta, snap.e, snap.a, snap.i])


def _oracle_compare(out_dir: Path, label: str, init: State, params, window, result) -> None:
    """PDE vs renewal-march force of infection over the oracle window."""
    path = volterra.solve_renewal(init, params, t_max=window)
    write_csv(
        out_dir / f"volterra_d{label}.csv",
        ["t", "beta", "eps", "alpha", "iota", "S", "V"],
        [path.t, path.beta, path.eps, path.alpha, path.iota, path.s, path.v],
    )
    beta_pde = result.beta_steps[:int(round(window / params.grid.h)) + 1]
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


# Published reference values for the two Table-2 scenarios and the bands
# the labeling check uses: the endemic value within 10 percent, the
# disease-free value below 1e-3.
REFERENCE_R0_ENDEMIC = 9.14
REFERENCE_R0_ENDEMIC_RTOL = 0.10
REFERENCE_R0_DFE = 5.95e-5
DFE_R0_CEILING = 1e-3


@dataclass(frozen=True)
class LabelingOutcome:
    name: str
    r0_c1: float
    r0_c2: float

    @property
    def c1_ok(self) -> bool:
        return self.r0_c1 <= DFE_R0_CEILING

    @property
    def c2_ok(self) -> bool:
        return abs(self.r0_c2 - REFERENCE_R0_ENDEMIC) <= REFERENCE_R0_ENDEMIC_RTOL * REFERENCE_R0_ENDEMIC

    @property
    def ok(self) -> bool:
        return self.c1_ok and self.c2_ok


def contact_labeling_outcomes(h: float = 0.05, theta_max: float = scenarios.THETA_MAX_DEFAULT):
    """r0 under both readings of the contact-function labels.

    The printed formulas center c1 at age 80 and c2 at age 10; the figure
    caption says the opposite. Both assignments are evaluated against the
    published pair (endemic 9.14, disease-free 5.95e-5).
    """
    grid = build_grid(h, theta_max)
    r0_by_center = {}
    for contact, center_years in (("c1", 80), ("c2", 10)):
        params = scenarios.build_parameters(grid, contact=contact)
        r0_by_center[center_years] = reproduction.compute_R0(params).r0
    return (
        LabelingOutcome("formula (c1 centered at 80y, c2 at 10y)",
                        r0_c1=r0_by_center[80], r0_c2=r0_by_center[10]),
        LabelingOutcome("caption (c1 centered at 10y, c2 at 80y)",
                        r0_c1=r0_by_center[10], r0_c2=r0_by_center[80]),
    )


def write_contact_labeling_report(path, outcomes=None) -> bool:
    """Signed discrepancy report for the contact-labeling check.

    Returns True when some labeling matches both published values; when
    none does, the report records the signed deviations for each labeling.
    """
    outcomes = contact_labeling_outcomes() if outcomes is None else outcomes
    any_ok = any(out.ok for out in outcomes)
    lines = [
        "contact-function labeling check against the published r0 pair",
        f"targets: endemic scenario r0 = {REFERENCE_R0_ENDEMIC} "
        f"(+/- {REFERENCE_R0_ENDEMIC_RTOL:.0%}), disease-free scenario "
        f"r0 <= {DFE_R0_CEILING} (published {REFERENCE_R0_DFE})",
        "",
    ]
    for out in outcomes:
        dev_c2 = (out.r0_c2 - REFERENCE_R0_ENDEMIC) / REFERENCE_R0_ENDEMIC
        dev_c1 = out.r0_c1 - REFERENCE_R0_DFE
        lines.append(f"labeling: {out.name}")
        lines.append(f"  r0_c2 = {format_value(out.r0_c2)}  signed relative deviation "
                     f"from {REFERENCE_R0_ENDEMIC}: {dev_c2:+.4%}  -> {'ok' if out.c2_ok else 'MISMATCH'}")
        lines.append(f"  r0_c1 = {format_value(out.r0_c1)}  signed deviation from "
                     f"{format_value(REFERENCE_R0_DFE)}: {dev_c1:+.6g}  "
                     f"(ceiling {DFE_R0_CEILING}) -> {'ok' if out.c1_ok else 'MISMATCH'}")
    lines.append("")
    if any_ok:
        lines.append("verdict: a labeling reproduces the published pair")
    else:
        lines.append(
            "verdict: no labeling reproduces both published values; with "
            "equal-width mean-16.71 Gaussian contacts the ratio between the "
            "two scenarios' r0 is fixed near exp(8.16) ~ 3.5e3 for any "
            "asymptomatic-proportion data, while the published pair implies "
            "1.5e5; recorded as a non-blocking discrepancy"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return any_ok


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> ExitReport:
    """Execute a scenario end to end, writing all configured products."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid, params = build_model(cfg)
    breakdown, steady = reproduction.matching_steady_state(params)
    write_r0_csv(out, breakdown, steady.beta_star)
    if cfg.r0_only:
        return ExitReport(breakdown=breakdown, beta_star=steady.beta_star, runs=(), ok=True)

    if cfg.init_mode == "steady-scaled" and steady.kind != reproduction.ENDEMIC:
        raise ConfigError("init.mode=steady-scaled requires an endemic scenario (r0 > 1)")
    if cfg.run_lyapunov and steady.kind == reproduction.ENDEMIC and cfg.init_mode == "band":
        raise ConfigError(
            "the endemic Lyapunov function is infinite for band-seeded initial data "
            "(zero density at weighted ages); use init.mode=steady-scaled"
        )
    window = min(cfg.oracle_t_max, cfg.t_max)
    if cfg.run_oracle:
        if window > volterra.T_MAX_CAP:
            raise ConfigError(f"run.oracle_t_max: the oracle window of {window:g} days "
                              f"exceeds the renewal-march cap of {volterra.T_MAX_CAP:g} days")
        # The march takes round(window / h) steps.
        check_on_grid("run.oracle_t_max", window, cfg.h)

    evaluator = diagnostics.LyapunovEvaluator(params, steady) if cfg.run_lyapunov else None

    summaries = []
    ok = True
    for label, init in initial_states(cfg, params, steady):
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
        _write_snapshots(out, label, result.timeseries)
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

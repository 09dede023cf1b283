"""Acceptance criteria, one test per criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the verdict lines
as the criteria complete. The heavy 1500-day Table-2 sweeps are shared
through module-scoped fixtures.

Documented deviation (see the endemic-Lyapunov test's docstring): the
endemic monotonicity check runs along strictly positive steady-profile
initial data about the scheme's own fixed point.
"""

import numpy as np
import pytest

from conftest import (
    analytic_prefactor,
    analytic_RA,
    analytic_RI,
    bisect_beta_star,
    make_constant_params,
)
from contact_labeling import (
    DFE_R0_CEILING,
    REFERENCE_R0_ENDEMIC,
    REFERENCE_R0_ENDEMIC_RTOL,
    contact_labeling_outcomes,
    write_contact_labeling_report,
)
from sveair import diagnostics as dg
from sveair import reproduction as rep
from sveair import scenarios as sc
from sveair import volterra as vo
from sveair.grid import AgeProfile, Units, build_grid
from sveair.solver import State, simulate

DESK_H = 0.5
THETA_MAX = sc.THETA_MAX_DEFAULT
D_SWEEP = sc.D_SWEEP_DEFAULT


def verdict(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def desk_c1():
    grid = build_grid(DESK_H, THETA_MAX)
    params = sc.builtin_scenario("table2-c1", grid)
    breakdown, steady = rep.matching_steady_state(params)
    return params, breakdown, steady


@pytest.fixture(scope="module")
def desk_c2():
    grid = build_grid(DESK_H, THETA_MAX)
    params = sc.builtin_scenario("table2-c2", grid)
    breakdown, steady = rep.matching_steady_state(params)
    return params, breakdown, steady


def _band_sweep(params):
    results = {}
    for d in D_SWEEP:
        init = sc.band_initial_state(params, sc.S0_DEFAULT, sc.V0_DEFAULT, d)
        results[d] = simulate(init, params, t_max=1500.0, sample_every=1.0)
    return results


@pytest.fixture(scope="module")
def c1_sweep(desk_c1):
    return _band_sweep(desk_c1[0])


@pytest.fixture(scope="module")
def c2_sweep(desk_c2):
    return _band_sweep(desk_c2[0])


def test_criterion_1_r0_closed_form_equivalence():
    """100 random constant-rate instances at h=0.05 match the analytic R0
    within 1e-10 relative."""
    grid = build_grid(0.05, THETA_MAX)
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(100):
        draw = dict(
            n0=10 ** rng.uniform(6, 8),
            mu=rng.uniform(2e-5, 1e-4),
            p=rng.uniform(0.0, 5e-3),
            epsilon=rng.uniform(0.0, 1.0),
            zeta=rng.uniform(0.0, 0.1),
            beta_a=rng.uniform(0.0, 5e-9),
            beta_i=rng.uniform(0.0, 5e-9),
            k=rng.uniform(0.01, 0.07),
            q=rng.uniform(0.0, 1.0),
            xi=rng.uniform(0.0, 1.0),
            chi=rng.uniform(0.01, 0.07),
            gamma_a=rng.uniform(0.01, 0.07),
            gamma_i=rng.uniform(0.01, 0.07),
        )
        params = make_constant_params(grid, **draw)
        got = rep.compute_R0(params).r0
        pref = analytic_prefactor(draw["n0"], draw["mu"], draw["p"],
                                  draw["epsilon"], draw["zeta"])
        r_a = analytic_RA(draw["k"], draw["q"], draw["mu"], draw["beta_a"],
                          draw["gamma_a"], draw["xi"], draw["chi"])
        r_i = analytic_RI(draw["k"], draw["q"], draw["mu"], draw["beta_i"],
                          draw["gamma_a"], draw["gamma_i"], draw["xi"], draw["chi"])
        expected = pref * (r_a + r_i)
        if expected > 0:
            worst = max(worst, abs(got - expected) / expected)
    verdict(1, "r0 closed-form equivalence", worst <= 1e-10,
            f"worst relative error {worst:.3e} over 100 draws (tolerance 1e-10)")


def test_criterion_2_published_r0_values(tmp_path):
    """Soft, recorded: both contact labelings against the published pair;
    on mismatch the signed discrepancy report is the required artifact."""
    outcomes = contact_labeling_outcomes(h=0.05)
    matched = any(out.ok for out in outcomes)
    report_path = tmp_path / "contact_labeling_report.txt"
    write_contact_labeling_report(report_path, outcomes)
    summary = "; ".join(
        f"{out.name}: r0_c1={out.r0_c1:.4g}, r0_c2={out.r0_c2:.4g}" for out in outcomes
    )
    if matched:
        verdict(2, "published r0 values", True, f"matched: {summary}")
        return
    text = report_path.read_text()
    recorded = "signed relative deviation" in text and "verdict" in text
    endemic_close = any(
        abs(out.r0_c2 - REFERENCE_R0_ENDEMIC) <= REFERENCE_R0_ENDEMIC_RTOL * REFERENCE_R0_ENDEMIC
        for out in outcomes
    )
    verdict(2, "published r0 values", recorded,
            f"no labeling satisfies both targets (dfe ceiling {DFE_R0_CEILING}); "
            f"endemic value within 10%: {endemic_close}; discrepancy report "
            f"emitted (non-blocking per the contact-function ambiguity): {summary}")


def test_criterion_3_beta_star_root_law():
    """1000 random draws: zero root iff r0 <= 1; the positive root satisfies
    the quadratic to 1e-9|b0| and matches bisection to 1e-9 relative."""
    grid = build_grid(0.25, 2000.0)
    rng = np.random.default_rng(42)
    checked_positive = 0
    for trial in range(1000):
        epsilon = 1.0 if trial % 25 == 0 else rng.uniform(0.0, 1.0)
        base = dict(
            n0=10 ** rng.uniform(5, 8),
            mu=rng.uniform(2e-5, 2e-4),
            p=rng.uniform(0.0, 5e-3),
            epsilon=epsilon,
            zeta=rng.uniform(0.0, 0.2),
            k=rng.uniform(0.02, 0.3),
            q=rng.uniform(0.0, 1.0),
            xi=rng.uniform(0.0, 1.0),
            chi=rng.uniform(0.0, 0.2),
            gamma_a=rng.uniform(0.02, 0.3),
            gamma_i=rng.uniform(0.02, 0.3),
        )
        probe = make_constant_params(grid, beta_a=1e-9, beta_i=1e-9, **base)
        bd_probe = rep.compute_R0(probe)
        target_r0 = 10 ** rng.uniform(-1.5, 1.5)
        scale = target_r0 / bd_probe.r0
        params = make_constant_params(grid, beta_a=1e-9 * scale, beta_i=1e-9 * scale, **base)
        breakdown = rep.compute_R0(params)
        beta_star = rep.solve_beta_star(params)
        r_sum = breakdown.r_a + breakdown.r_i
        if breakdown.r0 <= 1.0:
            assert beta_star == 0.0, f"nonzero root at r0={breakdown.r0}"
            continue
        assert beta_star > 0.0, f"zero root at r0={breakdown.r0}"
        checked_positive += 1
        b2, b1, b0 = rep.quadratic_coefficients(params, r_sum)
        residual = abs(b2 * beta_star**2 + b1 * beta_star + b0)
        assert residual <= 1e-9 * abs(b0), f"quadratic residual {residual:.3e}"
        oracle = bisect_beta_star(r_sum, base["n0"], base["mu"], base["p"],
                                  base["epsilon"], base["zeta"])
        assert beta_star == pytest.approx(oracle, rel=1e-9)
    verdict(3, "beta* root law", checked_positive > 200,
            f"1000 draws, {checked_positive} supercritical roots verified "
            "against the quadratic and the bisection oracle")


def test_criterion_4_steady_state_fixed_point():
    """Endemic steady state stepped for 250 days drifts by
    convergence_metric < 1e-14 at h=0.25 and at h=0.125: it is the scheme's
    own fixed point."""
    drifts = {}
    for h, n_steps in ((0.25, 1000), (0.125, 2000)):
        grid = build_grid(h, THETA_MAX)
        params = sc.builtin_scenario("table2-c2", grid)
        _, steady = rep.matching_steady_state(params)
        result = simulate(sc.steady_initial_state(steady), params,
                          t_max=n_steps * h, sample_every=n_steps * h)
        drifts[h] = dg.convergence_metric(result.final_state, steady, params.n0)
    verdict(4, "steady-state fixed point", max(drifts.values()) < 1e-14,
            f"drift(h=0.25)={drifts[0.25]:.3e}, drift(h=0.125)={drifts[0.125]:.3e} "
            "(bound 1e-14)")


def test_criterion_5_conservation(desk_c1, desk_c2, c1_sweep, c2_sweep):
    """Explicit-recovered balance within 1e-3 of N0 on every shipped run at
    h=0.5; the error halves with h up to a round-off floor (the scheme is
    exactly conservative, see the decisions ledger)."""
    n0 = sc.N0
    worst = 0.0
    for sweep in (c1_sweep, c2_sweep):
        for d, result in sweep.items():
            err = result.timeseries.balance_error(n0)
            worst = max(worst, err)
            assert err <= 1e-3, f"balance {err:.3e} at d={d}"
    halved = {}
    for name in ("table2-c1", "table2-c2"):
        errs = {}
        for h in (0.5, 0.25):
            grid = build_grid(h, THETA_MAX)
            params = sc.builtin_scenario(name, grid)
            init = sc.band_initial_state(params, sc.S0_DEFAULT, sc.V0_DEFAULT, 1e6)
            errs[h] = simulate(init, params, t_max=1500.0,
                               sample_every=1.0).timeseries.balance_error(n0)
        halved[name] = errs[0.25] <= max(0.6 * errs[0.5], 1e-10)
    verdict(5, "conservation", worst <= 1e-3 and all(halved.values()),
            f"worst balance error {worst:.3e} (bound 1e-3); halving-with-floor "
            f"checks: {halved}")


def test_criterion_6_global_stability_shadow(desk_c1, desk_c2, c1_sweep, c2_sweep,
                                             tmp_path):
    """c1 sweep dies out (E+A+I < 1 at t=1500 for all d); c2 sweep lands
    within 5% of the endemic steady state with an oscillatory A(t); each
    sweep emits its five per-seed time-series CSVs."""
    from sveair.runner import _d_label, _write_timeseries

    details = []
    ok = True
    for scenario, sweep in (("c1", c1_sweep), ("c2", c2_sweep)):
        for d, result in sweep.items():
            _write_timeseries(
                tmp_path / scenario / f"run_d{_d_label(d)}.csv", result.timeseries
            )
        ok &= len(list((tmp_path / scenario).glob("run_d*.csv"))) == 5
    for d, result in c1_sweep.items():
        ts = result.timeseries
        final_infected = ts.e[-1] + ts.a[-1] + ts.i[-1]
        ok &= final_infected < 1.0
        details.append(f"c1 d={d:g}: E+A+I(1500)={final_infected:.3g}")
    _, _, steady_c2 = desk_c2
    params_c2 = desk_c2[0]
    for d, result in c2_sweep.items():
        metric = dg.convergence_metric(result.final_state, steady_c2, params_c2.n0)
        a_trace = result.timeseries.a
        signs = np.sign(a_trace - a_trace[-1])
        crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
        ok &= metric <= 0.05 and crossings >= 2
        details.append(f"c2 d={d:g}: metric={metric:.3e}, A-crossings={crossings}")
    verdict(6, "global-stability shadow", ok, "; ".join(details))


def test_criterion_7_oracle_equivalence(desk_c2):
    """Force of infection from the solver and the renewal march agree
    within 2% over [0, 200] days at h=0.5 from the endemic steady state
    (see the ledger on the initial-condition choice), shrinking with h."""
    devs = {}
    for h in (0.5, 0.25):
        grid = build_grid(h, THETA_MAX)
        params = sc.builtin_scenario("table2-c2", grid)
        _, steady = rep.matching_steady_state(params)
        init = sc.steady_initial_state(steady)
        path = vo.solve_renewal(init, params, t_max=200.0)
        pde = simulate(init, params, t_max=200.0, sample_every=h)
        devs[h] = float(np.max(np.abs(pde.timeseries.beta - path.beta) / path.beta))
    ratio = devs[0.25] / devs[0.5]
    verdict(7, "oracle equivalence", devs[0.5] <= 0.02 and ratio <= 0.65,
            f"max relative deviation {devs[0.5]:.4f} at h=0.5 (bound 0.02), "
            f"{devs[0.25]:.4f} at h=0.25, ratio {ratio:.3f}")


def _lyapunov_series(evaluator, init, params, t_max):
    """(times, L) along one pass observed by an evaluator built once per leg."""
    times, values = [], []
    simulate(init, params, t_max, observer=evaluator.observer(times, values))
    return np.asarray(times), np.asarray(values)


def test_criterion_8_lyapunov_monotonicity(desk_c1, desk_c2):
    """Zero monotonicity violations along both scenarios, over the full
    window of every run.

    Disease-free leg: as specified (shipped band sweep, closed-form steady
    state, default tolerance).

    Endemic leg (documented deviation, see decisions ledger): the shipped
    band initial data give an infinite endemic Lyapunov value (zero density
    at weighted ages for every t < 20 years), so the monitor runs
    steady-profile-scaled positive seeds with the sweep masses, S and V at
    their steady values, about the evaluator's reference (the scheme's own
    fixed point).
    """
    params_c1, _, steady_c1 = desk_c1
    evaluator_c1 = dg.LyapunovEvaluator(params_c1, steady_c1)
    details = []
    ok = True
    for d in D_SWEEP:
        init = sc.band_initial_state(params_c1, sc.S0_DEFAULT, sc.V0_DEFAULT, d)
        times, values = _lyapunov_series(evaluator_c1, init, params_c1, 1500.0)
        report = dg.monotonicity_check(values, times)
        ok &= report.n_violations == 0
        details.append(f"c1 d={d:g}: {report.n_violations} violations")

    params_c2, _, steady_c2 = desk_c2
    evaluator_c2 = dg.LyapunovEvaluator(params_c2, steady_c2)
    reference = evaluator_c2.steady
    for d in D_SWEEP:
        init = sc.steady_scaled_initial_state(
            params_c2, reference, reference.s_star, reference.v_star, d
        )
        times, values = _lyapunov_series(evaluator_c2, init, params_c2, 1500.0)
        report = dg.monotonicity_check(values, times)
        ok &= report.n_violations == 0
        details.append(f"c2 d={d:g}: {report.n_violations} violations")
    verdict(8, "Lyapunov monotonicity", ok, "; ".join(details))


def test_criterion_9_nonnegativity(desk_c2):
    """50 random nonnegative initial conditions at h=0.25: no negative
    sample anywhere."""
    grid = build_grid(0.25, THETA_MAX)
    params = sc.builtin_scenario("table2-c2", grid)
    rng = np.random.default_rng(99)
    worst_min = np.inf
    for _ in range(50):
        shapes = []
        for _ in range(3):
            lo = rng.uniform(0.0, 20000.0)
            width = rng.uniform(500.0, 12000.0)
            mass = 10 ** rng.uniform(0, 5)
            values = np.zeros(grid.n_nodes)
            mask = (grid.nodes >= lo) & (grid.nodes < lo + width)
            values[mask] = mass / (grid.h * mask.sum())
            values *= rng.uniform(0.5, 1.5, grid.n_nodes) * mask
            shapes.append(AgeProfile(grid, values, Units.DENSITY))
        init = State(t=0.0, s=rng.uniform(0.0, 2e6), v=rng.uniform(0.0, 2e6),
                     e=shapes[0], a=shapes[1], i=shapes[2])
        result = simulate(init, params, t_max=40.0, sample_every=1.0)
        ts = result.timeseries
        worst_min = min(
            worst_min,
            ts.s.min(), ts.v.min(), ts.e.min(), ts.a.min(), ts.i.min(),
            result.final_state.e.values.min(),
            result.final_state.a.values.min(),
            result.final_state.i.values.min(),
        )
    verdict(9, "nonnegativity", worst_min >= 0.0, f"min sample value {worst_min:.3g}")

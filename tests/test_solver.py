"""Explicit characteristic-scheme stepper."""

import contextlib
import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (band_density, make_constant_params, rate_profile, snapshot_recorder,
                      with_last_node_k, zero_density)
from sveair import reproduction as rep
from sveair import scenarios, solver
from sveair.errors import AbortedRunError, ParameterError, StabilityError
from shift_reference import simulate_shift
from sveair.grid import (AgeGrid, AgeProfile, Units, block_products, build_grid,
                         constant_profile, scheme_factors)
from sveair.params import ParameterSet
from sveair.scenarios import steady_initial_state
from sveair.solver import State, simulate
from sveair.diagnostics import convergence_metric


def empty_state(grid, s=1000.0, v=500.0):
    zero = zero_density(grid)
    return State(t=0.0, s=s, v=v, e=zero, a=zero, i=zero)


def one_step(state, params):
    """A run of one step of size h: its samples at t = 0 and t = h and its final state."""
    h = params.grid.h
    return simulate(state, params, t_max=h, sample_every=h)


class TestFunctionals:
    def test_zero_densities(self, small_grid, small_params):
        ts = one_step(empty_state(small_grid), small_params).timeseries
        assert ts.beta[0] == 0.0
        assert (ts.eps[0], ts.alpha[0], ts.iota[0]) == (0.0, 0.0, 0.0)

    def test_constant_weights_pull_out(self, small_grid, small_params):
        # With constant transmission profiles, beta = b_a*A + b_i*I.
        a = band_density(small_grid, 10.0, 60.0, 123.0)
        i = band_density(small_grid, 5.0, 80.0, 456.0)
        state = State(t=0.0, s=1.0, v=1.0, e=zero_density(small_grid), a=a, i=i)
        expected = 1e-9 * 123.0 + 2e-9 * 456.0
        beta = one_step(state, small_params).timeseries.beta[0]
        assert beta == pytest.approx(expected, rel=1e-12)

    def test_iota_bracket_structure(self, small_grid):
        # With q = 1 the latent outflow feeds only the asymptomatic route.
        params = make_constant_params(small_grid, q=1.0)
        e = band_density(small_grid, 10.0, 50.0, 10.0)
        state = State(t=0.0, s=1.0, v=1.0, e=e, a=zero_density(small_grid),
                      i=zero_density(small_grid))
        ts = one_step(state, params).timeseries
        assert ts.iota[0] == 0.0
        assert ts.alpha[0] > 0.0


# Cells of a random density: mostly exact zeros of either sign, else any
# nonnegative float, subnormals included.
_CELL = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 1e300))


class TestSupport:
    @given(columns=st.integers(1, 40).flatmap(
        lambda n: st.tuples(*[st.lists(_CELL, min_size=n, max_size=n)] * 3)))
    @example(columns=([0.0] * 5, [0.0] * 5, [-0.0] * 5))            # all zero
    @example(columns=([0.0, 0.0, 2.0, 0.0], [0.0] * 4, [0.0] * 4))  # one node
    @example(columns=([1.0], [0.0], [0.0]))                          # one-node grid
    @example(columns=([3.0, 0.0, 0.0], [0.0] * 3, [0.0, 0.0, 5e-324]))  # first and last
    @example(columns=([-0.0, 0.0, 1.0, -0.0], [-0.0] * 4, [0.0, 7.0, 0.0, -0.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_a_nonzero_scan(self, columns):
        # [first, last) runs from the first to one past the last node at
        # which any density is nonzero; -0.0 counts as zero.
        n = len(columns[0])
        grid = AgeGrid(h=1.0, theta_max=float(max(n - 1, 1)), n_nodes=n)
        e, a, i = (AgeProfile(grid, np.array(col), Units.DENSITY) for col in columns)
        first, last = State(t=0.0, s=1.0, v=1.0, e=e, a=a, i=i).support()
        nonzero = [j for j in range(n) if any(col[j] != 0.0 for col in columns)]
        if nonzero:
            assert (first, last) == (nonzero[0], nonzero[-1] + 1)
        else:
            assert first == last


class TestAggregate:
    def test_zero_densities(self, small_grid, small_params):
        ts = one_step(empty_state(small_grid, s=1000.0, v=500.0), small_params).timeseries
        assert ts.e[0] == ts.a[0] == ts.i[0] == 0.0
        assert ts.r[0] == small_params.n0 - 1500.0
        assert ts.n[0] == small_params.n0

    def test_constant_density_mass(self, small_grid, small_params):
        c = 3.25
        state = State(
            t=0.0, s=0.0, v=0.0,
            e=constant_profile(small_grid, c, Units.DENSITY),
            a=zero_density(small_grid), i=zero_density(small_grid),
        )
        exposed = one_step(state, small_params).timeseries.e[0]
        assert exposed == pytest.approx(c * small_grid.h * small_grid.n_nodes, rel=1e-14)


class TestStep:
    def test_scalar_relaxation_without_infection(self, small_grid):
        params = make_constant_params(small_grid, p=0.0)
        state = empty_state(small_grid, s=100.0, v=0.0)
        nxt = one_step(state, params).final_state
        h, mu, n0 = small_grid.h, params.mu, params.n0
        assert nxt.s == pytest.approx(100.0 + h * mu * (n0 - 100.0), rel=1e-15)
        assert nxt.t == state.t + h

    def test_pure_transport_of_point_mass(self, small_grid):
        # k = 0 and mu below the float resolution of (1 - h*mu): pure shift.
        params = make_constant_params(small_grid, k=0.0, mu=1e-300,
                                      beta_a=0.0, beta_i=0.0, chi=0.0,
                                      gamma_a=0.0, gamma_i=0.0)
        values = np.zeros(small_grid.n_nodes)
        values[7] = 42.0
        state = State(t=0.0, s=0.0, v=0.0,
                      e=AgeProfile(small_grid, values, Units.DENSITY),
                      a=zero_density(small_grid), i=zero_density(small_grid))
        nxt = one_step(state, params).final_state
        expected = np.zeros(small_grid.n_nodes)
        expected[8] = 42.0
        np.testing.assert_array_equal(nxt.e.values, expected)

    def test_oldest_node_mass_dropped(self, small_grid):
        params = make_constant_params(small_grid, k=0.0, mu=1e-300,
                                      beta_a=0.0, beta_i=0.0, chi=0.0,
                                      gamma_a=0.0, gamma_i=0.0)
        values = np.zeros(small_grid.n_nodes)
        values[-1] = 5.0
        state = State(t=0.0, s=0.0, v=0.0,
                      e=AgeProfile(small_grid, values, Units.DENSITY),
                      a=zero_density(small_grid), i=zero_density(small_grid))
        nxt = one_step(state, params).final_state
        np.testing.assert_array_equal(nxt.e.values, 0.0)

    def test_steady_state_single_step_drift(self, small_grid):
        params = make_constant_params(small_grid, beta_i=1e-6, n0=1e7)
        endemic = rep.steady_state(params, rep.solve_beta_star(params))
        state = steady_initial_state(endemic)
        drift = convergence_metric(one_step(state, params).final_state, endemic, params.n0)
        # The closed form is the scheme's own fixed point, so the drift is
        # round-off; criterion 4 and test_closed_form_is_stationary pin it.
        assert drift < 1e-4

    def test_stability_guard(self):
        grid = build_grid(0.5, 50.0)
        params = make_constant_params(grid, k=3.0)
        state = empty_state(grid)
        with pytest.raises(StabilityError):
            one_step(state, params)
        with pytest.raises(StabilityError):
            simulate(state, params, t_max=5.0)
        # h * (k + mu) is 1.25 at the last node only: the share that node
        # passes on out of the grid would be negative.
        with pytest.raises(StabilityError, match="reduce h below"):
            simulate(state, with_last_node_k(make_constant_params(grid), 2.5), t_max=5.0)


class TestSimulate:
    def test_disease_free_equilibrium_is_stationary(self, small_grid, small_params):
        free = rep.steady_state(small_params, 0.0)
        result = simulate(steady_initial_state(free), small_params, t_max=20.0)
        ts = result.timeseries
        np.testing.assert_allclose(ts.s, free.s_star, rtol=1e-12)
        np.testing.assert_allclose(ts.v, free.v_star, rtol=1e-12)
        np.testing.assert_array_equal(ts.e, 0.0)
        assert ts.balance_error(small_params.n0) < 1e-12

    def test_monotone_extinction_without_transmission(self, small_grid):
        params = make_constant_params(small_grid, beta_a=0.0, beta_i=0.0)
        init = State(t=0.0, s=1e4, v=1e4,
                     e=band_density(small_grid, 10.0, 100.0, 50.0),
                     a=band_density(small_grid, 10.0, 100.0, 30.0),
                     i=band_density(small_grid, 10.0, 100.0, 20.0))
        ts = simulate(init, params, t_max=100.0).timeseries
        infected = ts.e + ts.a + ts.i
        assert np.all(np.diff(infected) <= 1e-12 * infected[0])

    def test_characteristic_transport_consistency(self):
        # Transported initial data against the exact exponential decay:
        # first-order in h, halving with h (rates chosen so the accumulated
        # drift stays in the linear regime).
        errs = {}
        rate_k = 0.05
        for h in (0.5, 0.25):
            grid = build_grid(h, 400.0)
            params = make_constant_params(grid, beta_a=0.0, beta_i=0.0, k=rate_k)
            init = State(t=0.0, s=0.0, v=0.0,
                         e=band_density(grid, 50.0, 150.0, 100.0),
                         a=zero_density(grid), i=zero_density(grid))
            t_run = 100.0
            result = simulate(init, params, t_max=t_run)
            rate = rate_k + params.mu
            exact = init.e.values * np.exp(-rate * t_run)
            shift = int(round(t_run / h))
            expected = np.zeros(grid.n_nodes)
            expected[shift:] = exact[:grid.n_nodes - shift]
            got = result.final_state.e.values
            mask = expected > 0
            errs[h] = np.max(np.abs(got[mask] / expected[mask] - 1.0))
            assert errs[h] < 1.2 * t_run * h * rate**2 / 2.0
        assert errs[0.25] / errs[0.5] == pytest.approx(0.5, abs=0.1)

    def test_reconstruction_from_boundary_series(self, small_grid):
        # Interior nodes equal the recorded boundary values decayed along
        # the characteristic: e[n, j] = eps[n-1-j] * prod(1 - h (k+mu)).
        params = make_constant_params(small_grid, beta_i=5e-7, n0=1e7)
        init = State(t=0.0, s=1e6, v=1e5,
                     e=zero_density(small_grid),
                     a=band_density(small_grid, 10.0, 60.0, 100.0),
                     i=band_density(small_grid, 10.0, 60.0, 100.0))
        h = small_grid.h
        result = simulate(init, params, t_max=30.0, sample_every=h)
        ts = result.timeseries
        n = ts.t.size - 1
        decay = 1.0 - h * (0.1 + params.mu)
        e_final = result.final_state.e.values
        for j in (0, 3, 10, n - 1):
            expected = ts.eps[n - 1 - j] * decay**j
            assert e_final[j] == pytest.approx(expected, rel=1e-12)

    def test_conservation_explicit_recovered(self, small_grid):
        params = make_constant_params(small_grid, beta_i=1e-6, n0=1e7)
        init = State(t=0.0, s=5e6, v=1e6,
                     e=band_density(small_grid, 10.0, 60.0, 1e4),
                     a=band_density(small_grid, 10.0, 60.0, 1e4),
                     i=band_density(small_grid, 10.0, 60.0, 1e4))
        ts = simulate(init, params, t_max=200.0).timeseries
        assert ts.balance_error(params.n0) < 1e-12
        np.testing.assert_array_equal(ts.n, params.n0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_burst_keeps_positivity_and_ledger(self, seed):
        # Band seeds whose first step has h * beta in [2, 20], where forward
        # Euler would drive S below 0: every pool and density stays
        # nonnegative at every step, and the ledger stays at round-off. The
        # run lasts J steps, so the whole band, and the first boundary
        # values, leave through the oldest node.
        init, params, _ = _equivalence_case(seed, "band-burst")
        h = params.grid.h
        worst = []
        result = simulate(init, params, t_max=params.grid.n_nodes * h,
                          sample_every=h,
                          observer=lambda t, s, v, *dens: worst.append(
                              min(float(x.min()) for x in dens)))
        ts = result.timeseries
        assert h * result.beta_steps[0] > 1.99
        assert min(worst) >= 0.0
        for column in (ts.s, ts.v, ts.e, ts.a, ts.i):
            assert column.min() >= 0.0
        assert ts.balance_error(params.n0) < 1e-13

    def test_snapshots_and_sampling(self, small_grid, small_params):
        init = State(t=0.0, s=1e4, v=1e4,
                     e=band_density(small_grid, 10.0, 60.0, 5.0),
                     a=zero_density(small_grid), i=zero_density(small_grid))
        snaps = []
        result = simulate(init, small_params, t_max=10.0, sample_every=2.0,
                          snapshot_times=[4.0], on_snapshot=snapshot_recorder(snaps))
        ts = result.timeseries
        np.testing.assert_allclose(np.diff(ts.t), 2.0)
        assert len(snaps) == 1
        snap = snaps[0]
        assert snap.t == pytest.approx(4.0)
        assert snap.e.shape == (small_grid.n_nodes,)

    def test_snapshot_time_outside_the_run_is_refused(self, small_grid, small_params):
        init = State(t=0.0, s=1e4, v=1e4, e=zero_density(small_grid),
                     a=zero_density(small_grid), i=zero_density(small_grid))
        with pytest.raises(ParameterError, match=r"snapshot times \[50, -3\] match no step"):
            simulate(init, small_params, t_max=10, snapshot_times=(5, 50, -3))
        # A time off the grid is refused, however near a step it lies.
        h = small_grid.h
        for time in (-0.4 * h, 10 + 0.4 * h, 10 + 0.6 * h):
            with pytest.raises(ParameterError, match="^snapshot_times must be a whole multiple"):
                simulate(init, small_params, t_max=10, snapshot_times=(time,))
        with pytest.raises(ParameterError, match="match no step"):
            simulate(init, small_params, t_max=10, snapshot_times=(10 + h,))

    def test_snapshot_times_need_a_callable(self, small_grid, small_params):
        init = State(t=0.0, s=1e4, v=1e4, e=zero_density(small_grid),
                     a=zero_density(small_grid), i=zero_density(small_grid))
        with pytest.raises(ParameterError, match="^snapshot_times needs an on_snapshot callable"):
            simulate(init, small_params, t_max=10, snapshot_times=(5,))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(t_max=10.1), "t_max must be a whole multiple of grid.h = 0.25, got 10.1"),
        (dict(sample_every=0.6), "sample_every must be a whole multiple of grid.h = 0.25, got 0.6"),
        (dict(sample_every=0.1), "sample_every must be a whole multiple of grid.h = 0.25, got 0.1"),
        (dict(snapshot_times=(3.0, 3.1)),
         "snapshot_times must be a whole multiple of grid.h = 0.25, got 3.1"),
        (dict(sample_every=0.0), "sample_every must be positive, got 0.0"),
        (dict(t_max=-10.0), "t_max must be positive, got -10.0")])
    def test_duration_off_the_grid_is_refused_by_name(self, small_grid, small_params,
                                                      kwargs, message):
        # The run would otherwise end, sample or snapshot at a time it was
        # not asked for: 10.0 for 10.1, every 0.5 days for 0.6.
        init = State(t=0.0, s=1e4, v=1e4, e=zero_density(small_grid),
                     a=zero_density(small_grid), i=zero_density(small_grid))
        with pytest.raises(ParameterError) as info:
            simulate(init, small_params, **{"t_max": 10.0, **kwargs})
        assert str(info.value) == message

    def test_snapshot_t_is_the_requested_time(self):
        # At h = 0.1 the step times 3 * 0.1 and 7 * 0.1 are not 0.3 and 0.7;
        # the snapshot keeps the time asked for, the first of two on one step.
        grid = build_grid(0.1, 50.0)
        params = make_constant_params(grid)
        init = State(t=0.0, s=1e4, v=1e4, e=band_density(grid, 1.0, 3.0, 5.0),
                     a=zero_density(grid), i=zero_density(grid))
        times = (0.7, 0.3, 0.30000000000000004)
        snaps = []
        result = simulate(init, params, t_max=1.0, sample_every=0.1, snapshot_times=times,
                          on_snapshot=snapshot_recorder(snaps))
        assert [snap.t for snap in snaps] == [0.3, 0.7]
        assert result.timeseries.t[3] == 3 * 0.1 != snaps[0].t
        for snap, n in zip(snaps, (3, 7)):
            want = simulate(init, params, t_max=n * 0.1, sample_every=0.1).final_state
            np.testing.assert_array_equal(snap.e, want.e.values)
        later = []
        simulate(replace(init, t=2.0), params, t_max=1.0, sample_every=0.1,
                 snapshot_times=times, on_snapshot=snapshot_recorder(later))
        assert [snap.t for snap in later] == [2.0 + 0.3, 2.0 + 0.7]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborted_run_carries_step_index(self):
        # A near-float-max density overflows the boundary quadrature; the
        # resulting non-finite force of infection aborts with the step index.
        grid = build_grid(0.5, 20.0)
        params = make_constant_params(grid, k=0.1)
        init = State(t=0.0, s=1.0, v=0.0,
                     e=constant_profile(grid, 1e308, Units.DENSITY),
                     a=zero_density(grid), i=zero_density(grid))
        with pytest.raises(AbortedRunError) as excinfo:
            simulate(init, params, t_max=10.0)
        # The seed overflows the t = 0 products, so the run stops at once.
        assert excinfo.value.step_index == 0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_nonnegativity_random_initial_data(self, seed):
        rng = np.random.default_rng(seed)
        grid = build_grid(0.5, 300.0)
        params = make_constant_params(grid, beta_i=1e-7, n0=1e6)
        dens = [
            AgeProfile(grid, rng.uniform(0.0, 5.0, grid.n_nodes), Units.DENSITY)
            for _ in range(3)
        ]
        init = State(t=0.0, s=rng.uniform(0, 5e5), v=rng.uniform(0, 5e5),
                     e=dens[0], a=dens[1], i=dens[2])
        fs = simulate(init, params, t_max=50.0).final_state
        assert fs.s >= 0.0 and fs.v >= 0.0
        for profile in (fs.e, fs.a, fs.i):
            assert profile.values.min() >= 0.0


def _initial_density(rng, grid, kind, scale):
    values = np.zeros(grid.n_nodes)
    if kind == "point":
        nodes = rng.choice(grid.n_nodes - 1, size=rng.integers(1, 4), replace=False)
        values[nodes] = rng.uniform(0.0, scale, nodes.size)
        values[-1] = rng.uniform(0.0, scale)  # leaves through the absorbing boundary
    elif kind == "full":
        values[:] = rng.uniform(0.0, scale, grid.n_nodes)
    elif kind == "band":
        # At least two nodes wide, with zeros at node 0 and from node J - 2 on.
        low = int(rng.integers(1, grid.n_nodes // 2))
        high = int(rng.integers(low + 2, grid.n_nodes - 1))
        values[low:high] = rng.uniform(0.1, 1.0, high - low) * scale
    elif kind == "band0":
        # At least two nodes wide from node 0, with zeros from node J - 2 on.
        high = int(rng.integers(2, grid.n_nodes - 1))
        values[:high] = rng.uniform(0.1, 1.0, high) * scale
    return AgeProfile(grid, values, Units.DENSITY)


def _band_run_length(rng, dens):
    """Steps for a band draw: the initial support [first, last) moved n nodes
    on stays inside the window beside the boundary history [0, n), runs
    partly off node J - 1, or has left the window, so that the history alone
    is live. Both stretches move one node per step, so the gap of `first`
    nodes between them never closes; for support from node 0 ("band0") the
    two touch at every step and are still read as two spans."""
    support = np.flatnonzero(sum(profile.values for profile in dens))
    n_nodes = dens[0].grid.n_nodes
    first, last = int(support[0]), int(support[-1]) + 1
    low, high = {
        "apart": (1, n_nodes - last),
        "runoff": (n_nodes - last + 1, n_nodes - first - 1),
        "gone": (n_nodes - first, n_nodes + 50),
    }[("apart", "runoff", "gone")[rng.integers(3)]]
    return int(rng.integers(low, high + 1))


def _equivalence_case(seed, regime):
    """(init, params, run kwargs) for one draw of a regime.

    Every draw has random constant or piecewise profiles, a random step and
    random nonnegative initial data. "band" gives each compartment its own
    interior band, and "band0" its own band from node 0, and runs it for
    one of the cases of `_band_run_length`;
    "burst" starts with h * beta in [2, 20], and "band-burst" does so from
    interior band seeds;
    "fast" has h * max exit rate >= 0.95 on a grid of at least 600 nodes,
    which holds at least three of the frame's age blocks (a block is at most
    log(1e-250) / log(0.05) ~ 192 nodes long there); "long" runs 513 to
    1535 steps, more than the grid has nodes, so every initial cohort
    leaves through theta_max. "stationary" seeds c_c times the scheme's
    survival of each compartment, c_c >= 0 and some of them 0, on a "fast"
    grid, where the survival is 0 at theta_max, or on another, where it is
    positive, and runs up to twice as many steps as the grid has nodes.
    """
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.1, 1.0)
    fast = regime == "fast" or (regime == "stationary" and rng.random() < 0.5)
    n_nodes = int(rng.integers(600, 800) if fast else rng.integers(20, 400))
    grid = build_grid(h, h * (n_nodes - 1))
    mu = rng.uniform(1e-5, 1e-3)
    rate_top = 0.5 / h
    k = rate_profile(rng, grid, rate_top, Units.RATE)
    if fast:
        target = rng.uniform(0.95, 0.999) / h - mu
        peak = k.values.max()
        k = (k.with_values(k.values * (target / peak)) if peak > 0.0
             else constant_profile(grid, target, Units.RATE))
    burst = regime in ("burst", "band-burst")
    kinds = {"point": ("point",), "full": ("full",), "zero": ("zero",), "band": ("band",),
             "band0": ("band0",), "burst": ("point", "full"), "band-burst": ("band",)
             }.get(regime, ("point", "full", "zero"))
    kind = kinds[rng.integers(len(kinds))]
    scale = 1e3 if burst else 10.0
    dens = [_initial_density(rng, grid, kind, scale) for _ in range(3)]
    beta_a = rate_profile(rng, grid, 1e-6, Units.TRANSMISSION)
    beta_i = rate_profile(rng, grid, 1e-6, Units.TRANSMISSION)
    if burst:
        # Rescale transmission so that the first step has h * beta in [2, 20].
        beta0 = h * float(beta_a.values @ dens[1].values + beta_i.values @ dens[2].values)
        factor = rng.uniform(2.0, 20.0) / h / beta0
        beta_a = beta_a.with_values(beta_a.values * factor)
        beta_i = beta_i.with_values(beta_i.values * factor)
    params = ParameterSet(
        n0=1e6, mu=mu, p=rng.uniform(1e-4, 1e-2), epsilon=rng.uniform(0.0, 1.0),
        zeta=rng.uniform(0.0, 0.1), beta_a=beta_a, beta_i=beta_i, k=k,
        q=rate_profile(rng, grid, 1.0, Units.PROPORTION),
        xi=rate_profile(rng, grid, 1.0, Units.PROPORTION),
        chi=rate_profile(rng, grid, rate_top, Units.RATE),
        gamma_a=rate_profile(rng, grid, rate_top, Units.RATE),
        gamma_i=rate_profile(rng, grid, rate_top, Units.RATE),
    )
    if regime == "stationary":
        scale = rng.uniform(0.0, 10.0, 3) * (rng.random(3) < 0.7)
        scale[rng.integers(3)] = rng.uniform(0.1, 10.0)
        dens = [AgeProfile(grid, c * surv, Units.DENSITY)
                for c, surv in zip(scale, rep.survivals(params))]
    # S + V at most half of N0 keeps the R column well away from zero.
    init = State(t=rng.uniform(0.0, 10.0), s=rng.uniform(0.05, 0.25) * 1e6,
                 v=rng.uniform(0.0, 0.25) * 1e6, e=dens[0], a=dens[1], i=dens[2])
    if regime in ("band", "band0"):
        n_steps = _band_run_length(rng, dens)
    elif regime == "stationary":
        n_steps = int(rng.integers(1, 2 * n_nodes))
    else:
        n_steps = int(rng.integers(513, 1536) if regime == "long"
                      else rng.integers(1, 300))
    stride = int(rng.integers(1, 6))
    snaps = rng.integers(0, n_steps + 1, size=rng.integers(0, 4))
    return init, params, dict(t_max=n_steps * h, sample_every=stride * h,
                              snapshot_times=[n * h for n in snaps])


def _assert_close_to(got, want, rtol=1e-11):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * float(np.max(np.abs(want))))


class TestMovingFrameEquivalence:
    """The moving-frame stepper equals the shift form to round-off."""

    @pytest.mark.parametrize("regime", ["point", "full", "zero", "band", "band0", "burst",
                                        "fast", "long", "stationary"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_shift_form(self, regime, seed):
        init, params, kwargs = _equivalence_case(seed, regime)
        got_snaps, want_snaps = [], []
        want = simulate_shift(init, params, **kwargs, on_snapshot=snapshot_recorder(want_snaps))
        taken = []
        with _tail_path_spied(taken):
            got = simulate(init, params, **kwargs, on_snapshot=snapshot_recorder(got_snaps))
        assert taken == [regime == "stationary"]
        if regime == "burst":
            assert params.grid.h * want.beta_steps[0] > 1.99
        _assert_close_to(got.beta_steps, want.beta_steps)
        # Every sample's beta is its step's; a shorter run is a prefix.
        n_steps = got.beta_steps.size - 1
        stride = max(1, int(round(kwargs["sample_every"] / params.grid.h)))
        sampled = [n for n in range(n_steps + 1) if n % stride == 0 or n == n_steps]
        assert np.array_equal(got.beta_steps[sampled], got.timeseries.beta)
        prefix = 1 + seed % n_steps
        short = simulate(init, params, t_max=prefix * params.grid.h, sample_every=params.grid.h)
        assert np.array_equal(short.beta_steps, got.beta_steps[:prefix + 1])
        for column in ("t", "s", "v", "e", "a", "i", "r", "n", "beta", "eps",
                       "alpha", "iota", "r_tilde"):
            _assert_close_to(getattr(got.timeseries, column),
                             getattr(want.timeseries, column))
        assert len(got_snaps) == len(want_snaps)
        for mine, ref in zip(got_snaps, want_snaps):
            assert mine.t == ref.t
            for name in ("e", "a", "i"):
                _assert_close_to(getattr(mine, name), getattr(ref, name))
        assert got.final_state.t == want.final_state.t
        for name in ("e", "a", "i"):
            _assert_close_to(getattr(got.final_state, name).values,
                             getattr(want.final_state, name).values)

    def test_initial_functionals_are_the_unscaled_ones(self, small_grid, small_params):
        # At t = 0 simulate reads the given densities with the unscaled
        # flux rows, so its first sample is bit-identical to the rectangle
        # rule h * (row @ density); its eps is the boundary the first step
        # writes, fed by S1 and V1.
        init = State(t=0.0, s=1e5, v=2e4,
                     e=band_density(small_grid, 3.0, 90.0, 1e4),
                     a=band_density(small_grid, 10.0, 60.0, 3e3),
                     i=band_density(small_grid, 20.0, 200.0, 7e3))
        ts = simulate(init, small_params, t_max=1.0, sample_every=small_grid.h).timeseries
        h = small_grid.h
        to_asym, to_symp = small_params.flux_rows(0)
        infect_a, branch_a, _ = small_params.flux_rows(1)
        infect_i, _ = small_params.flux_rows(2)
        e, a, i = init.e.values, init.a.values, init.i.values
        assert ts.beta[0] == h * float(infect_a @ a + infect_i @ i)
        assert (ts.alpha[0], ts.iota[0]) == (h * float(to_asym @ e),
                                             h * float(to_symp @ e + branch_a @ a))
        assert ts.eps[0] == ts.beta[0] * (ts.s[1] + (1.0 - small_params.epsilon) * ts.v[1])


class TestStackedMasses:
    """A sample's masses Q_c @ u_c over a span, taken as one stacked
    np.matmul, are the three 1-D products bit for bit."""

    @given(n_nodes=st.one_of(st.integers(1, 3000), st.sampled_from([32_401, 64_801])),
           extra=st.integers(0, 3000), data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_three_dots(self, n_nodes, extra, data, seed):
        # A window of J nodes at any offset into a frame of J + extra
        # columns, so the rows' stride varies too, and a span of any length
        # in it; values over 30 decades, so a change of summation order
        # shows in the bits.
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.0, 1.0, (3, n_nodes)) * 10.0 ** rng.uniform(-15.0, 0.0, (3, n_nodes))
        frame = rng.uniform(0.0, 1.0, (3, n_nodes + extra)) * 10.0 ** rng.uniform(
            -15.0, 15.0, (3, n_nodes + extra))
        start = data.draw(st.integers(0, extra))
        window = frame[:, start:start + n_nodes]
        low = data.draw(st.integers(0, n_nodes))
        span = slice(low, data.draw(st.integers(low, n_nodes)))
        masses = np.empty((3, 1, 1))
        np.matmul(q[:, None, span], window[:, span, None], out=masses)
        want = [q_row[span] @ u[span] for q_row, u in zip(q, window)]
        assert masses.tobytes() == np.array(want).tobytes()


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _run(init, params, **kwargs):
    """simulate(init, params, **kwargs) and the snapshots it hands over:
    (result, snapshots)."""
    snapshots = []
    return simulate(init, params, on_snapshot=snapshot_recorder(snapshots), **kwargs), snapshots


def _assert_same_result(got, want):
    """Every output of two runs of `_run`, bit for bit."""
    (got, got_snaps), (want, want_snaps) = got, want
    assert _same_bits(got.beta_steps, want.beta_steps)
    for column in ("t", "s", "v", "e", "a", "i", "r", "n", "beta", "eps",
                   "alpha", "iota", "r_tilde"):
        assert _same_bits(getattr(got.timeseries, column), getattr(want.timeseries, column))
    assert len(got_snaps) == len(want_snaps)
    for mine, ref in zip(got_snaps, want_snaps):
        assert mine.t == ref.t
        for name in ("e", "a", "i"):
            assert _same_bits(getattr(mine, name), getattr(ref, name))
    mine, ref = got.final_state, want.final_state
    assert (mine.t, mine.s, mine.v) == (ref.t, ref.s, ref.v)
    for name in ("e", "a", "i"):
        assert _same_bits(getattr(mine, name).values, getattr(ref, name).values)


def _spied(calls):
    """`solver._seed_negligible`, recording (bound, verdict) of each call: a
    bound of 7 entries for a step's flux rows, of 3 for a sample's masses."""
    real = solver._seed_negligible

    def spy(bound, head):
        verdict = real(bound, head)
        calls.append((bound.copy(), verdict))
        return verdict
    return mock.patch.object(solver, "_seed_negligible", spy)


def _tail_path_spied(taken):
    """`solver._stationary_tails`, recording for each call whether the seed
    is read from its tail sums."""
    real = solver._stationary_tails

    def spy(*args):
        tails = real(*args)
        taken.append(tails is not None)
        return tails
    return mock.patch.object(solver, "_stationary_tails", spy)


def _always_read():
    return mock.patch.object(solver, "_seed_negligible", lambda bound, head: False)


def _numpy_seed_verdict(bound, head):
    """`solver._seed_negligible`'s verdict as one numpy expression, the
    reference of its unit test."""
    with np.errstate(over="ignore"):  # np.spacing of the largest float is inf
        return bool((bound <= 0.25 * np.spacing(head)).all())


def _seed_check_entries():
    """(bound, head) entries: any floats, and bounds at a quarter ulp of the
    head, one float either side of it, and zero."""
    def bounds(head):
        with np.errstate(over="ignore"):
            quarter = float(0.25 * np.spacing(head))
        near = [quarter, math.nextafter(quarter, math.inf), math.nextafter(quarter, -math.inf),
                0.0, -0.0]
        return st.tuples(st.one_of(st.sampled_from(near), st.floats()), st.just(head))
    heads = st.one_of(st.floats(), st.sampled_from(
        [0.0, -0.0, 3.0, -3.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
         math.inf, -math.inf, math.nan]))
    return heads.flatmap(bounds)


def _retirement_case(seed, regime):
    """(init, params, run kwargs): a draw of `_equivalence_case`, or for
    "endemic" the supercritical `table2-c2` scenario on a 1000-day grid from
    a random band seed, where the history outgrows the seed and most runs
    retire it on some steps."""
    if regime != "endemic":
        return _equivalence_case(seed, regime)
    rng = np.random.default_rng(seed)
    h = float(rng.choice([0.5, 1.0, 2.0]))
    params = scenarios.builtin_scenario("table2-c2", build_grid(h, 1000.0))
    low = float(rng.uniform(h, 400.0))
    band = (low, low + float(rng.uniform(5.0 * h, 400.0)))
    init = scenarios.band_initial_state(params, scenarios.S0_DEFAULT, scenarios.V0_DEFAULT,
                                        10.0 ** rng.uniform(1.0, 7.0), band)
    n_steps = int(rng.integers(1, int(1.5 * params.grid.n_nodes)))
    snaps = rng.integers(0, n_steps + 1, size=rng.integers(0, 4))
    return init, params, dict(t_max=n_steps * h, sample_every=int(rng.integers(1, 6)) * h,
                              snapshot_times=[n * h for n in snaps])


def _assert_bound_holds(init, params, kwargs):
    """Run `simulate` and check every seed bound it hands over, as
    `TestSeedRetirement.test_the_bound_is_a_bound` describes; a row whose
    kernel weight * Q has a positive subnormal entry has its bound doubled.
    Returns that doubling, per flux row."""
    h = params.grid.h
    calls = []
    with _spied(calls):
        _run(init, params, **kwargs)
    rates = (params.exit_rate_e, params.exit_rate_a, params.exit_rate_i)
    ones = np.ones(params.grid.n_nodes)
    weights = [w for c in range(3) for w in params.flux_rows(c)] + [ones] * 3
    owner = [0, 0, 1, 1, 1, 2, 2, 0, 1, 2]
    decay = np.array([np.max(1.0 - h * rate[:-1], initial=0.0) for rate in rates])[owner]
    q = scheme_factors(np.stack(rates), h)
    block_products(q)
    kernels = [w * q[c] for w, c in zip(weights[:7], owner)]
    tiny = np.finfo(float).tiny
    subnormal = np.array([bool(((row > 0.0) & (row < tiny)).any())
                          for row in kernels] + [False] * 3)
    peak = np.array([w.max() for w in weights]) * np.where(subnormal, 2.0, 1.0)
    mass0 = np.array([x.values.sum() for x in (init.e, init.a, init.i)])[owner]
    seed = [x.values.copy() for x in (init.e, init.a, init.i)]
    n = 0
    for bound, _ in calls:
        rows = slice(0, 7) if bound.size == 7 else slice(7, 10)
        if bound.size == 7:
            n += 1
            for x, rate in zip(seed, rates):
                x[1:] = x[:-1] * (1.0 - h * rate[:-1])
                x[0] = 0.0
        formula = 2.0 * peak[rows] * mass0[rows] * decay[rows] ** n
        # Both checks are relative; only where the formula is itself
        # subnormal, and so has lost relative precision, may the bound and
        # the share miss by up to the smallest normal float.
        floor = np.where(formula < tiny, tiny, 0.0)
        assert np.all(np.abs(bound - formula) <= 1e-10 * formula + floor), (n, bound, formula)
        share = np.array([w @ seed[c] for w, c in zip(weights[rows], owner[rows])])
        assert np.all(share <= 0.5 * bound * (1.0 + 1e-10) + floor), (n, share, bound)
    return subnormal[:7]


class TestSeedRetirement:
    """A step skips the seed span's products while their bound is at most a
    quarter ulp of the history's; the results are the same bits as with
    the seed read at every step."""

    @given(entries=st.lists(_seed_check_entries(), min_size=1, max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_negligible_is_a_quarter_ulp(self, entries):
        # Any bounds and heads, zeros, negatives, infinities, NaNs and the
        # largest float included: the verdict of the numpy expression, with
        # the head as an array (a step's rows) or a list of numpy scalars (a
        # sample's masses).
        bound = np.array([b for b, _ in entries])
        head = np.array([x for _, x in entries])
        want = _numpy_seed_verdict(bound, head)
        assert solver._seed_negligible(bound, head) == want
        assert solver._seed_negligible(bound, list(head)) == want

        ulp = math.ulp(3.0)
        assert solver._seed_negligible(np.array([ulp / 4, 0.0]), np.array([3.0, 1.0]))
        assert not solver._seed_negligible(np.array([ulp / 2, 0.0]), np.array([3.0, 1.0]))
        assert 3.0 + ulp / 4 == 3.0
        # An all-zero row adds an exact 0; any bound on an exact 0 head is read.
        assert solver._seed_negligible(np.zeros(2), np.zeros(2))
        assert not solver._seed_negligible(np.array([5e-324]), np.zeros(1))
        # A non-finite history reads the seed, so the run aborts where it did.
        for head in (math.inf, math.nan):
            assert not solver._seed_negligible(np.zeros(1), np.array([head]))

    @pytest.mark.parametrize("regime", ["band", "band0", "band-burst", "long", "point",
                                        "endemic"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_retiring_the_seed_is_bit_identical(self, regime, seed):
        init, params, kwargs = _retirement_case(seed, regime)
        got = _run(init, params, **kwargs)
        with _always_read():
            want = _run(init, params, **kwargs)
        _assert_same_result(got, want)

    def test_table2_c2_band_retires_half_its_steps(self):
        # The shipped endemic band seed at h = 1: the seed is still in the
        # window at the end, and the history outgrows it early on.
        params = scenarios.builtin_scenario("table2-c2", build_grid(1.0, 32400.0))
        init = scenarios.band_initial_state(params, scenarios.S0_DEFAULT,
                                            scenarios.V0_DEFAULT, 1e4)
        kwargs = dict(t_max=1500.0, snapshot_times=[700.0, 1500.0])
        calls = []
        with _spied(calls):
            got = _run(init, params, **kwargs)
        rows = [verdict for bound, verdict in calls if bound.size == 7]
        assert len(rows) == 1500
        assert sum(rows) >= 750
        with _always_read():
            want = _run(init, params, **kwargs)
        _assert_same_result(got, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_density_too_large_for_the_frame_reads_the_seed(self):
        # The A seed sits where Q_a is 2.5e-247, so u = x / Q overflows and
        # the first step's seed products are non-finite. The E seed and
        # S = 1e94 make the history so large that the bound on the seed's
        # finite x would retire it at that step; the run must abort there,
        # as it does with the seed read, instead of carrying an inf along.
        grid = build_grid(1.0, 99.0)
        params = make_constant_params(grid, n0=1e94, k=0.998, gamma_a=0.998, xi=1.0,
                                      gamma_i=0.5, beta_a=1e-63, beta_i=1e-80)
        e, a = np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)
        e[1], a[91] = 1e77, 1e62
        init = State(t=0.0, s=1e94, v=0.0, e=AgeProfile(grid, e, Units.DENSITY),
                     a=AgeProfile(grid, a, Units.DENSITY), i=zero_density(grid))
        for patch in (contextlib.nullcontext(), _always_read()):
            with patch, pytest.raises(AbortedRunError) as info:
                simulate(init, params, t_max=5.0)
            assert info.value.step_index == 1

    @pytest.mark.parametrize("regime", ["band", "band0", "long", "point", "fast", "endemic"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_the_bound_is_a_bound(self, regime, seed):
        # The initial densities carried alone on the test side, x <- shift(x)
        # * (1 - h rate) with nothing entering at node 0, give the seed's
        # exact share. At every check the bound handed over is
        # 2 max(w_r) sum(x_c at t = 0) decay_c^n (weight 1 for the masses),
        # and the share stays within half of it: the factor 2 is all
        # headroom for the frame's rounding. "fast" draws decay by up to
        # 0.999 a step, and "long" ones and some "band" ones run the seed
        # out through theta_max.
        _assert_bound_holds(*_retirement_case(seed, regime))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_a_subnormal_kernel_entry_doubles_its_bound(self, seed):
        # beta_a scaled to a peak of 1e-300 on the endemic draws: beta_a * Q_a
        # is subnormal wherever Q_a is below about 2.2e-8, and rounding can
        # make such an entry up to twice its exact value. That row's bound
        # is doubled, the share stays within half of it, and the run is the
        # same bits as with the seed read at every step.
        init, params, kwargs = _retirement_case(seed, "endemic")
        beta_a = params.beta_a.values
        params = replace(params, beta_a=params.beta_a.with_values(beta_a * (1e-300 / beta_a.max())))
        assert _assert_bound_holds(init, params, kwargs)[2]
        calls = []
        with _spied(calls):
            got = _run(init, params, **kwargs)
        # Rows 2 and 3 are beta_a and chi (1 - xi), both of compartment a.
        bound = next(bound for bound, _ in calls if bound.size == 7)
        _, to_symp, _ = params.flux_rows(1)
        assert bound[2] / bound[3] == pytest.approx(2.0 * 1e-300 / to_symp.max(),
                                                    rel=1e-12, abs=0.0)
        with _always_read():
            want = _run(init, params, **kwargs)
        _assert_same_result(got, want)


def _table_case(seed):
    """(init, params, n_steps): a band seed on a grid of short age blocks.

    The smallest one-step factor lies in [1e-8, 3e-3], so a block holds 31
    to 99 nodes. The seed lies in [first, last) with last <= J / 2, and
    first = 0 on about a quarter of the draws, where the seed touches the
    boundary history at every step, and 1 <= first < J / 3 on the others.
    The run ends after its oldest cell has run off node J - 1, and while
    its youngest is still on the grid: at least J / 2 >= 200 steps, so
    every cell of the first window crosses at least two block boundaries.
    n_steps is no multiple of the window, so the final window is cut
    short."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.1, 1.0)
    n_nodes = int(rng.integers(400, 900))
    grid = build_grid(h, h * (n_nodes - 1))
    mu = rng.uniform(1e-5, 1e-3)
    k = rate_profile(rng, grid, 1.0, Units.RATE)
    target = (1.0 - 10.0 ** rng.uniform(-8.0, math.log10(3e-3))) / h - mu
    peak = k.values.max()
    k = (k.with_values(k.values * (target / peak)) if peak > 0.0
         else constant_profile(grid, target, Units.RATE))
    rate_top = 0.5 / h
    params = ParameterSet(
        n0=1e6, mu=mu, p=rng.uniform(1e-4, 1e-2), epsilon=rng.uniform(0.0, 1.0),
        zeta=rng.uniform(0.0, 0.1), k=k,
        beta_a=rate_profile(rng, grid, 1e-6, Units.TRANSMISSION),
        beta_i=rate_profile(rng, grid, 1e-6, Units.TRANSMISSION),
        q=rate_profile(rng, grid, 1.0, Units.PROPORTION),
        xi=rate_profile(rng, grid, 1.0, Units.PROPORTION),
        chi=rate_profile(rng, grid, rate_top, Units.RATE),
        gamma_a=rate_profile(rng, grid, rate_top, Units.RATE),
        gamma_i=rate_profile(rng, grid, rate_top, Units.RATE),
    )
    first = 0 if rng.random() < 0.25 else int(rng.integers(1, n_nodes // 3))
    last = int(rng.integers(first + 4, n_nodes // 2 + 1))
    dens = []
    for _ in range(3):
        values = np.zeros(n_nodes)
        values[first:last] = rng.uniform(0.0, 1.0, last - first) * 10.0 ** rng.uniform(
            -10.0, 10.0, last - first) * (rng.random(last - first) < 0.8)
        values[[first, last - 1]] = 1.0
        dens.append(AgeProfile(grid, values, Units.DENSITY))
    low, high = n_nodes - last + 1, n_nodes - first - 1
    n_steps = int(rng.integers(low, high + 1))
    while n_steps % solver._WINDOW == 0:
        n_steps += 1 if n_steps < high else -1
    init = State(t=0.0, s=2e5, v=1e5, e=dens[0], a=dens[1], i=dens[2])
    return init, params, n_steps


def _tables_spied(calls):
    """`solver._seed_table`, recording each call's arguments by name, the
    window copied as it was at the call, and its table."""
    real = solver._seed_table

    def spy(kernels, window, products, block, low, high, width):
        table = real(kernels, window, products, block, low, high, width)
        calls.append(SimpleNamespace(kernels=kernels, window=window.copy(), products=products,
                                     block=block, low=low, high=high, width=width, table=table))
        return table
    return mock.patch.object(solver, "_seed_table", spy)


def _kernels_spied(widths):
    """`solver._kernel`, recording the width of each compartment's kernels."""
    real = solver._kernel

    def spy(q_row, weights, cols):
        kernel, peaks = real(q_row, weights, cols)
        widths.append(kernel.shape[1])
        return kernel, peaks
    return mock.patch.object(solver, "_kernel", spy)


def _kernel_width(init, params, n_steps, stationary):
    """The kernel columns a run can read, as `simulate` sizes them: the
    history's min(n_steps, J), and unless the seed is stationary, every age
    block up to the one that holds node min(last + n_steps - 1, J - 1), the
    oldest seed cell at the final step."""
    n_nodes = params.grid.n_nodes
    width = min(n_steps, n_nodes)
    if stationary:
        return width
    rates = np.stack((params.exit_rate_e, params.exit_rate_a, params.exit_rate_i))
    block, _ = block_products(scheme_factors(rates, params.grid.h))
    node = min(init.support()[1] + n_steps - 1, n_nodes - 1)
    return max(width, min((node // block + 1) * block, n_nodes))


def _carried(window, products, block, steps):
    """The frame's window `steps` steps on, with 0 entering at node 0: every
    cell moves one node a step, and a cell that reaches a block start is
    multiplied by the product over the block it left, as `simulate` does."""
    window = window.copy()
    for _ in range(steps):
        window[:, 1:] = window[:, :-1].copy()
        window[:, 0] = 0.0
        window[:, block::block] *= products
    return window


class TestSeedTable:
    """A moving seed's share of the flux-row products, taken from one
    table per window of steps, is the per-step product over its live span."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_step_product(self, seed):
        # Every entry against np.matmul over the seed span of its step, on
        # the frame carried on the test side from the window the table was
        # built from. Both sum nonnegative terms, so each is within about
        # J ulps of the exact sum; 1e-12 relative covers both, and the
        # 1e-300 floor covers entries that have decayed to subnormals.
        init, params, n_steps = _table_case(seed)
        n_nodes = params.grid.n_nodes
        first, last = init.support()
        calls = []
        with _always_read(), _tables_spied(calls):
            simulate(init, params, t_max=n_steps * params.grid.h, sample_every=params.grid.h)
        # Windows follow each other from step 1 while the seed is live, and
        # the last one is cut short at the final step.
        assert [call.low - first for call in calls] == list(range(1, n_steps + 1,
                                                                  solver._WINDOW))
        end = calls[-1]
        assert end.width < solver._WINDOW and end.low - first + end.width - 1 == n_steps
        crossings, reaches_the_end = [], []
        for call in calls:
            low, high, block = call.low, call.high, call.block
            assert high == min(last + low - first, n_nodes)
            # The youngest cell's crossings, and whether the oldest reaches
            # node J - 1, in this window.
            crossings.append(min(low + call.width - 1, n_nodes - 1) // block - low // block)
            reaches_the_end.append(high + call.width - 1 >= n_nodes)
            cells = call.window
            for s in range(call.width):
                span = slice(low + s, min(high + s, n_nodes))
                want = np.concatenate([np.matmul(kernel[:, span], u[span])
                                       for kernel, u in zip(call.kernels, cells)])
                got = call.table[:, s]
                assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-300), (s, got, want)
                cells = _carried(cells, call.products, block, 1)
        assert max(crossings) >= 2 and any(reaches_the_end)

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_an_entry_does_not_depend_on_its_window(self, seed, data):
        # A window opened at another step, of another width, overlapping
        # the ones simulate built: every step both cover has the same bits.
        # This is why a shorter run is a bitwise prefix of a longer one
        # (TestMovingFrameEquivalence) and why retiring the seed on some
        # steps, which opens windows elsewhere, changes no bit
        # (TestSeedRetirement).
        init, params, n_steps = _table_case(seed)
        n_nodes = params.grid.n_nodes
        first, last = init.support()
        calls = []
        with _always_read(), _tables_spied(calls):
            simulate(init, params, t_max=n_steps * params.grid.h, sample_every=params.grid.h)
        call = calls[0]
        start = data.draw(st.integers(2, n_steps))
        width = data.draw(st.integers(1, n_steps - start + 1))
        cells = _carried(call.window, call.products, call.block, start - 1)
        table = solver._seed_table(call.kernels, cells, call.products, call.block,
                                   first + start, min(last + start, n_nodes), width)
        overlaps = 0
        for call in calls:
            built = call.low - first
            for n in range(max(start, built), min(start + width, built + call.width)):
                assert _same_bits(table[:, n - start], call.table[:, n - built]), n
                overlaps += 1
        assert overlaps == width

    @pytest.mark.parametrize("edge", [0, -1])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_a_run_ending_at_a_block_edge_reads_within_its_kernels(self, edge, seed):
        # The oldest seed cell ends the run on the first node of an age
        # block (edge 0) or on the node before it (edge -1), short of the
        # last block: the kernels keep the columns up to the end of that
        # cell's block and no more. Every table entry is still the per-step
        # product over the seed span with the whole kernel rows, built here,
        # to the 1e-12 of test_equals_the_per_step_product.
        init, params, _ = _table_case(seed)
        h, n_nodes = params.grid.h, params.grid.n_nodes
        first, last = init.support()
        q = scheme_factors(np.stack((params.exit_rate_e, params.exit_rate_a,
                                     params.exit_rate_i)), h)
        block, _ = block_products(q)
        ends = [k * block + edge for k in range(1, n_nodes // block + 1)
                if last <= k * block + edge and (k + 1 + edge) * block < n_nodes]
        node = ends[seed % len(ends)]
        n_steps = node - last + 1
        width = (node // block + 1) * block
        kernels = [np.stack([weight * q[c] for weight in params.flux_rows(c)])
                   for c in range(3)]
        widths, calls = [], []
        with _always_read(), _kernels_spied(widths), _tables_spied(calls):
            simulate(init, params, t_max=n_steps * h, sample_every=h)
        assert widths == [width] * 3
        assert calls[-1].high + calls[-1].width - 2 == node
        for call in calls:
            cells = call.window
            for s in range(call.width):
                span = slice(call.low + s, min(call.high + s, n_nodes))
                want = np.concatenate([np.matmul(kernel[:, span], u[span])
                                       for kernel, u in zip(kernels, cells)])
                got = call.table[:, s]
                assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-300), (s, got, want)
                cells = _carried(cells, call.products, call.block, 1)

    @pytest.mark.parametrize("regime", ["band", "band0", "point", "zero", "long", "stationary"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_kernels_keep_the_columns_a_step_reads(self, regime, seed):
        init, params, kwargs = _equivalence_case(seed, regime)
        n_steps = params.grid.steps(kwargs["t_max"], "t_max")
        widths, taken = [], []
        with _kernels_spied(widths), _tail_path_spied(taken):
            _run(init, params, **kwargs)
        assert widths == [_kernel_width(init, params, n_steps, taken == [True])] * 3


class TestSeedFromNode0:
    """A seed that starts at node 0 touches the boundary history at every
    step and is still a span of its own: checked and read from tables like
    any other seed that is not stationary."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_is_checked_from_step_1_and_read_from_a_table(self, seed):
        # One check of the flux rows at every step from 1 on while the seed
        # is on the grid; at step 1 the history is one node, so the check
        # reads the seed, from a table opened there.
        init, params, kwargs = _equivalence_case(seed, "band0")
        assert init.support()[0] == 0
        n_steps = round(kwargs["t_max"] / params.grid.h)
        checks, tables = [], []
        with _spied(checks), _tables_spied(tables):
            _run(init, params, **kwargs)
        rows = [verdict for bound, verdict in checks if bound.size == 7]
        assert len(rows) == min(n_steps, params.grid.n_nodes - 1)
        assert not rows[0]
        assert tables and tables[0].low == 1


class TestStationarySeed:
    """A seed that is its node-0 value times the scheme's survival is read
    from its tail sums; every other seed takes the span path."""

    @pytest.fixture(scope="class")
    def c2(self):
        params = scenarios.builtin_scenario("table2-c2", build_grid(1.0, 32400.0))
        return params, rep.matching_steady_state(params)[1]

    def test_which_seeds_take_the_tail_path(self, c2):
        params, steady = c2
        scaled = scenarios.steady_scaled_initial_state(params, steady, scenarios.S0_DEFAULT,
                                                       scenarios.V0_DEFAULT, 1e4)
        nudged = scaled.a.values.copy()
        nudged[100] = np.nextafter(nudged[100], math.inf)
        off_node_0 = [profile.values.copy() for profile in (scaled.e, scaled.a, scaled.i)]
        for values in off_node_0:
            values[0] = 0.0
        e, a, i = (scaled.e.with_values(values) for values in off_node_0)
        seeds = [
            (steady_initial_state(steady), True),
            (scaled, True),
            (scenarios.band_initial_state(params, scenarios.S0_DEFAULT,
                                          scenarios.V0_DEFAULT, 1e4), False),
            (replace(scaled, a=scaled.a.with_values(nudged)), False),
            (replace(scaled, e=e, a=a, i=i), False),
        ]
        for init, tail_path in seeds:
            taken = []
            with _tail_path_spied(taken):
                got, got_snaps = _run(init, params, t_max=40.0, snapshot_times=[40.0])
            assert taken == [tail_path]
            if tail_path:
                # The span path, forced, gives the same run to round-off.
                with mock.patch.object(solver, "_stationary_tails", lambda *args: None):
                    want, want_snaps = _run(init, params, t_max=40.0, snapshot_times=[40.0])
                for column in ("s", "v", "e", "a", "i", "r", "beta", "eps", "alpha", "iota",
                               "r_tilde"):
                    np.testing.assert_allclose(getattr(got.timeseries, column),
                                               getattr(want.timeseries, column),
                                               rtol=1e-13, atol=0.0)
                # The frame still carries the seed: past the 40 nodes of
                # history the densities are the same bits.
                mine, ref = got_snaps[0], want_snaps[0]
                for name in ("e", "a", "i"):
                    assert _same_bits(getattr(mine, name)[40:], getattr(ref, name)[40:])

    def test_ledger_reads_the_oldest_node(self):
        # Constant rates of 0.01/day on a 100-day grid at h = 0.5 leave a
        # survival of 0.37 at theta_max, so the seed passes mass out
        # through node J - 1 at every step until it has left the grid, and
        # the ledger counts it although the products no longer read there.
        grid = build_grid(0.5, 100.0)
        params = make_constant_params(grid, k=0.01, chi=0.01, gamma_a=0.01, gamma_i=0.01)
        survival = rep.survivals(params)
        assert survival[:, -1].min() > 0.3
        e, a, i = (AgeProfile(grid, 10.0 * row, Units.DENSITY) for row in survival)
        taken = []
        with _tail_path_spied(taken):
            ts = simulate(State(t=0.0, s=1e5, v=2e4, e=e, a=a, i=i), params,
                          t_max=150.0).timeseries
        assert taken == [True]
        assert ts.balance_error(params.n0) <= 1e-13

"""Renewal-equation march and its agreement with the PDE scheme."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_density, make_constant_params, rate_profile, zero_density
from renewal_reference import solve_renewal as solve_renewal_full
from sveair.errors import ParameterError
from sveair.grid import AgeProfile, Units, build_grid, survival
from sveair.params import ParameterSet
from sveair.solver import State, simulate
from sveair import scenarios, volterra
from sveair.volterra import solve_renewal


class TestTrivialSolutions:
    def test_everyone_removed(self, small_grid, small_params):
        # All mass in the recovered pool: the boundary system stays at zero.
        init = State(t=0.0, s=0.0, v=0.0, e=zero_density(small_grid),
                     a=zero_density(small_grid), i=zero_density(small_grid))
        path = solve_renewal(init, small_params, t_max=50.0)
        np.testing.assert_array_equal(path.beta, 0.0)
        np.testing.assert_array_equal(path.alpha, 0.0)
        np.testing.assert_array_equal(path.iota, 0.0)
        np.testing.assert_array_equal(path.eps, 0.0)

    def test_no_infection_source_scalar_closed_forms(self, small_grid):
        init = State(t=0.0, s=3e5, v=1e5, e=zero_density(small_grid),
                     a=zero_density(small_grid), i=zero_density(small_grid))
        mu, n0 = 5e-5, 1e6
        # In the second case (p + mu) * t_max = 800, a cumulative hazard
        # that exp() cannot carry.
        for p, t_max in ((1e-3, 100.0), (0.4, 2000.0)):
            path = solve_renewal(init, make_constant_params(small_grid, p=p), t_max=t_max)
            np.testing.assert_array_equal(path.beta, 0.0)
            g = p + mu
            decay = np.exp(-g * path.t)
            source = mu * n0 * (1.0 - decay) / g
            # The decay of S(0) is exact; the trapezoid weighs the source by
            # (x/2) coth(x/2) with x = h g, which lies in [1, 1 + x^2 / 12].
            bound = (small_grid.h * g) ** 2 / 12.0 * source + 1e-12 * (3e5 * decay + source)
            assert np.all(np.abs(path.s - (3e5 * decay + source)) <= bound), p

    def test_t_max_cap(self, small_grid, small_params):
        init = State(t=0.0, s=1.0, v=0.0, e=zero_density(small_grid),
                     a=zero_density(small_grid), i=zero_density(small_grid))
        with pytest.raises(ParameterError):
            solve_renewal(init, small_params, t_max=2500.0)


    def test_off_grid_t_max_is_refused(self, small_grid, small_params):
        init = State(t=0.0, s=1e4, v=1e4, e=zero_density(small_grid),
                     a=zero_density(small_grid), i=zero_density(small_grid))
        with pytest.raises(ParameterError, match=r"^t_max must be a whole multiple of "
                                                 r"grid.h = 0.25, got 10.1$"):
            solve_renewal(init, small_params, t_max=10.1)


class TestAgreementWithSolver:
    def _seeded_state(self, grid):
        return State(t=0.0, s=5e5, v=2e5,
                     e=band_density(grid, 20.0, 80.0, 200.0),
                     a=band_density(grid, 20.0, 80.0, 150.0),
                     i=band_density(grid, 20.0, 80.0, 100.0))

    def test_identical_at_t0(self, small_grid, small_params):
        init = self._seeded_state(small_grid)
        path = solve_renewal(init, small_params, t_max=5.0)
        pde = simulate(init, small_params, t_max=5.0, sample_every=small_grid.h)
        assert path.beta[0] == pde.timeseries.beta[0]
        assert path.alpha[0] == pde.timeseries.alpha[0]
        assert path.iota[0] == pde.timeseries.iota[0]

    def test_time_axis_starts_at_init_t(self, small_grid, small_params):
        # Both routes sample at init.t + n * h, not at n * h.
        init = replace(self._seeded_state(small_grid), t=5.0)
        path = solve_renewal(init, small_params, t_max=2.0)
        pde = simulate(init, small_params, t_max=2.0, sample_every=small_grid.h)
        assert path.t[0] == 5.0 and path.t[-1] == 7.0
        np.testing.assert_array_equal(path.t, pde.timeseries.t)

    def test_force_of_infection_deviation_shrinks_with_h(self):
        devs = {}
        for h in (0.5, 0.25):
            grid = build_grid(h, 400.0)
            params = make_constant_params(grid, beta_i=1e-8, n0=1e6)
            init = self._seeded_state(grid)
            path = solve_renewal(init, params, t_max=150.0)
            pde = simulate(init, params, t_max=150.0, sample_every=h)
            scale = path.beta.max()
            devs[h] = np.max(np.abs(pde.timeseries.beta - path.beta)) / scale
        assert devs[0.5] < 0.02
        assert devs[0.25] < 0.7 * devs[0.5]

    def test_characteristic_reconstruction_matches_density(self):
        # e(t, theta) rebuilt from the renewal boundary as eps(t-theta)
        # times the exact survival factor approaches the PDE density at
        # first order along the grid diagonal.
        errs = {}
        for h in (0.5, 0.25):
            grid = build_grid(h, 400.0)
            params = make_constant_params(grid, beta_i=1e-8, n0=1e6)
            init = self._seeded_state(grid)
            t_run = 100.0
            path = solve_renewal(init, params, t_max=t_run)
            pde = simulate(init, params, t_max=t_run, sample_every=h)
            surv_e = survival(params.exit_rate_e, h)
            n = path.t.size - 1
            j = np.arange(1, n)  # ages younger than the run, renewal-fed
            recon = path.eps[n - j] * surv_e[j]
            dens = pde.final_state.e.values[j]
            scale = dens.max()
            errs[h] = np.max(np.abs(recon - dens)) / scale
        assert errs[0.25] < 0.7 * errs[0.5]

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_nonnegative_outputs(self, seed):
        rng = np.random.default_rng(seed)
        grid = build_grid(0.5, 200.0)
        params = make_constant_params(grid, beta_i=1e-7)
        dens = [AgeProfile(grid, rng.uniform(0.0, 3.0, grid.n_nodes), Units.DENSITY)
                for _ in range(3)]
        init = State(t=0.0, s=rng.uniform(0, 1e5), v=rng.uniform(0, 1e5),
                     e=dens[0], a=dens[1], i=dens[2])
        path = solve_renewal(init, params, t_max=40.0)
        for series in (path.beta, path.eps, path.alpha, path.iota, path.s, path.v):
            assert series.min() >= 0.0


def _support_case(seed, regime):
    """(init, params, n_steps) for one draw of a support regime.

    Every draw has random constant or piecewise profiles, a random step and
    random nonnegative initial data whose union support [first, last)
    depends on the regime: "band" is interior (at least two nodes wide per
    compartment, zero at node 0 and from node J - 2 on) and stays inside
    the grid for the whole window; "node0" starts at node 0, as steady-like
    data does; "point" is one to three nodes per compartment, node J - 1
    among them; "zero" is no data; "runoff" is an interior band that runs
    partly off node J - 1 during the window; "long" is a band, node-0 or
    point draw with a window of more than J steps.
    """
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.1, 1.0)
    n_nodes = int(rng.integers(20, 300))
    grid = build_grid(h, h * (n_nodes - 1))
    rate_top = 0.5 / h
    values = np.zeros((3, n_nodes))
    kind = regime if regime != "long" else ("band", "node0", "point")[rng.integers(3)]
    for row in values:
        if kind in ("band", "runoff"):
            low = int(rng.integers(1, n_nodes // 2))
            high = int(rng.integers(low + 2, n_nodes - 1))
            row[low:high] = rng.uniform(0.1, 10.0, high - low)
        elif kind == "node0":
            high = int(rng.integers(1, n_nodes + 1))
            row[:high] = np.sort(rng.uniform(0.0, 10.0, high))[::-1]
            row[0] = rng.uniform(1.0, 10.0)
        elif kind == "point":
            nodes = rng.choice(n_nodes, size=rng.integers(1, 4), replace=False)
            row[nodes] = rng.uniform(0.1, 10.0, nodes.size)
    if kind == "point":
        values[rng.integers(3), -1] = rng.uniform(0.1, 10.0)
    nonzero = np.flatnonzero(values.any(axis=0))
    first, last = (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)
    if regime == "long":
        n_steps = int(rng.integers(n_nodes + 1, n_nodes + 60))
    elif regime == "runoff":
        n_steps = int(rng.integers(n_nodes - last + 1, n_nodes - first))
    elif regime == "band":
        n_steps = int(rng.integers(1, n_nodes - last + 1))
    else:
        n_steps = int(rng.integers(1, n_nodes))
    params = ParameterSet(
        n0=1e6, mu=rng.uniform(1e-5, 1e-3), p=rng.uniform(1e-4, 1e-2),
        epsilon=rng.uniform(0.0, 1.0), zeta=rng.uniform(0.0, 0.1),
        beta_a=rate_profile(rng, grid, 1e-6, Units.TRANSMISSION),
        beta_i=rate_profile(rng, grid, 1e-6, Units.TRANSMISSION),
        k=rate_profile(rng, grid, rate_top, Units.RATE),
        q=rate_profile(rng, grid, 1.0, Units.PROPORTION),
        xi=rate_profile(rng, grid, 1.0, Units.PROPORTION),
        chi=rate_profile(rng, grid, rate_top, Units.RATE),
        gamma_a=rate_profile(rng, grid, rate_top, Units.RATE),
        gamma_i=rate_profile(rng, grid, rate_top, Units.RATE),
    )
    dens = [AgeProfile(grid, row, Units.DENSITY) for row in values]
    init = State(t=0.0, s=rng.uniform(0.05, 0.25) * 1e6, v=rng.uniform(0.0, 0.25) * 1e6,
                 e=dens[0], a=dens[1], i=dens[2])
    return init, params, n_steps


class TestOrderGate:
    """The stepper's observed order of accuracy against the renewal oracle.

    Set-up: `table2-c2` on 720 days of age, seeded with d = 1e4 over ages
    100-300 days, run for 300 days. The reference is the oracle's Richardson
    extrapolation (4 x(h/2) - x(h)) / 3 from h = 0.125 and 0.0625, read on
    whole days; the oracle is close to second order. The stepper's error at
    h is its largest deviation from the reference over the peak of the
    reference. The scheme is first order, so each halving of h should halve
    the error: observed orders log2(err(h) / err(h/2)) in [0.7, 1.3]. A
    second-order scheme raises the floor to 1.8. The masses E, A and I are
    not covered: the oracle marches no densities.
    """

    T_RUN = 300.0
    STEPS = (1.0, 0.5, 0.25, 0.125)

    @staticmethod
    def _seeded(h):
        """(initial state, parameters) at step h."""
        params = scenarios.builtin_scenario("table2-c2", build_grid(h, 720.0))
        return scenarios.band_initial_state(
            params, scenarios.S0_DEFAULT, scenarios.V0_DEFAULT, 1e4, (100.0, 300.0)), params

    def test_first_order_in_beta_s_and_v(self):
        days = {}
        for h in (0.125, 0.0625):
            path = solve_renewal(*self._seeded(h), t_max=self.T_RUN)
            stride = int(round(1.0 / h))
            days[h] = {name: getattr(path, name)[::stride] for name in ("t", "beta", "s", "v")}
        coarse, fine = days[0.125], days[0.0625]
        runs = [simulate(*self._seeded(h), t_max=self.T_RUN).timeseries for h in self.STEPS]
        for series in runs:
            np.testing.assert_array_equal(series.t, fine["t"])
        for name in ("beta", "s", "v"):
            ref = (4.0 * fine[name] - coarse[name]) / 3.0
            peak = float(np.max(np.abs(ref)))
            errors = [float(np.max(np.abs(getattr(series, name) - ref))) / peak
                      for series in runs]
            orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
            assert np.all((0.7 <= orders) & (orders <= 1.3)), (name, errors, orders)
            # The reference's own error estimate is far below the smallest
            # stepper error it is measured against.
            estimate = float(np.max(np.abs(fine[name] - coarse[name]))) / 3.0 / peak
            assert estimate < 0.1 * min(errors), (name, estimate, errors)


class TestSupportRestriction:
    """The march over the moved initial support equals the full-length march."""

    @pytest.mark.parametrize("regime", ["band", "node0", "point", "zero", "runoff", "long"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_full_length_march(self, regime, seed):
        init, params, n_steps = _support_case(seed, regime)
        t_max = n_steps * params.grid.h
        want = solve_renewal_full(init, params, t_max)
        got = solve_renewal(init, params, t_max)
        np.testing.assert_array_equal(got.t, want.t)
        for column in ("beta", "eps", "alpha", "iota", "s", "v"):
            mine, ref = getattr(got, column), getattr(want, column)
            assert mine[0] == ref[0]
            np.testing.assert_allclose(mine, ref, rtol=0.0,
                                       atol=1e-12 * float(np.max(np.abs(ref))))


class TestIndependence:
    def test_oracle_imports_none_of_the_stepper_machinery(self):
        # The oracle shares the grid's exponential survival and the state
        # type with the stepper, and nothing of its discretization: no
        # scheme factors, block products, functionals or span sums.
        tree = ast.parse(Path(volterra.__file__).read_text())
        allowed = {"sveair.solver": {"State"}, "sveair.grid": {"survival"}}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not [alias.name for alias in node.names
                            if alias.name in allowed or alias.name == "sveair"]
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if node.module in allowed:
                    assert names <= allowed[node.module], (node.module, names)
                elif node.module == "sveair":
                    assert not names & {"solver", "grid"}
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                assert not name.startswith("scheme_"), name
                assert name not in {"block_products", "_functionals", "_span_dot"}, name

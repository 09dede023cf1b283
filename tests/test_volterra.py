"""Renewal-equation march and its agreement with the PDE scheme."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_density, make_constant_params, zero_density
from sveair.errors import ParameterError
from sveair.grid import AgeProfile, Units, build_grid, survival
from sveair.solver import State, simulate
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

    def test_no_infection_source_scalar_closed_forms(self, small_grid, small_params):
        init = State(t=0.0, s=3e5, v=1e5, e=zero_density(small_grid),
                     a=zero_density(small_grid), i=zero_density(small_grid))
        path = solve_renewal(init, small_params, t_max=100.0)
        np.testing.assert_array_equal(path.beta, 0.0)
        p, mu, n0 = 1e-3, 5e-5, 1e6
        g = p + mu
        exact_s = 3e5 * np.exp(-g * path.t) + mu * n0 * (1.0 - np.exp(-g * path.t)) / g
        np.testing.assert_allclose(path.s, exact_s, rtol=1e-9)

    def test_t_max_cap(self, small_grid, small_params):
        init = State(t=0.0, s=1.0, v=0.0, e=zero_density(small_grid),
                     a=zero_density(small_grid), i=zero_density(small_grid))
        with pytest.raises(ParameterError):
            solve_renewal(init, small_params, t_max=2500.0)


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
            surv_e = survival(params.k, params.mu, grid).values
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

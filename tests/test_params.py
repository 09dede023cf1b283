"""Parameter container: the profile units table and the routing rows."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_constant_params, rate_profile
from sveair import config
from sveair.errors import ParameterError
from sveair.grid import AgeProfile, Units, build_grid, constant_profile
from sveair.params import PROFILE_UNITS, ParameterSet


def _random_params(seed, h, n_nodes):
    """Constant or piecewise-constant profiles with random scalars; rates
    stay below 0.3 / h, so every profile is admissible."""
    rng = np.random.default_rng(seed)
    grid = build_grid(h, h * (n_nodes - 1))
    profiles = {name: rate_profile(rng, grid, 1.0 if units is Units.PROPORTION
                                   else 1e-6 if units is Units.TRANSMISSION else 0.3 / h,
                                   units)
                for name, units in PROFILE_UNITS.items()}
    return ParameterSet(n0=1e6, mu=rng.uniform(1e-5, 1e-2), p=rng.uniform(0.0, 1e-2),
                        epsilon=rng.uniform(0.0, 1.0), zeta=rng.uniform(0.0, 0.1),
                        **profiles)


_DRAWS = dict(seed=st.integers(0, 2**32 - 1), h=st.floats(0.05, 1.0),
              n_nodes=st.integers(4, 200))


class TestFluxRows:
    @given(**_DRAWS)
    @settings(max_examples=60, deadline=None)
    def test_outflow_rows_plus_mu_are_the_exit_rates(self, seed, h, n_nodes):
        # The routed outflows of a compartment and its deaths make up its
        # exit rate: bit for bit for a and i, whose exit rates are summed
        # from the rows, and within 2 ulp for e, whose rows k q and
        # k (1 - q) sum to k only up to round-off.
        params = _random_params(seed, h, n_nodes)
        to_asym, to_symp = params.flux_rows(0)
        exit_e = params.exit_rate_e
        assert np.all(np.abs(to_asym + to_symp + params.mu - exit_e)
                      <= 2.0 * np.spacing(exit_e))
        _, branch_a, recover_a = params.flux_rows(1)
        np.testing.assert_array_equal(branch_a + recover_a + params.mu, params.exit_rate_a)
        _, recover_i = params.flux_rows(2)
        np.testing.assert_array_equal(recover_i + params.mu, params.exit_rate_i)

    @given(**_DRAWS)
    @settings(max_examples=30, deadline=None)
    def test_rows_follow_the_model_routing(self, seed, h, n_nodes):
        # Latent individuals split q / (1 - q) to A / I; asymptomatic ones
        # turn symptomatic at chi (1 - xi) and recover at gamma_a xi.
        params = _random_params(seed, h, n_nodes)
        k, q, xi = params.k.values, params.q.values, params.xi.values
        expected = (
            (k * q, k * (1.0 - q)),
            (params.beta_a.values, params.chi.values * (1.0 - xi),
             params.gamma_a.values * xi),
            (params.beta_i.values, params.gamma_i.values),
        )
        for c, rows in enumerate(expected):
            got = params.flux_rows(c)
            assert len(got) == len(rows)
            for row, want in zip(got, rows):
                np.testing.assert_array_equal(row, want)

    @given(**_DRAWS)
    @settings(max_examples=20, deadline=None)
    def test_single_profile_rows_are_the_profiles_themselves(self, seed, h, n_nodes):
        # No copy of a profile is made, so a caller that holds only the rows
        # it reads holds no extra J-length array for them.
        params = _random_params(seed, h, n_nodes)
        shared = ((1, 0, params.beta_a), (2, 0, params.beta_i), (2, 1, params.gamma_i))
        for c, index, profile in shared:
            row = params.flux_rows(c)[index]
            assert np.shares_memory(row, profile.values)
            assert not row.flags.writeable

    def test_rows_are_not_kept(self, small_params):
        # Each call builds its products anew; none is cached on the set.
        first, second = small_params.flux_rows(0), small_params.flux_rows(0)
        for a, b in zip(first, second):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("c", [-1, 3])
    def test_unknown_compartment_raises(self, small_params, c):
        with pytest.raises(ValueError, match="compartment index"):
            small_params.flux_rows(c)


class TestProfileUnits:
    def test_table_covers_the_profile_fields_in_order(self):
        profiles = [f.name for f in dataclasses.fields(ParameterSet)
                    if f.type in ("AgeProfile", AgeProfile)]
        assert list(PROFILE_UNITS) == profiles

    def test_every_profile_override_has_a_unit(self):
        for key in config._PROFILE_OVERRIDES:
            assert key.removesuffix("_csv") in PROFILE_UNITS
        scalars = set(config._SCALAR_OVERRIDES)
        assert {"n0", "mu", "p", "epsilon", "zeta"} == scalars - set(PROFILE_UNITS)

    @pytest.mark.parametrize("name, noun", [
        ("beta_a", "transmission"), ("beta_i", "transmission"), ("k", "rate"),
        ("q", "proportion"), ("xi", "proportion"), ("chi", "rate"),
        ("gamma_a", "rate"), ("gamma_i", "rate"),
    ])
    def test_wrong_unit_is_named(self, small_grid, name, noun):
        params = make_constant_params(small_grid)
        with pytest.raises(ParameterError, match=f"^{name} must be a {noun} profile$"):
            replace(params, **{name: constant_profile(small_grid, 0.1, Units.DENSITY)})

    def test_profile_off_the_grid_is_named(self, small_grid):
        params = make_constant_params(small_grid)
        other = build_grid(0.5, 400.0)
        with pytest.raises(ParameterError, match="^profile chi is not on the shared grid$"):
            replace(params, chi=constant_profile(other, 0.1, Units.RATE))

"""Built-in scenarios and the bundled parameter data."""

from importlib import resources

import numpy as np
import pytest

from sveair import cli
from sveair import reproduction as rep
from sveair import scenarios as sc
from sveair.errors import ConfigError, ParameterError, ProfileError
from sveair.grid import Units, build_grid, load_profile_csv, rect_integral


@pytest.fixture(scope="module")
def grid():
    return build_grid(0.5, sc.THETA_MAX_DEFAULT)


class TestBundledData:
    def test_asymptomatic_proportion_profile(self, grid):
        q = sc.asymptomatic_proportion_profile(grid)
        assert q.units is Units.PROPORTION
        assert 0.0 < q.values.min() and q.values.max() < 1.0
        # Age-declining pattern anchored at the young-age value.
        assert q.values[0] == pytest.approx(0.468)
        assert q.values[-1] < q.values[0]

    @pytest.mark.parametrize("name,builder", [
        ("k_latent_rate.csv", sc.latent_rate_profile),
        ("chi_incubation_rate.csv", sc.symptomatic_transition_profile),
    ])
    def test_rate_csv_mirrors_step_table(self, grid, name, builder):
        ref = resources.files("sveair").joinpath(f"data/{name}")
        with resources.as_file(ref) as path:
            from_csv = load_profile_csv(path, grid, Units.RATE)
        np.testing.assert_allclose(from_csv.values, builder(grid).values, rtol=1e-12)

    @pytest.mark.parametrize("command", ["run", "r0-report"])
    @pytest.mark.parametrize("override", ["", "params.q = 0.3\n"],
                             ids=["q-bundled", "q-overridden"])
    def test_missing_q_data_is_refused(self, grid, tmp_path, monkeypatch, capsys, command,
                                       override):
        # Every built-in scenario reads the bundled q, even when the config
        # overrides it, so a missing file refuses the run: exit 2, the path
        # on stderr, nothing written.
        monkeypatch.setattr(sc, "_BUNDLED_Q", "data/absent.csv")
        with pytest.raises(ProfileError, match="absent.csv"):
            sc.asymptomatic_proportion_profile(grid)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario.builtin = table2-c2\ngrid.h = 1\ngrid.theta_max = 360\n"
                       "run.t_max = 2\ninit.d_list = 10\n" + override)
        out = tmp_path / "o"
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "absent.csv" in err
        assert not out.exists()


class TestBuiltin:
    def test_unknown_name_rejected(self, grid):
        with pytest.raises(ConfigError):
            sc.builtin_scenario("table2-c9", grid)

    def test_contact_centers_drive_the_regime(self, grid):
        r0_c1 = rep.compute_R0(sc.builtin_scenario("table2-c1", grid)).r0
        r0_c2 = rep.compute_R0(sc.builtin_scenario("table2-c2", grid)).r0
        assert r0_c1 < 1.0 < r0_c2

    def test_transmission_split(self, grid):
        params = sc.builtin_scenario("table2-c2", grid)
        np.testing.assert_allclose(params.beta_i.values, 2.0 * params.beta_a.values, rtol=1e-14)


class TestInitialStates:
    def test_band_masses_exact(self, grid):
        params = sc.builtin_scenario("table2-c2", grid)
        state = sc.band_initial_state(params, 2e7, 2e7, 12345.0)
        for profile in (state.e, state.a, state.i):
            assert rect_integral(profile.values, grid) == pytest.approx(12345.0, rel=1e-12)
            outside = (grid.nodes < 7200.0) | (grid.nodes >= 18000.0)
            np.testing.assert_array_equal(profile.values[outside], 0.0)

    def test_band_without_nodes_rejected(self, grid):
        params = sc.builtin_scenario("table2-c2", grid)
        with pytest.raises(ParameterError):
            sc.band_initial_state(params, 1.0, 1.0, 1.0, band=(10.1, 10.2))

    def test_steady_scaled_masses_and_positivity(self, grid):
        params = sc.builtin_scenario("table2-c2", grid)
        _, steady = rep.matching_steady_state(params)
        state = sc.steady_scaled_initial_state(params, steady, 2e7, 2e7, 777.0)
        for profile, ref in ((state.e, steady.e_star), (state.a, steady.a_star),
                             (state.i, steady.i_star)):
            assert rect_integral(profile.values, grid) == pytest.approx(777.0, rel=1e-12)
            np.testing.assert_array_equal(profile.values > 0, ref.values > 0)

    def test_steady_scaled_requires_endemic(self, grid):
        params = sc.builtin_scenario("table2-c1", grid)
        _, steady = rep.matching_steady_state(params)
        with pytest.raises(ParameterError):
            sc.steady_scaled_initial_state(params, steady, 1.0, 1.0, 10.0)

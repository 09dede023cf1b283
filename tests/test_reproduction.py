"""Reproduction numbers, the endemic quadratic, and steady states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    analytic_RA,
    analytic_RI,
    analytic_prefactor,
    bisect_beta_star,
    make_constant_params,
    with_last_node_k,
)
from sveair import reproduction as rep
from sveair.errors import StabilityError
from sveair.grid import build_grid, survival
from sveair.solver import _functionals, simulate
from sveair import scenarios as sc
from sveair.scenarios import steady_initial_state

# Rates and grid of the constant-parameter quadrature example. On the
# scheme's survival the rectangle sums of constant rates are geometric
# series equal to the closed form up to the theta_max tail, well inside the
# 1.5% and 0.5% tolerances used here.
EXAMPLE_RATES = dict(k=0.25, q=0.4, mu=4.38356e-5, beta_a=1e-9,
                     gamma_a=0.125, xi=0.5, chi=0.2)


class TestRA:
    def test_constant_rates_fine_grid(self):
        expected = analytic_RA(**EXAMPLE_RATES)
        for h, rtol in ((0.05, 0.015), (0.0125, 0.005)):
            grid = build_grid(h, 90 * 360.0)
            params = make_constant_params(
                grid, mu=EXAMPLE_RATES["mu"], beta_a=EXAMPLE_RATES["beta_a"],
                k=EXAMPLE_RATES["k"], q=EXAMPLE_RATES["q"],
                gamma_a=EXAMPLE_RATES["gamma_a"], xi=EXAMPLE_RATES["xi"],
                chi=EXAMPLE_RATES["chi"],
            )
            assert rep.compute_R0(params).r_a == pytest.approx(expected, rel=rtol)

    def test_constant_rates_low_rate_regime(self):
        # Slow rates: the sum is the closed form up to a negligible theta_max tail.
        grid = build_grid(0.05, 32400.0)
        params = make_constant_params(grid, k=0.05, gamma_a=0.03, chi=0.02)
        expected = analytic_RA(k=0.05, q=0.4, mu=5e-5, beta_a=1e-9,
                               gamma_a=0.03, xi=0.5, chi=0.02)
        assert rep.compute_R0(params).r_a == pytest.approx(expected, rel=5e-3)

    def test_zero_transmission(self, small_grid):
        params = make_constant_params(small_grid, beta_a=0.0)
        assert rep.compute_R0(params).r_a == 0.0

    def test_zero_asymptomatic_proportion(self, small_grid):
        params = make_constant_params(small_grid, q=0.0)
        assert rep.compute_R0(params).r_a == 0.0


class TestRI:
    def test_zero_transmission(self, small_grid):
        params = make_constant_params(small_grid, beta_i=0.0)
        assert rep.compute_R0(params).r_i == 0.0

    def test_no_symptomatic_inflow(self, small_grid):
        params = make_constant_params(small_grid, q=1.0, chi=0.0)
        assert rep.compute_R0(params).r_i == 0.0

    def test_constant_rates_closed_form(self):
        grid = build_grid(0.05, 32400.0)
        kw = dict(k=0.06, q=0.3, mu=4e-5, beta_i=2e-9, gamma_a=0.04,
                  gamma_i=0.05, xi=0.4, chi=0.03)
        params = make_constant_params(grid, **kw)
        assert rep.compute_R0(params).r_i == pytest.approx(analytic_RI(**kw), rel=5e-3)


class TestR0:
    def test_zero_without_transmission(self, small_grid):
        params = make_constant_params(small_grid, beta_a=0.0, beta_i=0.0)
        assert rep.compute_R0(params).r0 == 0.0

    def test_breakdown_identity(self, small_params):
        bd = rep.compute_R0(small_params)
        assert bd.r0 == pytest.approx(bd.prefactor * (bd.r_a + bd.r_i), rel=1e-14)

    def test_prefactor_closed_form(self, small_params):
        expected = analytic_prefactor(1e6, 5e-5, 1e-3, 0.5, 0.05)
        assert rep.compute_R0(small_params).prefactor == pytest.approx(expected, rel=1e-13)

    @given(
        eps1=st.floats(0.0, 1.0), eps2=st.floats(0.0, 1.0),
        k=st.floats(0.01, 0.3), chi=st.floats(0.0, 0.2),
        q=st.floats(0.0, 1.0), xi=st.floats(0.0, 1.0),
        p=st.floats(0.0, 0.01), zeta=st.floats(0.0, 0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_effectiveness(self, eps1, eps2, k, chi, q, xi, p, zeta):
        lo, hi = sorted((eps1, eps2))
        grid = build_grid(0.5, 300.0)
        base = dict(k=k, chi=chi, q=q, xi=xi, p=p, zeta=zeta)
        r_lo = rep.compute_R0(make_constant_params(grid, epsilon=lo, **base)).r0
        r_hi = rep.compute_R0(make_constant_params(grid, epsilon=hi, **base)).r0
        assert r_hi <= r_lo * (1.0 + 1e-12) + 1e-300

    @given(scale=st.floats(1.0, 50.0), beta_a=st.floats(0.0, 1e-8))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_asymptomatic_transmission(self, scale, beta_a):
        grid = build_grid(0.5, 300.0)
        r_base = rep.compute_R0(make_constant_params(grid, beta_a=beta_a)).r0
        r_more = rep.compute_R0(make_constant_params(grid, beta_a=beta_a * scale)).r0
        assert r_more >= r_base * (1.0 - 1e-12)

    def test_grid_refinement_first_order(self):
        values = {}
        for h in (0.4, 0.2, 0.1):
            grid = build_grid(h, 90 * 360.0)
            values[h] = rep.compute_R0(sc.builtin_scenario("table2-c2", grid)).r0
        d1 = values[0.4] - values[0.2]
        d2 = values[0.2] - values[0.1]
        assert d2 / d1 == pytest.approx(0.5, rel=0.2)


class TestBetaStar:
    def test_zero_when_subcritical(self, small_grid):
        params = make_constant_params(small_grid, beta_a=0.0, beta_i=0.0)
        assert rep.solve_beta_star(params) == 0.0

    def test_perfect_vaccine_linear_branch(self, small_grid):
        params = make_constant_params(small_grid, epsilon=1.0, beta_i=5e-6, n0=1e7)
        bd = rep.compute_R0(params)
        assert bd.r0 > 1.0
        beta_star = rep.solve_beta_star(params)
        b2, b1, b0 = rep.quadratic_coefficients(params, bd.r_a + bd.r_i)
        assert b2 == 0.0
        assert beta_star == pytest.approx(-b0 / b1, rel=1e-14)
        assert beta_star > 0.0

    def test_quadratic_root_against_bisection(self, small_grid):
        params = make_constant_params(small_grid, beta_i=1e-6, n0=1e7)
        bd = rep.compute_R0(params)
        assert bd.r0 > 1.0
        beta_star = rep.solve_beta_star(params)
        oracle = bisect_beta_star(bd.r_a + bd.r_i, 1e7, 5e-5, 1e-3, 0.5, 0.05)
        assert beta_star == pytest.approx(oracle, rel=1e-9)
        b2, b1, b0 = rep.quadratic_coefficients(params, bd.r_a + bd.r_i)
        assert abs(b2 * beta_star**2 + b1 * beta_star + b0) <= 1e-9 * abs(b0)

    @given(
        beta_scale=st.floats(1e-10, 1e-5), epsilon=st.floats(0.0, 1.0),
        zeta=st.floats(0.0, 0.2), p=st.floats(0.0, 0.01),
        k=st.floats(0.02, 0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_link_b0_vs_r0(self, beta_scale, epsilon, zeta, p, k):
        grid = build_grid(0.5, 300.0)
        params = make_constant_params(
            grid, beta_a=beta_scale, beta_i=2 * beta_scale,
            epsilon=epsilon, zeta=zeta, p=p, k=k,
        )
        bd = rep.compute_R0(params)
        _, _, b0 = rep.quadratic_coefficients(params, bd.r_a + bd.r_i)
        assert (b0 < 0.0) == (bd.r0 > 1.0)


class TestSteadyState:
    def test_disease_free_closed_form(self, small_params):
        st_free = rep.steady_state(small_params, 0.0)
        p, mu, n0 = 1e-3, 5e-5, 1e6
        zeta_eps = 0.05 * 0.5
        assert st_free.kind == rep.DISEASE_FREE
        assert st_free.s_star == pytest.approx(mu * n0 / (p + mu), rel=1e-14)
        assert st_free.v_star == pytest.approx(
            p * mu * n0 / ((p + mu) * (zeta_eps + mu)), rel=1e-14
        )
        assert st_free.eps_star == 0.0
        np.testing.assert_array_equal(st_free.e_star.values, 0.0)
        np.testing.assert_array_equal(st_free.a_star.values, 0.0)
        np.testing.assert_array_equal(st_free.i_star.values, 0.0)

    def test_no_vaccination(self, small_grid):
        params = make_constant_params(small_grid, p=0.0)
        st_free = rep.steady_state(params, 0.0)
        assert st_free.s_star == pytest.approx(1e6, rel=1e-14)
        assert st_free.v_star == 0.0

    def test_balance_residuals(self, small_grid):
        params = make_constant_params(small_grid, beta_i=1e-6, n0=1e7)
        beta_star = rep.solve_beta_star(params)
        endemic = rep.steady_state(params, beta_star)
        mu_n0 = params.mu * params.n0
        res_s = mu_n0 - (params.p + beta_star + params.mu) * endemic.s_star
        assert abs(res_s) <= 1e-9 * mu_n0
        res_v = params.p * endemic.s_star - (
            params.zeta * params.epsilon + beta_star * (1 - params.epsilon) + params.mu
        ) * endemic.v_star
        assert abs(res_v) <= 1e-9 * mu_n0

    def test_endemic_self_consistency(self, small_grid):
        # Recomputing beta from the assembled densities must return beta*.
        params = make_constant_params(small_grid, beta_i=1e-6, n0=1e7)
        beta_star = rep.solve_beta_star(params)
        assert beta_star > 0.0
        endemic = rep.steady_state(params, beta_star)
        state = steady_initial_state(endemic)
        h = small_grid.h
        ts = simulate(state, params, t_max=h, sample_every=h).timeseries
        assert ts.beta[0] == pytest.approx(beta_star, rel=1e-12)
        # eps of the state's own S and V, before the first step updates them.
        eps = _functionals(params, state)[1]
        assert eps == pytest.approx(endemic.eps_star, rel=1e-12)
        assert ts.alpha[0] == pytest.approx(endemic.alpha_star, rel=1e-12)
        assert ts.iota[0] == pytest.approx(endemic.iota_star, rel=1e-12)

    def test_negative_beta_star_rejected(self, small_params):
        with pytest.raises(Exception):
            rep.steady_state(small_params, -1.0)


class TestSchemeKernels:
    def test_constant_rate_survival_is_geometric(self, small_grid):
        params = make_constant_params(small_grid)
        blocks = rep.kernels(params)
        steps = np.arange(small_grid.n_nodes)
        for surv, rate in ((blocks.surv_e, params.exit_rate_e),
                           (blocks.surv_a, params.exit_rate_a),
                           (blocks.surv_i, params.exit_rate_i)):
            np.testing.assert_allclose(
                surv.values, (1.0 - small_grid.h * rate[0]) ** steps, rtol=1e-12
            )

    def test_below_exponential_survival(self, small_params):
        # 1 - x < exp(-x): the scheme keeps less of each cohort than the
        # exponential survival of the same rates.
        blocks, h = rep.kernels(small_params), small_params.grid.h
        for surv, rate in ((blocks.surv_e, small_params.exit_rate_e),
                           (blocks.surv_a, small_params.exit_rate_a),
                           (blocks.surv_i, small_params.exit_rate_i)):
            assert np.all(surv.values[1:] < survival(rate, h)[1:])

    def test_long_tail_underflows_to_zero(self):
        # A running product of factors near 1 stalls among the subnormals
        # instead of reaching 0; the stepper would then run on subnormals.
        grid = build_grid(0.5, 32400.0)
        blocks = rep.kernels(make_constant_params(grid))
        for surv in (blocks.surv_e, blocks.surv_a, blocks.surv_i):
            values = surv.values
            assert values[-1] == 0.0
            assert np.all((values == 0.0) | (values >= np.finfo(np.float64).tiny))

    def test_unstable_step_rejected(self):
        grid = build_grid(1.0, 50.0)
        with pytest.raises(StabilityError, match="reduce h"):
            rep.kernels(make_constant_params(grid, k=1.0))
        # Only the last node breaks the bound; it enters no survival value
        # of the J nodes.
        with pytest.raises(StabilityError, match="reduce h below"):
            rep.kernels(with_last_node_k(make_constant_params(grid), 1.5))

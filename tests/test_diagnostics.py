"""Lyapunov weights, both Lyapunov functions, and the run metrics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_density, make_constant_params, rate_profile, zero_density
from sveair import diagnostics as dg
from sveair import reproduction as rep
from sveair.errors import LyapunovDomainError, ParameterError, StabilityError
from sveair.grid import Units, build_grid, rect_integral
from sveair.scenarios import (band_initial_state, steady_initial_state,
                              steady_scaled_initial_state)
from sveair.solver import State, boundary_values, force_of_infection, simulate, step


@pytest.fixture(scope="module")
def endemic_setup():
    grid = build_grid(0.25, 400.0)
    params = make_constant_params(grid, beta_i=1e-6, n0=1e7)
    beta_star = rep.solve_beta_star(params)
    assert beta_star > 0.0
    steady = rep.steady_state(params, beta_star)
    return grid, params, steady


@pytest.fixture(scope="module")
def dfe_setup():
    grid = build_grid(0.25, 400.0)
    params = make_constant_params(grid)
    steady = rep.steady_state(params, 0.0)
    weights = dg.lyapunov_weights(params, steady)
    return grid, params, steady, weights


@pytest.fixture(scope="module")
def dfe_evaluator(dfe_setup):
    _, params, steady, _ = dfe_setup
    return dg.LyapunovEvaluator(params, steady)


@pytest.fixture(scope="module")
def endemic_evaluator(endemic_setup):
    _, params, steady = endemic_setup
    return dg.LyapunovEvaluator(params, steady)


def lyapunov(evaluator, state):
    return evaluator(state.s, state.v, state.e.values, state.a.values, state.i.values)


def _backward_tail_loop(source: np.ndarray, rates: np.ndarray, h: float) -> np.ndarray:
    """The node-by-node recursion that `diagnostics._backward_tail` solves in
    blocks, kept as its reference."""
    n = source.shape[0]
    out = np.empty(n)
    acc = 0.0
    decay = 1.0 - h * rates
    for j in range(n - 1, -1, -1):
        acc = h * source[j] + decay[j] * acc
        out[j] = acc
    return out


class TestBackwardTail:
    """The blocked tail equals the node-by-node recursion to round-off."""

    @pytest.mark.parametrize("regime", ["short", "underflow"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_node_by_node_recursion(self, regime, seed):
        # "underflow" has J and rates for which the product of all J decay
        # factors underflows to 0, so a single unblocked block could not
        # represent it.
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.05, 1.0)
        n = int(rng.integers(2, 400) if regime == "short" else rng.integers(3000, 6000))
        top = rng.uniform(0.0, 0.99) / h
        rates = rate_profile(rng, build_grid(h, h * (n - 1)), top, Units.RATE).values
        if regime == "underflow":
            # h * rate >= 0.3 on at least 3000 nodes: the product is below 0.7^3000.
            rates = np.maximum(rates, rng.uniform(0.3, 0.99, n) / h)
            assert np.prod(1.0 - h * rates) == 0.0
        source = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-6.0, 6.0)
        for _ in range(rng.integers(0, 4)):
            low = int(rng.integers(0, n))
            source[low:low + int(rng.integers(1, n // 2 + 2))] = 0.0
        want = _backward_tail_loop(source, rates, h)
        got = dg._backward_tail(source, rates, h)
        # Below 1e-300 both sides are near float64's subnormal range, where
        # an underflowed product carries no relative precision.
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-300)


class TestWeights:
    def test_no_symptomatic_transmission_zeroes_f_i(self, small_grid):
        params = make_constant_params(small_grid, beta_i=0.0)
        steady = rep.steady_state(params, 0.0)
        weights = dg.lyapunov_weights(params, steady)
        np.testing.assert_array_equal(weights.f_i, 0.0)

    def test_stability_guard(self):
        # At h * rate >= 1 a scheme factor is not positive: the weights raise
        # the stepper's StabilityError, not a domain error of the blocking.
        params = make_constant_params(build_grid(0.5, 50.0), k=3.0)
        with pytest.raises(StabilityError, match="reduce h"):
            dg.lyapunov_weights(params, rep.steady_state(params, 0.0))

    def test_constant_rate_tail_integral(self):
        grid = build_grid(0.05, 2000.0)
        params = make_constant_params(grid)
        steady = rep.steady_state(params, 0.0)
        weights = dg.lyapunov_weights(params, steady)
        pool = steady.s_star + 0.5 * steady.v_star
        rate = 0.06 + 5e-5
        expected = pool * 2e-9 / rate * (1.0 - math.exp(-rate * 2000.0))
        assert weights.f_i0 == pytest.approx(expected, rel=5e-3)

    def test_f_e0_matches_reproduction_blocks(self, dfe_setup):
        _, params, steady, weights = dfe_setup
        blocks = rep.scheme_kernels(params)
        expected = (weights.f_a0 * blocks.latent_to_asym
                    + weights.f_i0 * blocks.latent_to_symp)
        assert weights.f_e[0] == pytest.approx(expected, rel=1e-13)

    def test_f_e0_equals_r0_at_disease_free_state(self, dfe_setup):
        _, params, _, weights = dfe_setup
        assert weights.f_e[0] == pytest.approx(
            rep.compute_R0(params, rep.scheme_kernels(params)).r0, rel=1e-12)

    def test_tail_vanishes_at_oldest_node(self, dfe_setup):
        # The truncated tail integral shrinks to one quadrature cell at the
        # last node: f_i[-1] = h * pool * beta_i, O(h) relative to f_i(0).
        grid, params, steady, weights = dfe_setup
        pool = steady.s_star + (1.0 - params.epsilon) * steady.v_star
        assert weights.f_i[-1] == pytest.approx(
            grid.h * pool * params.beta_i.values[-1], rel=1e-13
        )
        assert weights.f_i[-1] < 0.05 * weights.f_i0

    def test_discrete_ode_residual_first_order(self):
        residual_scale = {}
        for h in (0.5, 0.25):
            grid = build_grid(h, 400.0)
            params = make_constant_params(grid)
            steady = rep.steady_state(params, 0.0)
            weights = dg.lyapunov_weights(params, steady)
            pool = steady.s_star + 0.5 * steady.v_star
            f_i = weights.f_i
            rate = params.exit_rate_i
            src = pool * params.beta_i.values
            fd = np.diff(f_i) / h
            residual = fd - (rate[:-1] * f_i[:-1] - src[:-1])
            residual_scale[h] = np.max(np.abs(residual)) / np.max(f_i)
        assert residual_scale[0.25] < 0.7 * residual_scale[0.5]


class TestEvaluatorReference:
    def test_endemic_reference_is_the_discrete_fixed_point(self, endemic_setup,
                                                           endemic_evaluator):
        _, params, steady = endemic_setup
        ref = dg.discrete_fixed_point(params, steady)
        got = endemic_evaluator.steady
        assert got.kind == ref.kind == rep.ENDEMIC
        for name in ("s_star", "v_star", "beta_star", "eps_star", "alpha_star", "iota_star"):
            assert getattr(got, name) == getattr(ref, name)
        for name in ("e_star", "a_star", "i_star"):
            np.testing.assert_array_equal(getattr(got, name).values, getattr(ref, name).values)

    def test_disease_free_reference_is_the_given_state(self, dfe_setup, dfe_evaluator):
        _, _, steady, _ = dfe_setup
        assert dfe_evaluator.steady is steady


class TestDfeLyapunov:
    def test_zero_at_steady_state(self, dfe_setup, dfe_evaluator):
        _, _, steady, _ = dfe_setup
        assert lyapunov(dfe_evaluator, steady_initial_state(steady)) == 0.0

    def test_doubled_scalars(self, dfe_setup, dfe_evaluator):
        grid, _, steady, _ = dfe_setup
        state = State(t=0.0, s=2 * steady.s_star, v=2 * steady.v_star,
                      e=zero_density(grid), a=zero_density(grid), i=zero_density(grid))
        f2 = 2.0 - 1.0 - math.log(2.0)
        expected = steady.s_star * f2 + steady.v_star * f2
        assert lyapunov(dfe_evaluator, state) == pytest.approx(expected, rel=1e-14)

    @given(
        fs=st.floats(0.2, 5.0), fv=st.floats(0.2, 5.0),
        mass=st.floats(0.0, 1e4),
    )
    @settings(max_examples=40, deadline=None)
    def test_positive_away_from_steady_state(self, fs, fv, mass, dfe_setup, dfe_evaluator):
        grid, _, steady, _ = dfe_setup
        state = State(t=0.0, s=steady.s_star * fs, v=steady.v_star * fv,
                      e=band_density(grid, 10.0, 100.0, mass),
                      a=zero_density(grid), i=zero_density(grid))
        value = lyapunov(dfe_evaluator, state)
        if fs == 1.0 and fv == 1.0 and mass == 0.0:
            assert value == 0.0
        else:
            assert value > 0.0

    def test_nonpositive_scalars_rejected(self, dfe_setup, dfe_evaluator):
        grid = dfe_setup[0]
        state = State(t=0.0, s=0.0, v=1.0, e=zero_density(grid),
                      a=zero_density(grid), i=zero_density(grid))
        with pytest.raises(LyapunovDomainError):
            lyapunov(dfe_evaluator, state)


class TestEndemicLyapunov:
    def test_zero_at_steady_state(self, endemic_evaluator):
        value = lyapunov(endemic_evaluator, steady_initial_state(endemic_evaluator.steady))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_doubled_latent_density_factorizes(self, endemic_setup, endemic_evaluator):
        grid, params, _ = endemic_setup
        ref = endemic_evaluator.steady
        weights = dg.lyapunov_weights(params, ref)
        state = State(t=0.0, s=ref.s_star, v=ref.v_star,
                      e=ref.e_star.with_values(2.0 * ref.e_star.values),
                      a=ref.a_star, i=ref.i_star)
        # The integral of a rectangle-rule tail mass is the first moment
        # h * sum (theta_j + h) x_j of its integrand.
        moment = grid.nodes + grid.h
        kq_e = params.k.values * params.q.values * ref.e_star.values
        k1q_e = params.k.values * (1.0 - params.q.values) * ref.e_star.values
        f2 = 2.0 - 1.0 - math.log(2.0)
        expected = f2 * (weights.f_a0 * rect_integral(moment * kq_e, grid)
                         + weights.f_i0 * rect_integral(moment * k1q_e, grid))
        assert lyapunov(endemic_evaluator, state) == pytest.approx(expected, rel=1e-9)

    def test_positive_for_perturbed_state(self, endemic_evaluator):
        ref = endemic_evaluator.steady
        state = State(t=0.0, s=1.3 * ref.s_star, v=0.8 * ref.v_star,
                      e=ref.e_star.with_values(1.5 * ref.e_star.values),
                      a=ref.a_star.with_values(0.5 * ref.a_star.values),
                      i=ref.i_star)
        assert lyapunov(endemic_evaluator, state) > 0.0

    def test_zero_density_at_weighted_node_is_domain_error(self, endemic_setup,
                                                           endemic_evaluator):
        grid = endemic_setup[0]
        ref = endemic_evaluator.steady
        state = State(t=0.0, s=ref.s_star, v=ref.v_star,
                      e=band_density(grid, 100.0, 200.0, 50.0),
                      a=ref.a_star, i=ref.i_star)
        with pytest.raises(LyapunovDomainError):
            lyapunov(endemic_evaluator, state)


class TestMonotonicityCheck:
    def test_constant_series(self):
        report = dg.monotonicity_check(np.full(50, 3.0))
        assert report.ok and report.n_violations == 0

    def test_strictly_increasing_series_flags_every_interval(self):
        values = np.linspace(1.0, 2.0, 20)
        report = dg.monotonicity_check(values, tol=0.0)
        assert report.n_violations == 19

    def test_decreasing_with_tiny_wiggle_within_tol(self):
        values = np.array([10.0, 8.0, 8.0 + 1e-12, 5.0])
        report = dg.monotonicity_check(values)
        assert report.ok

    def test_infinite_prefix_is_nonincreasing(self):
        values = np.array([np.inf, np.inf, 5.0, 4.0])
        assert dg.monotonicity_check(values).ok

    def test_jump_to_infinity_is_violation(self):
        values = np.array([5.0, np.inf, np.inf])
        assert dg.monotonicity_check(values).n_violations == 1

    def test_nan_flags(self):
        values = np.array([5.0, np.nan, 4.0])
        assert dg.monotonicity_check(values).n_violations == 2

    def test_reported_intervals_carry_times(self):
        times = np.array([0.0, 1.0, 2.0])
        report = dg.monotonicity_check(np.array([1.0, 0.5, 5.0]), times)
        assert report.intervals[0][1:3] == (1.0, 2.0)


class TestConvergenceMetric:
    def test_zero_at_steady_state(self, endemic_setup):
        _, params, steady = endemic_setup
        state = steady_initial_state(steady)
        assert dg.convergence_metric(state, steady, params.n0) == 0.0

    def test_zero_densities_against_dfe(self, dfe_setup):
        grid, params, steady, _ = dfe_setup
        state = State(t=0.0, s=steady.s_star + 100.0, v=steady.v_star + 50.0,
                      e=zero_density(grid), a=zero_density(grid), i=zero_density(grid))
        assert dg.convergence_metric(state, steady, params.n0) == pytest.approx(
            150.0 / params.n0, rel=1e-12
        )

    def test_homogeneous_scaling(self, endemic_setup):
        grid, params, steady = endemic_setup
        state = State(t=0.0, s=1.1 * steady.s_star, v=1.1 * steady.v_star,
                      e=steady.e_star.with_values(1.1 * steady.e_star.values),
                      a=steady.a_star.with_values(1.1 * steady.a_star.values),
                      i=steady.i_star.with_values(1.1 * steady.i_star.values))
        masses = (steady.s_star + steady.v_star
                  + rect_integral(steady.e_star.values, grid)
                  + rect_integral(steady.a_star.values, grid)
                  + rect_integral(steady.i_star.values, grid))
        assert dg.convergence_metric(state, steady, params.n0) == pytest.approx(
            0.1 * masses / params.n0, rel=1e-9
        )


def _ramped_params(grid, r0, r0_of, ramp, beta_ratio, **rates):
    """Constant rates except k, chi and gamma_i, which ramp linearly with
    age, so the survival products must line up with the age nodes; the
    transmission rates are scaled so that r0_of(params) = r0 (R0 is linear
    in them)."""

    def build(scale):
        params = make_constant_params(grid, n0=1e7, beta_a=1e-9 * scale,
                                      beta_i=1e-9 * beta_ratio * scale, **rates)
        ramped = np.linspace(1.0, ramp, grid.n_nodes)
        return replace(params, **{name: getattr(params, name).with_values(
            ramped * getattr(params, name).values) for name in ("k", "chi", "gamma_i")})

    return build(r0 / r0_of(build(1.0)))


def _scheme_r0(params):
    return rep.compute_R0(params, rep.scheme_kernels(params)).r0


_RATES = dict(
    mu=st.floats(1e-5, 1e-3), p=st.floats(0.0, 1e-2),
    epsilon=st.floats(0.0, 1.0), zeta=st.floats(0.0, 0.1),
    k=st.floats(0.05, 0.5), q=st.floats(0.0, 1.0), xi=st.floats(0.0, 1.0),
    chi=st.floats(0.01, 0.3), gamma_a=st.floats(0.02, 0.3), gamma_i=st.floats(0.02, 0.3),
    ramp=st.floats(0.5, 1.8), beta_ratio=st.floats(0.01, 100.0),
)


class TestLyapunovDecrease:
    """The scheme's Lyapunov functions do not increase along a run."""

    @given(
        h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=st.floats(50.0, 400.0),
        r0=st.floats(1.05, 20.0), mass=st.floats(0.0, 7.0), s_off=st.floats(-1.0, 1.0),
        v_off=st.floats(-1.0, 1.0), **{**_RATES, "p": st.floats(1e-4, 1e-2),
                                         "q": st.floats(0.05, 0.95)},
    )
    @settings(max_examples=120, deadline=None)
    def test_endemic(self, h, theta_max, r0, mass, s_off, v_off, **rates):
        # Steady-scaled seeds of mass 10^mass about the scheme's fixed point,
        # S and V up to 10x off their steady values, scheme r0 in [1.05, 20].
        # q inside (0, 1) gives A* and I* mass, and p > 0 gives V* mass.
        params = _ramped_params(build_grid(h, theta_max), r0, _scheme_r0, **rates)
        evaluator = dg.LyapunovEvaluator(params, rep.matching_steady_state(params)[1])
        ref = evaluator.steady
        init = steady_scaled_initial_state(params, ref, ref.s_star * 10.0 ** s_off,
                                           ref.v_star * 10.0 ** v_off, 10.0 ** mass)
        self._assert_no_increase(evaluator, init, params)

    @given(
        h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=st.floats(50.0, 400.0),
        r0=st.floats(0.05, 0.95), mass=st.floats(0.0, 7.0), s_off=st.floats(-1.0, 1.0),
        v_off=st.floats(-1.0, 1.0), band=st.tuples(st.floats(0.0, 0.5), st.floats(0.01, 0.5)),
        **{**_RATES, "p": st.floats(1e-4, 1e-2)},
    )
    @settings(max_examples=40, deadline=None)
    def test_disease_free(self, h, theta_max, r0, mass, s_off, v_off, band, **rates):
        # Band seeds of mass 10^mass below the threshold (r0 < 1, so the
        # scheme's r0 is too), S and V up to 10x off the disease-free values
        # (p > 0, so V* > 0).
        grid = build_grid(h, theta_max)
        params = _ramped_params(grid, r0, lambda p: rep.compute_R0(p).r0, **rates)
        _, free = rep.matching_steady_state(params)
        assert free.kind != rep.ENDEMIC
        low = band[0] * theta_max
        init = band_initial_state(params, free.s_star * 10.0 ** s_off,
                                  free.v_star * 10.0 ** v_off, 10.0 ** mass,
                                  (low, low + max(band[1] * theta_max, h)))
        self._assert_no_increase(dg.LyapunovEvaluator(params, free), init, params)

    @staticmethod
    def _assert_no_increase(evaluator, init, params):
        times, values = [], []
        simulate(init, params, t_max=300.0, observer=evaluator.observer(times, values))
        report = dg.monotonicity_check(values, times)
        assert report.n_violations == 0, report.intervals[:3]


class TestDiscreteFixedPoint:
    def test_closed_form_is_stationary(self):
        grid = build_grid(0.5, 400.0)
        params = make_constant_params(grid, beta_i=1e-6, n0=1e7)
        steady = rep.steady_state(params, rep.solve_beta_star(params))
        ref = dg.discrete_fixed_point(params, steady)

        after = step(steady_initial_state(ref), params)
        drift_ref = dg.convergence_metric(after, ref, params.n0)
        drift_closed_form = dg.convergence_metric(
            step(steady_initial_state(steady), params), steady, params.n0
        )
        assert drift_ref < 1e-15
        assert drift_ref < 1e-3 * drift_closed_form
        # The former construction, relaxation under the solver, lands on it.
        relaxed = simulate(steady_initial_state(steady), params, t_max=8000.0,
                           sample_every=8000.0).final_state
        assert dg.convergence_metric(relaxed, ref, params.n0) < 1e-11

    @given(h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=st.floats(50.0, 400.0),
           r0_scheme=st.floats(1.05, 20.0), **_RATES)
    @settings(max_examples=40, deadline=None)
    def test_reproduces_its_functionals(self, h, theta_max, r0_scheme, **rates):
        params = _ramped_params(build_grid(h, theta_max), r0_scheme, _scheme_r0, **rates)
        ref = dg.discrete_fixed_point(params, rep.matching_steady_state(params)[1])

        state = steady_initial_state(ref)
        bounds = boundary_values(state, params)
        assert force_of_infection(state, params) == pytest.approx(ref.beta_star, rel=1e-13)
        assert bounds.eps == pytest.approx(ref.eps_star, rel=1e-13)
        assert bounds.alpha == pytest.approx(ref.alpha_star, rel=1e-13)
        assert bounds.iota == pytest.approx(ref.iota_star, rel=1e-13)
        later = simulate(state, params, t_max=10.0, sample_every=10.0).final_state
        assert dg.convergence_metric(later, ref, params.n0) <= 1e-14

    def test_scheme_below_threshold_is_rejected(self):
        # The scheme's survival is below the exponential's, so its r0 is
        # smaller: 0.946 at h = 1 where the continuous r0 is 1.03.
        grid = build_grid(1.0, 400.0)
        scale = 1.03 / rep.compute_R0(make_constant_params(grid)).r0
        params = make_constant_params(grid, beta_a=1e-9 * scale, beta_i=2e-9 * scale)
        _, steady = rep.matching_steady_state(params)
        assert steady.kind == rep.ENDEMIC
        with pytest.raises(ParameterError, match=(
            r"r0 = 1\.03 > 1, but the scheme's own r0 at h = 1 is 0\.9457\d* <= 1"
            r".*use a smaller h"
        )):
            dg.discrete_fixed_point(params, steady)

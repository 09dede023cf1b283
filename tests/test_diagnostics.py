"""Lyapunov weights, both Lyapunov functions, and the run metrics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (band_density, make_constant_params, rate_profile, with_last_node_k,
                      zero_density)
from sveair import diagnostics as dg
from sveair import reproduction as rep
from sveair.errors import LyapunovDomainError, StabilityError
from sveair.grid import (Units, block_products, build_grid, rect_integral,
                         scheme_factors, scheme_tail)
from sveair.scenarios import (band_initial_state, steady_initial_state,
                              steady_scaled_initial_state)
from sveair.solver import State, _functionals, simulate


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
    """The node-by-node recursion that `grid.scheme_tail` solves in blocks,
    kept as its reference."""
    n = source.shape[0]
    out = np.empty(n)
    acc = 0.0
    decay = 1.0 - h * rates
    for j in range(n - 1, -1, -1):
        acc = h * source[j] + decay[j] * acc
        out[j] = acc
    return out


class TestBackwardTail:
    """The blocked tail `grid.scheme_tail`, which the Lyapunov weights are
    built from, equals the node-by-node recursion to round-off."""

    @pytest.mark.parametrize("regime", ["short", "underflow"])
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=11129429)  # a three-node grid with a piecewise rate profile
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
        got = scheme_tail(source, rates, h)
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
        # The steady state comes from stable parameters, since one built on
        # the unstable ones would raise first.
        stable = make_constant_params(build_grid(0.5, 50.0))
        steady = rep.steady_state(stable, 0.0)
        for params in (replace(stable, k=stable.k.with_values(stable.k.values + 3.0)),
                       with_last_node_k(stable, 2.5)):
            with pytest.raises(StabilityError, match="reduce h"):
                dg.lyapunov_weights(params, steady)

    def test_constant_rate_tail_integral(self):
        grid = build_grid(0.05, 2000.0)
        params = make_constant_params(grid)
        steady = rep.steady_state(params, 0.0)
        weights = dg.lyapunov_weights(params, steady)
        pool = steady.s_star + 0.5 * steady.v_star
        rate = 0.06 + 5e-5
        expected = pool * 2e-9 / rate * (1.0 - math.exp(-rate * 2000.0))
        assert weights.f_i[0] == pytest.approx(expected, rel=5e-3)

    def test_f_e0_matches_reproduction_blocks(self, dfe_setup):
        _, params, steady, weights = dfe_setup
        blocks = rep.kernels(params)
        expected = (weights.f_a[0] * blocks.latent_to_asym
                    + weights.f_i[0] * blocks.latent_to_symp)
        assert weights.f_e[0] == pytest.approx(expected, rel=1e-13)

    def test_f_e0_equals_r0_at_disease_free_state(self, dfe_setup):
        _, params, _, weights = dfe_setup
        assert weights.f_e[0] == pytest.approx(rep.compute_R0(params).r0, rel=1e-12)

    def test_tail_vanishes_at_oldest_node(self, dfe_setup):
        # The truncated tail integral shrinks to one quadrature cell at the
        # last node: f_i[-1] = h * pool * beta_i, O(h) relative to f_i(0).
        grid, params, steady, weights = dfe_setup
        pool = steady.s_star + (1.0 - params.epsilon) * steady.v_star
        assert weights.f_i[-1] == pytest.approx(
            grid.h * pool * params.beta_i.values[-1], rel=1e-13
        )
        assert weights.f_i[-1] < 0.05 * weights.f_i[0]

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
        # The steady states of `reproduction` are the scheme's fixed points,
        # so the evaluator uses the given one, as for the disease-free state.
        _, _, steady = endemic_setup
        assert steady.kind == rep.ENDEMIC
        assert endemic_evaluator.steady is steady

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

    def test_short_array_is_refused(self, dfe_setup, dfe_evaluator):
        # L weighs all J nodes; a shorter array, one node included, is not
        # broadcast against the weights.
        grid, _, steady, _ = dfe_setup
        for size in (1, grid.n_nodes - 1):
            with pytest.raises(ValueError):
                dfe_evaluator(steady.s_star, 1.0, np.ones(grid.n_nodes), np.ones(size),
                              np.ones(grid.n_nodes))


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
        expected = f2 * (weights.f_a[0] * rect_integral(moment * kq_e, grid)
                         + weights.f_i[0] * rect_integral(moment * k1q_e, grid))
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


def _ramped_params(grid, r0, ramp, beta_ratio, **rates):
    """Constant rates except k, chi and gamma_i, which ramp linearly with
    age, so the survival products must line up with the age nodes; the
    transmission rates are scaled so that the scheme's r0 is r0 (R0 is
    linear in them)."""

    def build(scale):
        params = make_constant_params(grid, n0=1e7, beta_a=1e-9 * scale,
                                      beta_i=1e-9 * beta_ratio * scale, **rates)
        ramped = np.linspace(1.0, ramp, grid.n_nodes)
        return replace(params, **{name: getattr(params, name).with_values(
            ramped * getattr(params, name).values) for name in ("k", "chi", "gamma_i")})

    return build(r0 / rep.compute_R0(build(1.0)).r0)


_RATES = dict(
    mu=st.floats(1e-5, 1e-3), p=st.floats(0.0, 1e-2),
    epsilon=st.floats(0.0, 1.0), zeta=st.floats(0.0, 0.1),
    k=st.floats(0.05, 0.5), q=st.floats(0.0, 1.0), xi=st.floats(0.0, 1.0),
    chi=st.floats(0.01, 0.3), gamma_a=st.floats(0.02, 0.3), gamma_i=st.floats(0.02, 0.3),
    ramp=st.floats(0.5, 1.8), beta_ratio=st.floats(0.01, 100.0),
)

# Vaccination rates for the decrease tests: p = 0 (V* = 0) in about half
# the draws, else p > 0. A plain one_of(just(0.0), ...) drew 0 only once in
# 120 examples.
_P_WITH_ZERO = st.builds(lambda off, p: 0.0 if off else p, st.booleans(),
                         st.floats(1e-4, 1e-2))


class TestLyapunovDecrease:
    """The scheme's Lyapunov functions do not increase along a run."""

    @given(
        h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=st.floats(50.0, 400.0),
        r0=st.floats(1.05, 20.0), mass=st.floats(0.0, 7.0), s_off=st.floats(-1.0, 1.0),
        v_off=st.floats(-1.0, 1.0), **{**_RATES, "p": _P_WITH_ZERO,
                                         "q": st.floats(0.05, 0.95)},
    )
    @settings(max_examples=120, deadline=None)
    def test_endemic(self, h, theta_max, r0, mass, s_off, v_off, **rates):
        # Steady-scaled seeds of mass 10^mass about the scheme's fixed point,
        # S and V up to 10x off their steady values, scheme r0 in [1.05, 20].
        # q inside (0, 1) gives A* and I* mass; p = 0 gives V* = 0, where
        # the V term of L is its V* -> 0 limit.
        params = _ramped_params(build_grid(h, theta_max), r0, **rates)
        _, ref = rep.matching_steady_state(params)
        evaluator = dg.LyapunovEvaluator(params, ref)
        init = steady_scaled_initial_state(params, ref, ref.s_star * 10.0 ** s_off,
                                           ref.v_star * 10.0 ** v_off, 10.0 ** mass)
        self._assert_no_increase(evaluator, init, params)

    @given(
        h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=st.floats(50.0, 400.0),
        r0=st.floats(0.05, 0.95), mass=st.floats(0.0, 7.0), s_off=st.floats(-1.0, 1.0),
        v_off=st.floats(-1.0, 1.0), band=st.tuples(st.floats(0.0, 0.5), st.floats(0.01, 0.5)),
        **{**_RATES, "p": _P_WITH_ZERO},
    )
    @settings(max_examples=40, deadline=None)
    def test_disease_free(self, h, theta_max, r0, mass, s_off, v_off, band, **rates):
        # Band seeds of mass 10^mass below the threshold (r0 < 1), S and V
        # up to 10x off the disease-free values (V* = 0 when p = 0).
        grid = build_grid(h, theta_max)
        params = _ramped_params(grid, r0, **rates)
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


class TestDiseaseFreeSum:
    """The disease-free L is the S and V part plus h * (f_c @ x_c)."""

    @given(
        h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=st.floats(50.0, 400.0),
        r0=st.floats(0.05, 0.95), mass=st.floats(0.0, 7.0), s_off=st.floats(-1.0, 1.0),
        v_off=st.floats(-1.0, 1.0), band=st.tuples(st.floats(0.0, 0.5), st.floats(0.01, 0.5)),
        **{**_RATES, "p": _P_WITH_ZERO},
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_exact_sums(self, h, theta_max, r0, mass, s_off, v_off, band,
                                   **rates):
        # Reference: each density part summed exactly by math.fsum. The
        # evaluator's dot adds J products, and the five parts are added in
        # four more steps, so it lies within (J + 4) eps of the sum of
        # magnitudes of the parts.
        grid = build_grid(h, theta_max)
        params = _ramped_params(grid, r0, **rates)
        _, free = rep.matching_steady_state(params)
        assert free.kind != rep.ENDEMIC
        low = band[0] * theta_max
        init = band_initial_state(params, free.s_star * 10.0 ** s_off,
                                  free.v_star * 10.0 ** v_off, 10.0 ** mass,
                                  (low, low + max(band[1] * theta_max, h)))
        weights = dg.lyapunov_weights(params, free)
        s, v, dens = init.s, init.v, (init.e.values, init.a.values, init.i.values)
        scalar = free.s_star * dg.entropy_f(s / free.s_star)
        scalar += free.v_star * dg.entropy_f(v / free.v_star) if free.v_star > 0.0 else v
        products = [f * x for f, x in zip((weights.f_e, weights.f_a, weights.f_i), dens)]
        want = scalar + h * sum(math.fsum(row) for row in products)
        bound = (grid.n_nodes + 4) * np.finfo(float).eps * (
            abs(scalar) + h * sum(float(np.abs(row).sum()) for row in products))
        evaluator = dg.LyapunovEvaluator(params, free)
        assert not hasattr(evaluator, "nodes")
        assert abs(evaluator(s, v, *dens) - want) <= bound

        # The observer of a one-step pass is handed all J nodes, and its
        # first sample is the call on those arrays, bit for bit.
        times, values, calls = [], [], []
        observe = evaluator.observer(times, values)
        assert not hasattr(observe, "nodes")

        def both(t, s, v, e, a, i):
            assert e.size == a.size == i.size == grid.n_nodes
            calls.append(evaluator(s, v, e, a, i))
            observe(t, s, v, e, a, i)

        simulate(init, params, t_max=h, sample_every=h, observer=both)
        assert times == [0.0, h]
        assert values == calls


def _masked(weight, star):
    """(mask, weight, steady density) at the nodes a ratio integrand reads,
    selected by a boolean mask: the selection the evaluator's prefixes
    replaced, kept as their reference."""
    mask = (star >= dg.STEADY_DENSITY_FLOOR) & (weight > 0.0)
    return mask, weight[mask], star[mask]


def _endemic_terms_by_reversed_sums(params, steady, weights):
    """The endemic ratio terms as reversed cumulative rectangle sums of the
    steady-state integrands, the construction `endemic_tail_weights`
    replaced, kept as its reference."""
    h = params.grid.h

    def tail(values):
        return h * np.cumsum(values[::-1])[::-1]

    kv, qv = params.k.values, params.q.values
    chi_branch = params.chi.values * (1.0 - params.xi.values)
    pool = steady.s_star + (1.0 - params.epsilon) * steady.v_star
    f_a0, f_i0 = weights.f_a[0], weights.f_i[0]
    e_star, a_star, i_star = steady.e_star.values, steady.a_star.values, steady.i_star.values
    return tuple(_masked(weight, star) for weight, star in (
        (f_a0 * tail(kv * qv * e_star) + f_i0 * tail(kv * (1.0 - qv) * e_star), e_star),
        (pool * tail(params.beta_a.values * a_star) + f_i0 * tail(chi_branch * a_star),
         a_star),
        (pool * tail(params.beta_i.values * i_star), i_star),
    ))


class TestEndemicTailWeights:
    @given(h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=st.floats(50.0, 400.0),
           r0=st.floats(1.05, 20.0), **_RATES)
    @settings(max_examples=60, deadline=None)
    def test_equal_the_reversed_sums(self, h, theta_max, r0, **rates):
        # c* * f_c and the reversed sums add the same J <= 1601 products in
        # different orders, so they differ by a few J ulps of the largest
        # weight. Where c* nears 1e-300 the reversed sums also drop the
        # flushed subnormal tail; that is far below this bound.
        params = _ramped_params(build_grid(h, theta_max), r0, **rates)
        _, steady = rep.matching_steady_state(params)
        weights = dg.lyapunov_weights(params, steady)
        got = dg.endemic_tail_weights(steady, weights)
        want = _endemic_terms_by_reversed_sums(params, steady, weights)
        for (k, weight, star), (ref_mask, ref_weight, ref_star) in zip(got, want):
            np.testing.assert_array_equal(np.arange(ref_mask.size) < k, ref_mask)
            np.testing.assert_array_equal(star, ref_star)
            np.testing.assert_allclose(weight, ref_weight, rtol=0.0,
                                       atol=1e-12 * float(ref_weight.max(initial=0.0)))


# Ages long enough that c* falls below STEADY_DENSITY_FLOOR in some draws,
# so the read prefix is shorter than the grid.
_LONG_THETA = st.floats(50.0, 4000.0)
# A draw whose e prefix is 7660 of 12001 nodes.
_SHORT_PREFIX = dict(h=0.25, theta_max=3000.0, r0=3.0, ramp=1.5, beta_ratio=1.0, mu=1e-4,
                     p=1e-3, epsilon=0.5, zeta=0.05, k=0.3, q=0.5, xi=0.5, chi=0.1,
                     gamma_a=0.1, gamma_i=0.1)


@pytest.fixture(scope="module")
def short_prefix_setup():
    draw = dict(_SHORT_PREFIX)
    params = _ramped_params(build_grid(draw.pop("h"), draw.pop("theta_max")), **draw)
    _, ref = rep.matching_steady_state(params)
    return params, ref, dg.LyapunovEvaluator(params, ref)


def _concatenating_observer(evaluator, times, values):
    """The endemic observer as it was before its terms got a buffer with
    slack: per compartment and sample, a new array of the fresh terms
    followed by the carried ones, np.concatenate((fresh, carried[:k - m])).
    The reference of the buffered observer's property; its draws are
    positive, so the domain check is left out."""
    h = evaluator.h
    carried = [np.empty(0)] * 3

    def observe(t, s, v, e, a, i):
        total = evaluator._scalar_terms(s, v)
        for c, ((k, weight, star), density) in enumerate(zip(evaluator.ratio_terms, (e, a, i))):
            fresh = density[:k]
            carried[c] = np.concatenate(
                (dg.entropy_f(fresh / star[:fresh.size]), carried[c][:k - fresh.size]))
            total += h * float(weight @ carried[c])
        values.append(total)
        times.append(t)

    return observe


# Steps between samples: a few, anything up to J = 12,001 of the short-prefix
# draw, whose prefixes are (7660, 12001, 12001), or all J.
_GAPS = st.one_of(st.integers(1, 64), st.integers(1, 12_001), st.just(12_001))


class TestEndemicPrefix:
    """The endemic function reads a leading prefix of each density, and its
    observer carries the terms of that prefix along the characteristics."""

    @given(h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=_LONG_THETA,
           r0=st.floats(1.05, 20.0), **_RATES)
    @example(**_SHORT_PREFIX)
    @settings(max_examples=60, deadline=None)
    def test_mask_is_the_prefix(self, h, theta_max, r0, **rates):
        params = _ramped_params(build_grid(h, theta_max), r0, **rates)
        _, steady = rep.matching_steady_state(params)
        weights = dg.lyapunov_weights(params, steady)
        terms = dg.endemic_tail_weights(steady, weights)
        for (k, weight, star), profile, c_star in zip(
                terms, (weights.f_e, weights.f_a, weights.f_i),
                (steady.e_star.values, steady.a_star.values, steady.i_star.values)):
            mask, ref_weight, ref_star = _masked(profile * c_star, c_star)
            np.testing.assert_array_equal(np.arange(mask.size) < k, mask)
            np.testing.assert_array_equal(weight, ref_weight)
            np.testing.assert_array_equal(star, ref_star)
        assert dg.LyapunovEvaluator(params, steady).nodes == tuple(k for k, _, _ in terms)

    @given(h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=_LONG_THETA,
           r0=st.floats(1.05, 20.0), mass=st.floats(0.0, 7.0), s_off=st.floats(-1.0, 1.0),
           every=st.sampled_from([1, 3]), steps=st.integers(30, 120),
           **{**_RATES, "q": st.floats(0.05, 0.95)})
    @example(mass=3.0, s_off=0.5, every=3, steps=100, **_SHORT_PREFIX)  # last gap 1 step
    # J = 51 nodes, so a 60-step stride hands every sample over all fresh.
    @example(mass=3.0, s_off=0.5, every=60, steps=130,
             **{**_SHORT_PREFIX, "h": 1.0, "theta_max": 50.0})
    @settings(max_examples=40, deadline=None)
    def test_carried_observer_matches_full_densities(self, h, theta_max, r0, mass, s_off,
                                                     every, steps, **rates):
        # The observer carries f(x / c*) along the characteristics and is
        # handed only the cohorts that entered since its previous sample.
        # Its first sample, and every sample when the stride reaches the
        # prefixes, is the evaluator's arithmetic on the same nodes, so bit
        # for bit. Later ones differ by round-off: x and c* are each Q of
        # `grid.block_products` times a product of whole-block factors,
        # formed in different orders, so x / c* drifts by at most about
        # delta = (L + 2 * blocks + 8) * eps relative, L the block length,
        # and f(x / c*) moves by at most delta * (r + 1 + |ln r|). Summed
        # with the weights, plus 4 eps |L| for adding the S and V part.
        params = _ramped_params(build_grid(h, theta_max), r0, **rates)
        _, ref = rep.matching_steady_state(params)
        evaluator = dg.LyapunovEvaluator(params, ref)
        init = steady_scaled_initial_state(params, ref, ref.s_star * 10.0 ** s_off,
                                           ref.v_star, 10.0 ** mass)
        exit_rates = np.stack((params.exit_rate_e, params.exit_rate_a, params.exit_rate_i))
        block = block_products(scheme_factors(exit_rates, h))[0]
        n_nodes = params.grid.n_nodes
        delta = (block + 2 * math.ceil(n_nodes / block) + 8) * np.finfo(float).eps
        t_max, stride = steps * h, every * h

        times, values, sizes = [], [], []
        observe = evaluator.observer(times, values)

        def carried(t, s, v, e, a, i):
            sizes.append((e.size, a.size, i.size))
            observe(t, s, v, e, a, i)

        carried.nodes = observe.nodes
        simulate(init, params, t_max=t_max, sample_every=stride, observer=carried)
        full, scale = [], []

        def plain(t, s, v, e, a, i):
            full.append(evaluator(s, v, e, a, i))
            spread = 0.0
            for (k, weight, star), density in zip(evaluator.ratio_terms, (e, a, i)):
                r = density[:k] / star
                spread += h * float(weight @ (r + 1.0 + np.abs(np.log(r))))
            scale.append(delta * spread + 4.0 * np.finfo(float).eps * abs(full[-1]))

        simulate(init, params, t_max=t_max, sample_every=stride, observer=plain)
        sampled = sorted({*range(0, steps + 1, every), steps})
        assert sizes == [evaluator.nodes] + [
            tuple(min(k, gap) for k in evaluator.nodes) for gap in np.diff(sampled)]
        assert values[0] == full[0]
        if every >= max(evaluator.nodes):
            np.testing.assert_array_equal(values, full)
        excess = np.abs(np.subtract(values, full)) - scale
        assert excess.max() <= 0.0, (int(excess.argmax()), excess.max())

    @given(gaps=st.lists(_GAPS, min_size=8, max_size=30), last=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_buffered_carry_matches_the_concatenating_one(self, short_prefix_setup, gaps,
                                                          last, seed):
        # The observer writes fresh terms into the slack before the carried
        # ones and moves them back when the slack runs out. Against the
        # concatenating reference, on random positive densities: the gaps
        # average about 6,000 nodes, so a draw moves the carried terms back
        # several times; gaps of k or more nodes hand every term over
        # fresh; and the run ends on a gap of 1 to 3 nodes. Every L is the
        # same bits.
        params, ref, evaluator = short_prefix_setup
        n_nodes = params.grid.n_nodes
        assert evaluator.nodes == (7660, n_nodes, n_nodes)
        stars = [c.values for c in (ref.e_star, ref.a_star, ref.i_star)]
        rng = np.random.default_rng(seed)
        got, want = [], []
        observers = (evaluator.observer([], got), _concatenating_observer(evaluator, [], want))
        for t, gap in enumerate([n_nodes, *gaps, last]):
            size = min(gap, n_nodes)
            dens = [star[:size] * rng.uniform(0.5, 2.0, size) for star in stars]
            s, v = ref.s_star * rng.uniform(0.5, 2.0), ref.v_star * rng.uniform(0.5, 2.0)
            for observe in observers:
                observe(float(t), s, v, *dens)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_observer_reads_all_nodes_of_a_longer_array(self):
        # A wrapper that hides `nodes` is handed all J nodes at every
        # sample; the observer reads each as all fresh, so it is the
        # evaluator on every sample.
        draw = dict(_SHORT_PREFIX)
        params = _ramped_params(build_grid(draw.pop("h"), draw.pop("theta_max")), **draw)
        _, ref = rep.matching_steady_state(params)
        evaluator = dg.LyapunovEvaluator(params, ref)
        assert evaluator.nodes[0] < params.grid.n_nodes
        init = steady_scaled_initial_state(params, ref, 2.0 * ref.s_star, ref.v_star, 1e3)
        times, values = [], []
        observe = evaluator.observer(times, values)
        simulate(init, params, t_max=20.0, observer=lambda *sample: observe(*sample))
        full = []
        simulate(init, params, t_max=20.0,
                 observer=lambda t, s, v, e, a, i: full.append(evaluator(s, v, e, a, i)))
        assert len(values) == 21
        np.testing.assert_array_equal(values, full)

    def test_nonpositive_fresh_node_raises_at_its_sample(self, endemic_setup,
                                                         endemic_evaluator):
        _, _, steady = endemic_setup
        times, values = [], []
        observe = endemic_evaluator.observer(times, values)
        dens = [c.values for c in (steady.e_star, steady.a_star, steady.i_star)]
        observe(0.0, steady.s_star, steady.v_star, *dens)
        observe(1.0, steady.s_star, steady.v_star, *(d[:2] for d in dens))
        assert values == [0.0, 0.0]
        for bad in (0.0, -1.0):
            holed = dens[2][:2].copy()
            holed[1] = bad
            with pytest.raises(LyapunovDomainError):
                observe(2.0, steady.s_star, steady.v_star, dens[0][:2], dens[1][:2], holed)
        assert times == [0.0, 1.0]

    def test_short_array_is_refused(self, endemic_setup, endemic_evaluator):
        # A call, like an observer's first sample, has nothing carried, so
        # an array shorter than its prefix cannot be completed: it raises,
        # and no NaN or partial sum comes back.
        _, _, steady = endemic_setup
        dens = [c.values for c in (steady.e_star, steady.a_star, steady.i_star)]
        for c, k in enumerate(endemic_evaluator.nodes):
            for size in sorted({k - 1, 1, 0}):
                short = list(dens)
                short[c] = dens[c][:size]
                with pytest.raises(ValueError):
                    endemic_evaluator(steady.s_star, steady.v_star, *short)
                times, values = [], []
                observe = endemic_evaluator.observer(times, values)
                with pytest.raises(ValueError):
                    observe(0.0, steady.s_star, steady.v_star, *short)
                assert times == values == []

    @given(h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=_LONG_THETA,
           r0=st.floats(1.05, 20.0), **{**_RATES, "q": st.floats(0.05, 0.95)})
    @example(**_SHORT_PREFIX)
    @settings(max_examples=30, deadline=None)
    def test_zero_inside_the_prefix_raises(self, h, theta_max, r0, **rates):
        # A zero at the last read e node makes L infinite at t = 0; a zero at
        # the first unread node, when there is one, is transported further
        # out and never read.
        params = _ramped_params(build_grid(h, theta_max), r0, **rates)
        _, ref = rep.matching_steady_state(params)
        evaluator = dg.LyapunovEvaluator(params, ref)
        k_e = evaluator.nodes[0]
        init = steady_scaled_initial_state(params, ref, ref.s_star, ref.v_star, 1e3)

        def holed(node):
            values = init.e.values.copy()
            values[node] = 0.0
            return replace(init, e=init.e.with_values(values))

        with pytest.raises(LyapunovDomainError):
            simulate(holed(k_e - 1), params, t_max=3.0, observer=evaluator.observer([], []))
        if k_e < params.grid.n_nodes:
            simulate(holed(k_e), params, t_max=3.0, observer=evaluator.observer([], []))


class TestDiscreteFixedPoint:
    def test_closed_form_is_stationary(self):
        grid = build_grid(0.5, 400.0)
        params = make_constant_params(grid, beta_i=1e-6, n0=1e7)
        steady = rep.steady_state(params, rep.solve_beta_star(params))

        h = grid.h
        after = simulate(steady_initial_state(steady), params, t_max=h, sample_every=h).final_state
        assert dg.convergence_metric(after, steady, params.n0) < 1e-15
        # Relaxation under the solver from a perturbed S and V lands on it.
        perturbed = replace(steady_initial_state(steady), s=1.01 * steady.s_star,
                            v=0.99 * steady.v_star)
        relaxed = simulate(perturbed, params, t_max=8000.0, sample_every=8000.0).final_state
        assert dg.convergence_metric(relaxed, steady, params.n0) < 1e-11

    @given(h=st.sampled_from([0.25, 0.5, 1.0]), theta_max=st.floats(50.0, 400.0),
           r0=st.floats(1.05, 20.0), **_RATES)
    @settings(max_examples=40, deadline=None)
    def test_reproduces_its_functionals(self, h, theta_max, r0, **rates):
        params = _ramped_params(build_grid(h, theta_max), r0, **rates)
        _, ref = rep.matching_steady_state(params)

        state = steady_initial_state(ref)
        run = simulate(state, params, t_max=10.0, sample_every=10.0)
        ts = run.timeseries
        assert ts.beta[0] == pytest.approx(ref.beta_star, rel=1e-13)
        # eps of the state's own S and V, before the first step updates them.
        eps = _functionals(params, state)[1]
        assert eps == pytest.approx(ref.eps_star, rel=1e-13)
        assert ts.alpha[0] == pytest.approx(ref.alpha_star, rel=1e-13)
        assert ts.iota[0] == pytest.approx(ref.iota_star, rel=1e-13)
        assert dg.convergence_metric(run.final_state, ref, params.n0) <= 1e-14

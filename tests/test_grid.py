"""Age mesh, profile sampling, and the survival products."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sveair.errors import InvalidGridError, ParameterError, ProfileError, StabilityError
from sveair.grid import (
    BLOCK_FLOOR,
    AgeGrid,
    AgeProfile,
    Units,
    build_grid,
    constant_profile,
    load_profile_csv,
    sample_contact,
    sample_step_function,
    block_products,
    scheme_factors,
    scheme_survival,
    scheme_tail,
    survival,
)

YEAR = 360.0

K_BREAKS = [30 * YEAR, 40 * YEAR, 50 * YEAR, 60 * YEAR, 70 * YEAR]
K_VALUES = [1 / 4, 1 / 4.8, 1 / 4.8, 1 / 5.5, 1 / 3.1, 1 / 6]
CHI_VALUES = [1 / 5, 1 / 5.8, 1 / 5.8, 1 / 6.5, 1 / 4.1, 1 / 7]


class TestBuildGrid:
    def test_full_fidelity_grid_node_count(self):
        grid = build_grid(0.05, 90 * YEAR)
        assert grid.n_nodes == 648001

    def test_minimal_grid(self):
        grid = build_grid(1.0, 1.0)
        assert grid.n_nodes == 2
        np.testing.assert_array_equal(grid.nodes, [0.0, 1.0])

    def test_non_divisible_step(self):
        grid = build_grid(0.3, 1.0)
        assert grid.n_nodes == 4
        assert grid.nodes[-1] == pytest.approx(0.9)

    @pytest.mark.parametrize("h,theta_max", [(0.0, 1.0), (-1.0, 10.0), (1.0, 0.5)])
    def test_invalid_inputs(self, h, theta_max):
        with pytest.raises(InvalidGridError):
            build_grid(h, theta_max)


class TestSteps:
    @pytest.mark.parametrize("h, days, steps", [
        (0.25, 10, 40), (0.25, 10.0 * (1 + 1e-12), 40), (0.25, 0.0, 0), (0.25, -3.0, -12),
        (0.1, 0.3, 3), (0.1, 0.30000000000000004, 3), (0.1, 0.7, 7), (0.5, 1500.0, 3000)])
    def test_whole_multiples(self, h, days, steps):
        got = build_grid(h, 10.0).steps(days, "t")
        assert got == steps and type(got) is int

    @pytest.mark.parametrize("days", [10.1, 0.6, 0.1, 10.0 * (1 + 1e-8), -0.4 * 0.25,
                                      1e-300, math.inf, math.nan])
    def test_off_grid_refused_naming_the_argument(self, days):
        with pytest.raises(ParameterError) as info:
            build_grid(0.25, 10.0).steps(days, "run.t_max")
        assert str(info.value) == f"run.t_max must be a whole multiple of grid.h = 0.25, got {days}"


class TestStepFunction:
    def test_latent_rate_table_interior(self):
        grid = build_grid(100.0, 90 * YEAR)
        profile = sample_step_function(K_BREAKS, K_VALUES, grid, Units.RATE)
        node = int(35 * YEAR / 100.0)
        assert profile.values[node] == pytest.approx(1 / 4.8)

    def test_empty_breakpoints_constant(self):
        grid = build_grid(0.5, 10.0)
        profile = sample_step_function([], [0.5], grid, Units.PROPORTION)
        np.testing.assert_array_equal(profile.values, 0.5)

    def test_breakpoint_is_right_closed(self):
        # A node exactly at a breakpoint takes the interval starting there.
        grid = build_grid(100.0, 90 * YEAR)
        profile = sample_step_function(K_BREAKS, CHI_VALUES, grid, Units.RATE)
        node = int(60 * YEAR / 100.0)
        assert grid.nodes[node] == 60 * YEAR
        assert profile.values[node] == pytest.approx(1 / 4.1)

    def test_errors(self):
        grid = build_grid(1.0, 10.0)
        with pytest.raises(ProfileError):
            sample_step_function([5.0, 2.0], [1, 2, 3], grid, Units.RATE)
        with pytest.raises(ProfileError):
            sample_step_function([5.0], [1.0], grid, Units.RATE)
        with pytest.raises(ProfileError):
            sample_step_function([5.0], [0.5, 1.5], grid, Units.PROPORTION)

    @given(
        values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        spacing=st.lists(st.floats(0.5, 30.0), min_size=0, max_size=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_range_preserved(self, values, spacing):
        if len(spacing) != len(values) - 1:
            spacing = spacing[: max(0, len(values) - 1)]
            values = values[: len(spacing) + 1]
        breakpoints = np.cumsum([1.0] + spacing)[1:] if spacing else []
        grid = build_grid(0.7, 50.0)
        profile = sample_step_function(breakpoints, values, grid, Units.PROPORTION)
        assert profile.values.min() >= 0.0
        assert profile.values.max() <= 1.0


class TestContactBump:
    def test_symmetric_about_center(self):
        grid = build_grid(1.0, 100.0)
        profile = sample_contact(50.0, 5.0, 10.0, grid)
        values = profile.values
        np.testing.assert_array_equal(values[:50], values[51:][::-1])

    def test_grid_average_matches_requested_mean(self):
        grid = build_grid(0.5, 90 * YEAR)
        profile = sample_contact(80 * YEAR, 16.71, 1e4, grid)
        assert np.mean(profile.values) == pytest.approx(16.71, rel=1e-9)

    def test_peak_at_node_nearest_center(self):
        grid = build_grid(0.7, 100.0)
        center = 33.3
        profile = sample_contact(center, 2.0, 8.0, grid)
        assert profile.values.argmax() == np.abs(grid.nodes - center).argmin()

    def test_degenerate_grid_rejected(self):
        lone = AgeGrid(h=1.0, theta_max=1.0, n_nodes=1)
        with pytest.raises(InvalidGridError):
            sample_contact(0.5, 1.0, 1.0, lone)

    def test_bad_shape_parameters(self):
        grid = build_grid(1.0, 10.0)
        with pytest.raises(ProfileError):
            sample_contact(5.0, 1.0, 0.0, grid)
        with pytest.raises(ProfileError):
            sample_contact(5.0, 0.0, 1.0, grid)


class TestProfileCsv:
    def _write(self, tmp_path, rows, header=True):
        path = tmp_path / "profile.csv"
        lines = ["age_days,value"] if header else []
        lines += [f"{a},{v}" for a, v in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_constant_data(self, tmp_path):
        grid = build_grid(5.0, 100.0)
        path = self._write(tmp_path, [(0, 0.5), (100, 0.5)])
        profile = load_profile_csv(path, grid, Units.PROPORTION)
        np.testing.assert_array_equal(profile.values, 0.5)

    def test_linear_interpolation(self, tmp_path):
        grid = build_grid(5.0, 20.0)
        path = self._write(tmp_path, [(0, 0.0), (10, 1.0)])
        profile = load_profile_csv(path, grid, Units.PROPORTION)
        assert profile.values[1] == pytest.approx(0.5)

    def test_constant_extrapolation(self, tmp_path):
        grid = build_grid(10.0, 100.0)
        path = self._write(tmp_path, [(0, 0.4)])
        profile = load_profile_csv(path, grid, Units.PROPORTION)
        assert profile.values[5] == pytest.approx(0.4)
        np.testing.assert_array_equal(profile.values, 0.4)

    def test_missing_file(self, tmp_path):
        grid = build_grid(1.0, 10.0)
        with pytest.raises(ProfileError):
            load_profile_csv(tmp_path / "absent.csv", grid, Units.RATE)

    def test_non_numeric_row(self, tmp_path):
        grid = build_grid(1.0, 10.0)
        path = tmp_path / "bad.csv"
        path.write_text("age_days,value\n0,0.2\nfive,0.3\n")
        with pytest.raises(ProfileError, match="non-numeric"):
            load_profile_csv(path, grid, Units.RATE)

    def test_unsorted_ages(self, tmp_path):
        grid = build_grid(1.0, 10.0)
        path = self._write(tmp_path, [(5, 0.1), (2, 0.2)])
        with pytest.raises(ProfileError, match="ascending"):
            load_profile_csv(path, grid, Units.RATE)

    def test_out_of_range_value(self, tmp_path):
        grid = build_grid(1.0, 10.0)
        path = self._write(tmp_path, [(0, 1.5)])
        with pytest.raises(ProfileError):
            load_profile_csv(path, grid, Units.PROPORTION)


class TestSurvival:
    def test_zero_rate_all_ones(self):
        grid = build_grid(0.5, 50.0)
        np.testing.assert_array_equal(survival(np.zeros(grid.n_nodes), grid.h), 1.0)

    def test_constant_rate_analytic(self):
        grid = build_grid(0.5, 50.0)
        rate = 0.08 + 5e-5
        factor = survival(np.full(grid.n_nodes, rate), grid.h)
        np.testing.assert_allclose(factor, np.exp(-rate * grid.nodes), rtol=1e-12)

    def test_nonincreasing(self):
        grid = build_grid(0.5, 50.0)
        factor = survival(np.full(grid.n_nodes, 0.3 + 1e-4), grid.h)
        assert np.all(np.diff(factor) <= 0.0)

    def test_negative_rate_rejected_at_profile(self):
        grid = build_grid(1.0, 10.0)
        with pytest.raises(ProfileError):
            AgeProfile(grid, np.full(grid.n_nodes, -0.1), Units.RATE)

    @given(st.lists(st.floats(0.0, 0.5), min_size=4, max_size=40),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_semigroup_concatenation(self, rates, split_den):
        # Survival over [0, t1] continued to t2 equals the one-shot factor.
        rates = np.asarray(rates)
        full = survival(rates, 0.5)
        j1 = rates.size // (split_den + 1)
        tail = survival(rates[j1:], 0.5)
        j2 = rates.size - 1 - j1
        np.testing.assert_allclose(full[j1 + j2], full[j1] * tail[j2], rtol=1e-12)

    def test_piecewise_exponential_slopes(self):
        # Log-slopes of the survival factor change exactly at table breakpoints
        # (checked where the factor retains full float precision).
        grid = build_grid(0.5, 90 * YEAR)
        mu = 4.38356e-5
        k = sample_step_function(K_BREAKS, K_VALUES, grid, Units.RATE)
        factor = survival(k.values + mu, grid.h)
        solid = factor > 1e-280
        log_f = np.log(factor[solid])
        slopes = -np.diff(log_f) / grid.h
        np.testing.assert_allclose(slopes, k.values[solid][:-1] + mu, rtol=1e-9)


def _factor_rows(rng, regime):
    """(rows, J - 1) factors in (0, 1] of nodes 0 .. J-2, with runs of
    exactly 1.0. "random" draws J and the factor range freely; "multiple"
    and "ragged" fix the block length L through the smallest factor and
    make J a multiple of L or not; "tiny" holds a factor <= BLOCK_FLOOR,
    so L = 1; "ones" holds only factors of 1, so L = J."""
    n_rows = int(rng.integers(1, 4))
    smallest = None
    if regime in ("multiple", "ragged"):
        block = int(rng.integers(1 if regime == "multiple" else 2, 400))
        n_nodes = block * int(rng.integers(2, 8))
        if regime == "ragged":
            n_nodes += int(rng.integers(1, block))
        # L = floor(log(BLOCK_FLOOR) / log(smallest)) = floor(block + 0.5).
        smallest = BLOCK_FLOOR ** (1.0 / (block + 0.5))
    else:
        n_nodes = int(rng.integers(2, 3001))
    if regime == "ones":
        return np.ones((n_rows, n_nodes - 1))
    low = smallest if smallest is not None else rng.uniform(1e-3, 1.0)
    factors = rng.uniform(low, 1.0, size=(n_rows, n_nodes - 1))
    for _ in range(int(rng.integers(0, 6))):
        row = int(rng.integers(n_rows))
        first = int(rng.integers(n_nodes - 1))
        factors[row, first:first + int(rng.integers(1, n_nodes))] = 1.0
    if regime == "tiny":
        smallest = BLOCK_FLOOR if rng.integers(2) else BLOCK_FLOOR * rng.uniform(1e-50, 1.0)
    if smallest is not None:
        factors[rng.integers(n_rows), rng.integers(n_nodes - 1)] = smallest
    return factors


def _sequential_products(factors, block):
    """q and the whole-block products of `block_products`, by a plain loop."""
    n_rows, n_nodes = factors.shape[0], factors.shape[1] + 1
    q = np.empty((n_rows, n_nodes))
    products = np.empty((n_rows, len(range(block, n_nodes, block))))
    for c in range(n_rows):
        running = 1.0
        for j in range(n_nodes):
            if j % block == 0:
                if j:
                    products[c, j // block - 1] = running
                running = 1.0
            q[c, j] = running
            if j < n_nodes - 1:
                running *= float(factors[c, j])
    return q, products


class TestBlockProducts:
    @pytest.mark.parametrize("regime", ["random", "multiple", "ragged", "tiny", "ones"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_sequential_products(self, regime, seed):
        factors = _factor_rows(np.random.default_rng(seed), regime)
        n_nodes = factors.shape[1] + 1
        q = np.empty((factors.shape[0], n_nodes))
        q[:, 0] = np.nan  # ignored: no factor enters a product before node 0
        q[:, 1:] = factors
        block, products = block_products(q)
        # L is the largest block length with smallest^L >= BLOCK_FLOOR,
        # at least 1 and at most J.
        smallest = float(factors.min())
        assert 1 <= block <= n_nodes
        if regime == "ones":
            assert block == n_nodes
        if regime == "tiny":
            assert block == 1
        if block > 1:
            assert smallest ** block >= BLOCK_FLOOR
        if block < n_nodes:
            assert smallest ** (block + 1) < BLOCK_FLOOR
        assert np.all(q[:, ::block] == 1.0)
        want_q, want_products = _sequential_products(factors, block)
        assert np.array_equal(q, want_q)
        assert np.array_equal(products, want_products)


def _block_survival_loop(rates, h):
    """`scheme_survival` by a plain loop, kept as its reference: per row, the
    running product of the factors 1 - h * rate restarted at every block
    start of `block_products`, times the running product of the whole-block
    products before it, flushed to 0 below the smallest normal float."""
    factors = np.atleast_2d(1.0 - h * rates[..., :-1])
    n_rows, n_nodes = factors.shape[0], factors.shape[1] + 1
    smallest = float(factors.min(initial=1.0))
    block = n_nodes
    if smallest < 1.0:
        block = min(n_nodes, max(1, int(math.log(BLOCK_FLOOR) / math.log(smallest))))
    out = np.empty((n_rows, n_nodes))
    for c in range(n_rows):
        carry = running = 1.0
        for j in range(n_nodes):
            if j and j % block == 0:
                carry *= running
                running = 1.0
            value = running * carry
            out[c, j] = value if value >= np.finfo(np.float64).tiny else 0.0
            if j < n_nodes - 1:
                running *= float(factors[c, j])
    return out.reshape(rates.shape)


def _flushed_cumprod(rates, h):
    """One running product of the factors over all J nodes, flushed to 0
    below the smallest normal float: the survival before it was blocked."""
    products = np.cumprod(scheme_factors(rates, h))
    products[products < np.finfo(np.float64).tiny] = 0.0
    return products


def _rates_of(factors, rng):
    """Exit rates and h whose scheme factors are `factors`, up to the
    rounding of 1 - h * rate. A factor below 2**-50 is raised to it, since
    h * rate < 1 allows no factor much below 2**-53: the block length of
    the "tiny" regime is then about 16, not 1. The last node's rate, which
    enters no factor, is drawn below 1 / h."""
    h = rng.uniform(0.1, 1.0)
    rates = np.empty((factors.shape[0], factors.shape[1] + 1))
    rates[:, :-1] = (1.0 - np.maximum(factors, 2.0 ** -50)) / h
    rates[:, -1] = rng.uniform(0.0, 0.99, factors.shape[0]) / h
    return rates, h


class TestSchemeFactors:
    def test_step_bound_covers_the_last_node(self):
        # Only the last node's rate breaks h * rate < 1. It enters no factor
        # of the J nodes, but sets the share that node J - 1 passes on out
        # of the grid, so every function that forms the factors refuses it.
        h = 0.5
        rates = np.full((3, 41), 0.2)
        rates[1, -1] = 2.5
        for call in (lambda: scheme_factors(rates, h), lambda: scheme_survival(rates, h),
                     lambda: scheme_tail(np.ones(41), rates[1], h)):
            with pytest.raises(StabilityError, match="= 1.25 >= 1; reduce h below 0.4 days"):
                call()
        rates[1, -1] = 2.0  # h * rate = 1 exactly: the bound is strict
        with pytest.raises(StabilityError, match="reduce h below"):
            scheme_factors(rates, h)
        rates[1, -1] = 1.98
        assert scheme_factors(rates, h)[1, -1] == 1.0 - h * 0.2


class TestSchemeSurvival:
    @pytest.mark.parametrize("regime", ["random", "multiple", "ragged", "tiny", "ones"])
    @pytest.mark.parametrize("stacked", [True, False], ids=["rows", "row"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_block_survival_loop(self, regime, stacked, seed):
        rng = np.random.default_rng(seed)
        rates, h = _rates_of(_factor_rows(rng, regime), rng)
        if not stacked:
            rates = rates[0]
        got = scheme_survival(rates, h)
        assert got.shape == rates.shape
        assert np.array_equal(got, _block_survival_loop(rates, h))

    def test_single_node(self):
        assert np.array_equal(scheme_survival(np.array([0.3]), 1.0), [1.0])
        assert np.array_equal(scheme_survival(np.array([[0.3], [0.9]]), 1.0), [[1.0], [1.0]])

    @given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 5000),
           top=st.floats(1e-3, 0.7), constant=st.booleans())
    @example(seed=0, n_nodes=20497, top=0.05, constant=True)
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_flushed_cumprod(self, seed, n_nodes, top, constant):
        # h * rate up to `top`: at 0.7 the product underflows within a few
        # hundred nodes, at 1e-3 not at all. At 0.05 (the example) L is
        # about 11,200 and the product leaves the normal floats near node
        # 13,800, in the second block.
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.1, 1.0)
        rates = (np.full(n_nodes, top) if constant else rng.uniform(0.0, top, n_nodes)) / h
        got, want = scheme_survival(rates, h), _flushed_cumprod(rates, h)
        block, _ = block_products(scheme_factors(rates[np.newaxis], h))
        # The first block is one running product, as the cumprod is.
        assert np.array_equal(got[:block], want[:block])
        assert np.array_equal(got == 0.0, want == 0.0)
        # Each side rounds at most once per node and once per block, so the
        # two differ by at most about 2 * (J + J / L) units of round-off.
        rtol = 4.0 * n_nodes * np.finfo(np.float64).eps
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)

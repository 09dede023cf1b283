"""Lyapunov functions and convergence/conservation metrics.

The stability certificates become runnable checks: the weight profiles
f_e, f_a, f_i are the tail integrals that cancel the transport terms, the
disease-free Lyapunov function is linear in the densities, the endemic one
integrates x - 1 - ln(x) of the density ratios against steady-state tail
masses, and monotonicity of a sampled Lyapunov series is asserted up to a
tolerance tied to its magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sveair.errors import LyapunovDomainError, ParameterError
from sveair.grid import block_products, rect_integral, scheme_factors
from sveair.params import ParameterSet
from sveair.reproduction import (ENDEMIC, SteadyState, compute_R0, scheme_kernels,
                                 solve_beta_star, steady_state)
from sveair.solver import State, simulate

# Steady densities below this are excluded from ratio integrands; their
# tail weights vanish with them.
STEADY_DENSITY_FLOOR = 1e-300


def entropy_f(x):
    """f(x) = x - 1 - ln(x); nonnegative on (0, inf), zero only at 1."""
    return x - 1.0 - np.log(x)


@dataclass(frozen=True, eq=False)
class LyapunovWeights:
    """Tail-integral weight profiles (dimensionless, unbounded above, so
    carried as raw arrays rather than range-checked AgeProfiles)."""

    f_e: np.ndarray
    f_a: np.ndarray
    f_i: np.ndarray
    f_a0: float
    f_i0: float


def _backward_tail(source: np.ndarray, rates: np.ndarray, h: float) -> np.ndarray:
    """F[j] = h*src[j] + (1 - h*rate[j]) * F[j+1], F beyond the last node 0.

    Discretizes F(theta) = integral_theta^theta_max src(s) *
    exp(-integral_theta^s rate) ds with the scheme's own decay factors, so
    F[0] equals the rectangle quadrature of src * `grid.scheme_survival`
    exactly, and f_e(0) at the disease-free state is the scheme's r0.

    Solved in the age blocks of `grid.block_products`, from the oldest
    down. Within a block [low, high), with P[j] the product of the factors
    over low .. j-1, F[j] is the reversed cumulative sum of h * src[m] *
    P[m] over m >= j, divided by P[j], plus F[high] times the product of
    the factors over j .. high-1.
    """
    n = source.shape[0]
    q = scheme_factors(rates[np.newaxis], h)
    block, products = block_products(q)
    out = np.empty(n)
    carry = 0.0
    for low in range(block * ((n - 1) // block), -1, -block):
        high = min(low + block, n)
        head = q[0, low:high]
        tail = np.cumsum((h * source[low:high] * head)[::-1])[::-1]
        out[low:high] = tail / head
        if high < n:
            out[low:high] += carry * (products[0, low // block] / head)
        carry = out[low]
    return out


def lyapunov_weights(params: ParameterSet, steady: SteadyState) -> LyapunovWeights:
    """Weight profiles for the Lyapunov functions at a given steady state.

    f_i depends only on the transmission and recovery structure; f_a folds
    in the asymptomatic-to-symptomatic route via f_i(0); f_e feeds both
    routes with f_a(0) and f_i(0) as coefficients. Raises StabilityError
    when h * max exit rate >= 1, where a scheme factor is not positive.
    """
    params.stable_exit_rate()
    h = params.grid.h
    pool = steady.s_star + (1.0 - params.epsilon) * steady.v_star
    f_i = _backward_tail(pool * params.beta_i.values, params.exit_rate_i, h)
    f_i0 = float(f_i[0])
    chi_branch = params.chi.values * (1.0 - params.xi.values)
    f_a = _backward_tail(
        pool * params.beta_a.values + f_i0 * chi_branch, params.exit_rate_a, h
    )
    f_a0 = float(f_a[0])
    kv, qv = params.k.values, params.q.values
    f_e = _backward_tail(f_a0 * kv * qv + f_i0 * kv * (1.0 - qv), params.exit_rate_e, h)
    return LyapunovWeights(f_e=f_e, f_a=f_a, f_i=f_i, f_a0=f_a0, f_i0=f_i0)


def endemic_tail_weights(params: ParameterSet, steady: SteadyState,
                         weights: LyapunovWeights) -> tuple:
    """(mask, weight, steady density) ratio terms of the endemic function for
    e, a and i; the weights combine reversed cumulative rectangle sums of
    the steady-state integrands."""
    h = params.grid.h

    def tail(values: np.ndarray) -> np.ndarray:
        return h * np.cumsum(values[::-1])[::-1]

    kv, qv = params.k.values, params.q.values
    chi_branch = params.chi.values * (1.0 - params.xi.values)
    pool = steady.s_star + (1.0 - params.epsilon) * steady.v_star
    e_star, a_star, i_star = steady.e_star.values, steady.a_star.values, steady.i_star.values
    return tuple(_masked(weight, star) for weight, star in (
        (weights.f_a0 * tail(kv * qv * e_star) + weights.f_i0 * tail(kv * (1.0 - qv) * e_star),
         e_star),
        (pool * tail(params.beta_a.values * a_star) + weights.f_i0 * tail(chi_branch * a_star),
         a_star),
        (pool * tail(params.beta_i.values * i_star), i_star),
    ))


def _masked(weight: np.ndarray, steady_values: np.ndarray):
    """(mask, weight, steady density) at the nodes a ratio integrand reads."""
    mask = (steady_values >= STEADY_DENSITY_FLOOR) & (weight > 0.0)
    return mask, weight[mask], steady_values[mask]


class LyapunovEvaluator:
    """L(s, v, e, a, i) on raw state arrays, about the scheme's steady state.

    `steady` is the one `reproduction.matching_steady_state` returns. A
    disease-free one is used as given; an endemic one carries the
    quadrature's O(h) bias, so `self.steady` is the scheme's own fixed point
    (`discrete_fixed_point`). The weights are computed once, here.
    """

    def __init__(self, params: ParameterSet, steady: SteadyState):
        if steady.kind == ENDEMIC:
            steady = discrete_fixed_point(params, steady)
        weights = lyapunov_weights(params, steady)
        self.steady = steady
        self.grid = params.grid
        if steady.kind == ENDEMIC:
            self.ratio_terms = endemic_tail_weights(params, steady, weights)
        else:
            self.profiles = (weights.f_e, weights.f_a, weights.f_i)

    def __call__(self, s, v, e, a, i) -> float:
        steady = self.steady
        if s <= 0.0 or v <= 0.0:
            raise LyapunovDomainError(f"S and V must be positive, got S={s}, V={v}")
        total = steady.s_star * entropy_f(s / steady.s_star) + steady.v_star * entropy_f(
            v / steady.v_star
        )
        if steady.kind != ENDEMIC:
            for weight, density in zip(self.profiles, (e, a, i)):
                total += rect_integral(weight * density, self.grid)
            return total
        for (mask, weight, star), density in zip(self.ratio_terms, (e, a, i)):
            dens = density[mask]
            if dens.size and dens.min() <= 0.0:
                raise LyapunovDomainError(
                    "state density is nonpositive at a weighted node; the endemic "
                    "Lyapunov function is infinite there (seed strictly positive "
                    "densities, e.g. steady-scaled initial data)"
                )
            total += self.grid.h * float(weight @ entropy_f(dens / star))
        return total

    def observer(self, times: list, values: list):
        """An observer for `simulate` that appends each sample's t and L."""

        def observe(t, s, v, e, a, i):
            values.append(self(s, v, e, a, i))
            times.append(t)

        return observe


def discrete_fixed_point(params: ParameterSet, steady: SteadyState) -> SteadyState:
    """The scheme's own endemic fixed point, in closed form.

    The closed-form steady state carries the quadrature's O(h) bias, so the
    scheme drifts away from it, and Lyapunov monotonicity about it measures
    the bias, not stability. The scheme's fixed point solves the same
    quadratic on `reproduction.scheme_kernels`; it is stationary under
    `simulate` to round-off. Raises ParameterError when the scheme's own r0
    at this h is <= 1 although the continuous r0 is > 1.
    """
    if steady.kind != ENDEMIC:
        raise ParameterError("discrete_fixed_point expects the endemic steady state")
    blocks = scheme_kernels(params)
    beta_star = solve_beta_star(params, blocks)
    if beta_star == 0.0:
        raise ParameterError(
            f"r0 = {compute_R0(params).r0:.6g} > 1, but the scheme's own r0 at "
            f"h = {params.grid.h:g} is {compute_R0(params, blocks).r0:.6g} <= 1, so "
            "the scheme has no endemic fixed point; use a smaller h"
        )
    return steady_state(params, beta_star, blocks)


def monitor_lyapunov(
    init: State,
    params: ParameterSet,
    steady: SteadyState,
    t_max: float,
    sample_every: float = 1.0,
):
    """Run the solver with `LyapunovEvaluator(params, steady)` as its observer.

    Returns:
        (times, values, SimulationResult) with values[i] = L at times[i].
    """
    evaluator = LyapunovEvaluator(params, steady)
    times, values = [], []
    result = simulate(init, params, t_max, sample_every=sample_every,
                      observer=evaluator.observer(times, values))
    return np.asarray(times), np.asarray(values), result


@dataclass(frozen=True)
class MonotonicityReport:
    """Strict-increase count of a sampled Lyapunov series."""

    n_violations: int
    tol: float
    intervals: tuple  # (index, t_left, t_right, increase) per violation

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def monotonicity_check(
    l_values,
    times=None,
    tol: float | None = None,
) -> MonotonicityReport:
    """Count increases of L beyond tol = 1e-8 * max finite L (default).

    Infinite values compare as in the extended reals: inf -> inf and
    inf -> finite are nonincreasing, finite -> inf is a violation. NaN
    samples are always flagged.
    """
    l_arr = np.asarray(l_values, dtype=np.float64)
    t_arr = np.arange(l_arr.size, dtype=np.float64) if times is None else np.asarray(times)
    finite = l_arr[np.isfinite(l_arr)]
    if tol is None:
        tol = 1e-8 * float(finite.max()) if finite.size else 0.0
    intervals = []
    for idx in range(l_arr.size - 1):
        left, right = l_arr[idx], l_arr[idx + 1]
        if math.isnan(left) or math.isnan(right):
            intervals.append((idx, float(t_arr[idx]), float(t_arr[idx + 1]), math.nan))
            continue
        if math.isinf(left):
            continue  # inf -> anything is nonincreasing
        if right - left > tol:
            intervals.append((idx, float(t_arr[idx]), float(t_arr[idx + 1]), right - left))
    return MonotonicityReport(
        n_violations=len(intervals), tol=float(tol), intervals=tuple(intervals)
    )


def convergence_metric(state: State, steady: SteadyState, n0: float) -> float:
    """Distance to a steady state: scalar gaps plus L1 density gaps, over N0."""
    grid = state.e.grid
    total = abs(state.s - steady.s_star) + abs(state.v - steady.v_star)
    total += rect_integral(np.abs(state.e.values - steady.e_star.values), grid)
    total += rect_integral(np.abs(state.a.values - steady.a_star.values), grid)
    total += rect_integral(np.abs(state.i.values - steady.i_star.values), grid)
    return total / n0

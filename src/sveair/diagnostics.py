"""Lyapunov functions and convergence/conservation metrics.

The stability certificates become runnable checks: the weight profiles
f_e, f_a, f_i are the tail integrals that cancel the transport terms, the
disease-free Lyapunov function is linear in the densities, the endemic one
integrates x - 1 - ln(x) of the density ratios against steady-state tail
masses, and monotonicity of a sampled Lyapunov series is asserted up to a
tolerance tied to its magnitude.

The weights are the scheme's own tails (`grid.scheme_tail`), and the
steady states of `reproduction` are built on the scheme's own survival
(`grid.scheme_survival`), so the Lyapunov reference and
`convergence_metric` both measure against the state the stepper converges
to. This module forms no decay factor itself. Each tail is computed once:
a steady density c* decays with the same factors, so the endemic ratio
weights are c* * f_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sveair.errors import LyapunovDomainError
from sveair.grid import rect_integral, scheme_tail
from sveair.params import ParameterSet
from sveair.reproduction import ENDEMIC, SteadyState
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


def lyapunov_weights(params: ParameterSet, steady: SteadyState) -> LyapunovWeights:
    """Weight profiles for the Lyapunov functions at a given steady state.

    f_i depends only on the transmission and recovery structure; f_a folds
    in the asymptomatic-to-symptomatic route via f_i(0); f_e feeds both
    routes with f_a(0) and f_i(0) as coefficients. Raises StabilityError,
    from `grid.scheme_factors`, when h * max exit rate >= 1, where a scheme
    factor is not positive.
    """
    h = params.grid.h
    pool = steady.s_star + (1.0 - params.epsilon) * steady.v_star
    f_i = scheme_tail(pool * params.flux_rows(2)[0], params.exit_rate_i, h)
    infect_a, branch_a = params.flux_rows(1)[:2]
    f_a = scheme_tail(pool * infect_a + f_i[0] * branch_a, params.exit_rate_a, h)
    to_asym, to_symp = params.flux_rows(0)
    f_e = scheme_tail(f_a[0] * to_asym + f_i[0] * to_symp, params.exit_rate_e, h)
    return LyapunovWeights(f_e=f_e, f_a=f_a, f_i=f_i)


def endemic_tail_weights(steady: SteadyState, weights: LyapunovWeights) -> tuple:
    """(k, weight, steady density) ratio terms of the endemic function for
    e, a and i: the integrand reads nodes [0, k), with weight c* * f_c.

    The ratio weight at node j is the tail sum h * sum_{m >= j} src_c[m] *
    c*[m] of the steady-state integrand. c* decays with the factors
    1 - h * rate that `grid.scheme_tail` uses, so that sum is c*[j] * f_c[j].
    A node is read where c* >= STEADY_DENSITY_FLOOR and its weight is
    positive. Both hold on a prefix of the age grid, since c* does not
    increase with age and a tail sum of a nonnegative integrand does not
    either, so k counts the leading nodes where both hold.
    """
    terms = []
    for profile, star in ((weights.f_e, steady.e_star.values),
                          (weights.f_a, steady.a_star.values),
                          (weights.f_i, steady.i_star.values)):
        weight = profile * star
        read = (star >= STEADY_DENSITY_FLOOR) & (weight > 0.0)
        k = read.size if read.all() else int(read.argmin())
        terms.append((k, weight[:k], star[:k]))
    return tuple(terms)


class LyapunovEvaluator:
    """L(s, v, e, a, i) on raw state arrays, about a steady state.

    `steady` is used as given, of either kind; the one
    `reproduction.matching_steady_state` returns is the scheme's own, so L
    is taken about the state the stepper converges to. The weights are
    computed once, here. On the endemic path `nodes` holds the number of
    leading e, a and i nodes that L reads, the ratio prefixes; the
    disease-free L is linear and reads all J nodes, and has no `nodes`.
    Each kind of L has one body, its observer's; a call is the first
    sample of a fresh observer.
    """

    def __init__(self, params: ParameterSet, steady: SteadyState):
        weights = lyapunov_weights(params, steady)
        self.steady = steady
        self.h = params.grid.h
        if steady.kind == ENDEMIC:
            self.ratio_terms = endemic_tail_weights(steady, weights)
            self.nodes = tuple(k for k, _, _ in self.ratio_terms)
        else:
            self.profiles = (weights.f_e, weights.f_a, weights.f_i)

    def _scalar_terms(self, s, v) -> float:
        """The S and V part of L."""
        steady = self.steady
        if s <= 0.0 or (v <= 0.0 and steady.v_star > 0.0):
            raise LyapunovDomainError(f"S and V must be positive, got S={s}, V={v}",
                                      scalars=True)
        total = steady.s_star * entropy_f(s / steady.s_star)
        # Without vaccination V* = 0, and V* f(V / V*) tends to V.
        total += steady.v_star * entropy_f(v / steady.v_star) if steady.v_star > 0.0 else v
        return total

    def __call__(self, s, v, e, a, i) -> float:
        values = []
        self.observer([], values)(0.0, s, v, e, a, i)
        return values[0]

    def observer(self, times: list, values: list):
        """An observer for `simulate` that appends each sample's t and L.

        Disease-free: L is the S and V part plus h * (f_c @ x_c) over all J
        nodes of each density. Endemic: the observer declares `nodes` and
        carries the entropy terms f(x / c*) of each prefix. A term is
        carried along its characteristic: the scheme multiplies x and c* by
        the same factor 1 - h * rate from one node to the next, so x / c*
        moves only by round-off. An array shorter than the prefix holds the
        cohorts that entered since the previous sample: their terms lead,
        and the carried ones move on by its length. A longer one (the first
        sample, or a caller that passes all J nodes) is read as all fresh.
        Nothing is carried before the first sample, so a first array
        shorter than the prefix fails the dot's shape check.

        The terms of a prefix of k nodes live in one buffer of 2k, k of them
        slack at its head. Fresh terms are written just before the carried
        ones, as `simulate` writes its boundary values, and the carried
        terms move back to the buffer's end only when the slack runs out,
        at most once every k fresh nodes, in place of a new array per
        sample. The dot reads the same values in the same order, so L keeps
        its bits.
        """
        h = self.h
        if self.steady.kind != ENDEMIC:
            def observe(t, s, v, e, a, i):
                total = self._scalar_terms(s, v)
                for weight, density in zip(self.profiles, (e, a, i)):
                    total += h * float(weight @ density)
                values.append(total)
                times.append(t)

            return observe

        # Each compartment's terms live in buffer[head:head + k], with k
        # nodes of slack before them; the head starts past the end, so
        # nothing is carried yet.
        buffers = [np.empty(2 * k) for k in self.nodes]
        heads = [2 * k for k in self.nodes]

        def observe(t, s, v, e, a, i):
            total = self._scalar_terms(s, v)
            for c, ((k, weight, star), density) in enumerate(zip(self.ratio_terms, (e, a, i))):
                fresh = density[:k]
                m = fresh.size
                if m and fresh.min() <= 0.0:
                    raise LyapunovDomainError(
                        "state density is nonpositive at a weighted node; the endemic "
                        "Lyapunov function is infinite there (seed strictly positive "
                        "densities, e.g. steady-scaled initial data)", scalars=False)
                buffer, head = buffers[c], heads[c]
                if m > head:
                    # The slack is spent: move the k - m terms still carried
                    # back to the buffer's end, once.
                    buffer[k + m:] = buffer[head:head + k - m]
                    head = k + m
                head -= m
                buffer[head:head + m] = entropy_f(fresh / star[:m])
                heads[c] = head
                total += h * float(weight @ buffer[head:head + k])
            values.append(total)
            times.append(t)

        observe.nodes = self.nodes
        return observe


# The benchmark tracer (bench/child.py) wraps this name; the steady states
# of `reproduction` are the scheme's own, so there is no second fixed point
# to build. The next benchmark change deletes it.
def discrete_fixed_point(params: ParameterSet, steady: SteadyState) -> SteadyState:
    """The scheme's fixed point: `steady` itself."""
    return steady


# The benchmark tracer (bench/child.py) wraps this name; the runner reads
# the evaluator as the observer of its one pass instead. The next benchmark
# change deletes it.
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
    return MonotonicityReport(n_violations=len(intervals), intervals=tuple(intervals))


def convergence_metric(state: State, steady: SteadyState, n0: float) -> float:
    """Distance to a steady state: scalar gaps plus L1 density gaps, over N0."""
    grid = state.e.grid
    total = abs(state.s - steady.s_star) + abs(state.v - steady.v_star)
    total += rect_integral(np.abs(state.e.values - steady.e_star.values), grid)
    total += rect_integral(np.abs(state.a.values - steady.a_star.values), grid)
    total += rect_integral(np.abs(state.i.values - steady.i_star.values), grid)
    return total / n0

"""Independent renewal-equation solver used to cross-validate the PDE scheme.

Marches the integral-equation form of the model in t: at each step the
force of infection, then S and V, then the latent/asymptomatic/symptomatic
boundary densities are evaluated from the history and from the transported
initial data.

The two routes share the model, not the scheme: the grid, the routing rows
and exit rates of `ParameterSet` (`flux_rows`, `exit_rate_*`) and the
initial support `State.support`. They share no discretization machinery
beyond these; the deliberate differences from the PDE solver are:
  - survival kernels are exact exponentials of the cumulative hazard, not
    products of explicit Euler factors;
  - S and V advance one exponential step at a time: over each step a pool
    decays by the exact exponential of its hazard, with the force of
    infection integrated by the trapezoid rule, and takes the trapezoid of
    its source, not the stepper's linearly implicit update. The decay
    factors are at most 1, so no exponent grows with t;
  - history integrals over [0, t] use the trapezoid rule, all by
    `_trapezoid_dot` (the newest force term uses the previous step's
    boundary values; everything else is known when needed).
Initial-data integrals keep the solver's rectangle rule and absorbing
truncation at theta_max, so both routes evaluate identical functionals of
the identical initial state at t = 0.

The initial cohorts are nonzero only on the union support [first, last) of
the three initial densities, found once at the start by `State.support`.
After n steps that support has moved to [first + n, last + n), cut at the
J age nodes, so the march ages and reads only those nodes: each step costs
O(min(n, J)) for the history and O(last - first) for the initial data, not
O(J). The t = 0
step alone takes its initial-data products over all J nodes, the same
arithmetic as `solver._functionals`, so the two routes agree bit for bit
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sveair.errors import AbortedRunError, ParameterError
from sveair.grid import survival
from sveair.params import ParameterSet
from sveair.solver import State

# A march of n steps costs O(n^2) in the history sums and O(n * support) in
# the initial data; `march_steps` refuses longer windows.
T_MAX_CAP = 2000.0


@dataclass(frozen=True, eq=False)
class RenewalPath:
    """Marched boundary functionals and scalar pools."""

    t: np.ndarray
    beta: np.ndarray
    eps: np.ndarray
    alpha: np.ndarray
    iota: np.ndarray
    s: np.ndarray
    v: np.ndarray


def _trapezoid_dot(kernel: np.ndarray, history: np.ndarray, n: int, h: float) -> float:
    """h * trapezoid of kernel[lag] * history[n - lag] over lag in [0, L].

    L = min(n, len(kernel) - 1); `history` must hold values up to index n.
    """
    length = min(n, kernel.shape[0] - 1)
    if length < 1:
        return 0.0
    window = history[n - length:n + 1][::-1]
    k = kernel[:length + 1]
    total = float(k @ window)
    total -= 0.5 * (k[0] * window[0] + k[length] * window[length])
    return h * total


def march_steps(grid, t_max: float, name: str = "t_max") -> int:
    """Steps of a t_max-day march on the AgeGrid `grid`, the rule on the
    window of `solve_renewal`: positive, at most T_MAX_CAP and a whole
    multiple of h (`AgeGrid.steps`), or a ParameterError naming `name`."""
    if not t_max > 0:
        raise ParameterError(f"{name} must be positive, got {t_max}")
    if t_max > T_MAX_CAP:
        raise ParameterError(f"{name} = {t_max:g} exceeds the renewal-march cap "
                             f"of {T_MAX_CAP:g} days")
    return grid.steps(t_max, name)


def solve_renewal(
    init: State,
    params: ParameterSet,
    t_max: float,
) -> RenewalPath:
    """March the renewal system over [init.t, init.t + t_max] with step grid.h.

    Args:
        init: Initial state (same object the PDE solver accepts).
        t_max: Run length in days, a positive whole multiple of h up to
            T_MAX_CAP, a cap on the quadratic-cost march; `march_steps`
            refuses any other with a ParameterError.

    Returns:
        RenewalPath sampled at every step, at t = init.t + n * h.
    """
    grid = params.grid
    if init.e.grid != grid:
        raise ParameterError("initial state is not on the parameter grid")
    h = grid.h
    n_steps = march_steps(grid, t_max)

    surv_e, surv_a, surv_i = (survival(rate, h) for rate in
                              (params.exit_rate_e, params.exit_rate_a, params.exit_rate_i))

    # The routing rows the march reads; it does not read the recovery rows.
    latent_to_asym, latent_to_symp = params.flux_rows(0)
    beta_a, chi_branch = params.flux_rows(1)[:2]
    beta_i = params.flux_rows(2)[0]
    k_beta_alpha = beta_a * surv_a
    k_beta_iota = beta_i * surv_i
    k_alpha_eps = latent_to_asym * surv_e
    k_iota_eps = latent_to_symp * surv_e
    k_iota_alpha = chi_branch * surv_a

    def initial_part(e, a, i, low):
        """Initial-data terms of (beta, alpha, iota) for cohorts e, a, i
        that sit on the nodes from `low` on."""
        high = low + e.shape[0]
        return (
            h * float(beta_a[low:high] @ a + beta_i[low:high] @ i),
            h * float(latent_to_asym[low:high] @ e),
            h * float(latent_to_symp[low:high] @ e + chi_branch[low:high] @ a),
        )

    # The initial cohorts on their union support [first, last), with exact
    # per-cell aging factors; after n steps cohort node k sits at age node
    # first + n + k. The factors are built in place: J-length temporaries
    # here raised a run's peak RSS.
    n_nodes = grid.n_nodes
    e0, a0, i0 = init.e.values, init.a.values, init.i.values
    first, last = init.support()
    cohorts = np.stack([e0[first:last], a0[first:last], i0[first:last]])
    aging = np.empty((3, n_nodes - 1))
    for row, rate in zip(aging, (params.exit_rate_e, params.exit_rate_a, params.exit_rate_i)):
        np.multiply(rate[:-1], -h, out=row)
    np.exp(aging, out=aging)

    size = n_steps + 1
    beta = np.zeros(size)
    eps = np.zeros(size)
    alpha = np.zeros(size)
    iota = np.zeros(size)
    s_arr = np.zeros(size)
    v_arr = np.zeros(size)
    s_arr[0] = init.s
    v_arr[0] = init.v

    one_minus_eff = 1.0 - params.epsilon
    exit_s = (params.p + params.mu) * h
    exit_v = (params.zeta * params.epsilon + params.mu) * h
    half_mu_n0 = 0.5 * h * params.mu * params.n0
    half_p = 0.5 * h * params.p

    for n in range(size):
        if n == 0:
            hist = 0.0
            init_beta, init_alpha, init_iota = initial_part(e0, a0, i0, 0)
        else:
            # History part of beta; its lag-0 term needs this step's alpha
            # and iota, which are not yet known: the previous step's values
            # stand in at index n until this step overwrites them.
            alpha[n] = alpha[n - 1]
            iota[n] = iota[n - 1]
            hist = (_trapezoid_dot(k_beta_alpha, alpha, n, h)
                    + _trapezoid_dot(k_beta_iota, iota, n, h))
            # Age the cohorts still inside the grid by one cell; the rest
            # have left through theta_max.
            live = min(last, n_nodes - n) - first
            if live > 0:
                moved = cohorts[:, :live]
                moved *= aging[:, first + n - 1:first + n - 1 + live]
                init_beta, init_alpha, init_iota = initial_part(*moved, first + n)
            else:
                init_beta = init_alpha = init_iota = 0.0
        beta_n = hist + init_beta
        if not math.isfinite(beta_n):
            raise AbortedRunError(f"non-finite force of infection at step {n}", n)
        beta[n] = beta_n

        if n > 0:
            # The exponential-integral formulas over one step: the pool
            # decays by d and takes the trapezoid of its decayed source.
            beta_bar = 0.5 * h * (beta[n - 1] + beta[n])
            d_s = math.exp(-exit_s - beta_bar)
            d_v = math.exp(-exit_v - one_minus_eff * beta_bar)
            s_prev = s_arr[n - 1]
            s_arr[n] = d_s * s_prev + half_mu_n0 * (d_s + 1.0)
            v_arr[n] = d_v * v_arr[n - 1] + half_p * (d_v * s_prev + s_arr[n])

        eps[n] = beta[n] * (s_arr[n] + one_minus_eff * v_arr[n])
        alpha[n] = _trapezoid_dot(k_alpha_eps, eps, n, h) + init_alpha
        iota[n] = (
            _trapezoid_dot(k_iota_eps, eps, n, h)
            + _trapezoid_dot(k_iota_alpha, alpha, n, h)
            + init_iota
        )

    return RenewalPath(
        t=init.t + np.arange(size) * h, beta=beta, eps=eps, alpha=alpha, iota=iota,
        s=s_arr, v=v_arr,
    )

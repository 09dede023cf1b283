"""The renewal march before its support restriction, kept as a reference.

`solve_renewal` here is the march as it was when every step shifted the
three J-node initial cohorts and took the initial-data dot products over
all J nodes, and carried S and V in their cumulative form, as exponentials
of the cumulative hazard. `sveair.volterra.solve_renewal` transports and
reads only the moved initial support and advances S and V one exponential
step at a time; the property test in `test_volterra.py` checks that the two
agree to round-off, and bit for bit at t = 0.
"""

from __future__ import annotations

import math

import numpy as np

from sveair.errors import AbortedRunError, ParameterError
from sveair.grid import survival
from sveair.params import ParameterSet
from sveair.solver import State
from sveair.volterra import T_MAX_CAP, RenewalPath

# exp() guard for the cumulative-hazard exponents of the S/V formulas.
_EXP_GUARD = 700.0


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


def solve_renewal(
    init: State,
    params: ParameterSet,
    t_max: float,
) -> RenewalPath:
    """March the renewal system over [0, t_max] with step h = grid.h.

    Args:
        init: Initial state (same object the PDE solver accepts).
        t_max: Run length in days; must not exceed T_MAX_CAP, a safety cap
            on the quadratic-cost history march.

    Returns:
        RenewalPath sampled at every step.
    """
    if t_max <= 0:
        raise ParameterError(f"t_max must be positive, got {t_max}")
    if t_max > T_MAX_CAP:
        raise ParameterError(f"t_max={t_max} exceeds the renewal-march cap {T_MAX_CAP}")
    grid = params.grid
    if init.e.grid != grid:
        raise ParameterError("initial state is not on the parameter grid")
    h = grid.h
    n_steps = int(round(t_max / h))

    surv_e = survival(params.exit_rate_e, h)
    surv_a = survival(params.exit_rate_a, h)
    surv_i = survival(params.exit_rate_i, h)

    kv, qv = params.k.values, params.q.values
    chi_branch = params.chi.values * (1.0 - params.xi.values)
    k_beta_alpha = params.beta_a.values * surv_a
    k_beta_iota = params.beta_i.values * surv_i
    k_alpha_eps = kv * qv * surv_e
    k_iota_eps = kv * (1.0 - qv) * surv_e
    k_iota_alpha = chi_branch * surv_a

    # Exact per-cell aging factors for the initial-data cohorts.
    age_e = np.exp(-h * params.exit_rate_e[:-1])
    age_a = np.exp(-h * params.exit_rate_a[:-1])
    age_i = np.exp(-h * params.exit_rate_i[:-1])
    cohort_e = init.e.values.copy()
    cohort_a = init.a.values.copy()
    cohort_i = init.i.values.copy()

    size = n_steps + 1
    beta = np.zeros(size)
    eps = np.zeros(size)
    alpha = np.zeros(size)
    iota = np.zeros(size)
    s_arr = np.zeros(size)
    v_arr = np.zeros(size)

    one_minus_eff = 1.0 - params.epsilon
    zeta_eff = params.zeta * params.epsilon
    mu_n0 = params.mu * params.n0
    p = params.p

    cum_beta = 0.0          # trapezoid integral of beta over [0, t_n]
    source_s = 0.0          # trapezoid integral of exp(G_s) ds
    source_v = 0.0          # trapezoid integral of p S(s) exp(H_s) ds
    exp_g_prev = 1.0
    sexp_h_prev = init.s

    for n in range(size):
        t = n * h
        # History part of beta; its lag-0 term needs this step's alpha and
        # iota, which are not yet known: previous step's values stand in.
        if n > 0:
            length = min(n, grid.n_nodes - 1)
            win_a = alpha[n - length:n + 1][::-1].copy()
            win_i = iota[n - length:n + 1][::-1].copy()
            win_a[0] = alpha[n - 1]
            win_i[0] = iota[n - 1]
            ka = k_beta_alpha[:length + 1]
            ki = k_beta_iota[:length + 1]
            hist = float(ka @ win_a + ki @ win_i)
            hist -= 0.5 * (ka[0] * win_a[0] + ka[length] * win_a[length])
            hist -= 0.5 * (ki[0] * win_i[0] + ki[length] * win_i[length])
            hist *= h
        else:
            hist = 0.0
        init_part = h * float(
            params.beta_a.values @ cohort_a + params.beta_i.values @ cohort_i
        )
        beta_n = hist + init_part
        if not math.isfinite(beta_n):
            raise AbortedRunError(f"non-finite force of infection at step {n}", n)
        beta[n] = beta_n

        if n == 0:
            s_arr[0] = init.s
            v_arr[0] = init.v
        else:
            cum_beta += 0.5 * h * (beta[n - 1] + beta[n])
            g_exp = (p + params.mu) * t + cum_beta
            h_exp = (zeta_eff + params.mu) * t + one_minus_eff * cum_beta
            if g_exp > _EXP_GUARD or h_exp > _EXP_GUARD:
                raise AbortedRunError(
                    f"cumulative hazard overflow at step {n}; shorten the run", n
                )
            exp_g = math.exp(g_exp)
            source_s += 0.5 * h * (exp_g_prev + exp_g)
            s_n = (init.s + mu_n0 * source_s) / exp_g
            exp_h = math.exp(h_exp)
            sexp_h = s_n * exp_h
            source_v += 0.5 * h * (sexp_h_prev + sexp_h)
            v_n = (init.v + p * source_v) / exp_h
            exp_g_prev = exp_g
            sexp_h_prev = sexp_h
            s_arr[n] = s_n
            v_arr[n] = v_n

        eps[n] = beta[n] * (s_arr[n] + one_minus_eff * v_arr[n])
        alpha[n] = _trapezoid_dot(k_alpha_eps, eps, n, h) + h * float(
            (kv * qv) @ cohort_e
        )
        iota[n] = (
            _trapezoid_dot(k_iota_eps, eps, n, h)
            + _trapezoid_dot(k_iota_alpha, alpha, n, h)
            + h * float((kv * (1.0 - qv)) @ cohort_e + chi_branch @ cohort_a)
        )

        if n < n_steps:
            cohort_e[1:] = cohort_e[:-1] * age_e
            cohort_a[1:] = cohort_a[:-1] * age_a
            cohort_i[1:] = cohort_i[:-1] * age_i
            cohort_e[0] = cohort_a[0] = cohort_i[0] = 0.0

    return RenewalPath(
        t=init.t + np.arange(size) * h, beta=beta, eps=eps, alpha=alpha, iota=iota,
        s=s_arr, v=v_arr,
    )

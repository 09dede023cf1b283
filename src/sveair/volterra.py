"""Independent renewal-equation solver used to cross-validate the PDE scheme.

Marches the integral-equation form of the model in t: at each step the
force of infection, then S and V, then the latent/asymptomatic/symptomatic
boundary densities are evaluated from the history and from the transported
initial data.

Deliberate differences from the PDE solver, so the two routes share no
discretization machinery beyond the grid itself:
  - survival kernels are exact exponentials of the cumulative hazard, not
    products of explicit Euler factors;
  - S and V come from their exponential-integral formulas driven by the
    cumulative force of infection, not from the stepper's linearly
    implicit update;
  - history integrals over [0, t] use the trapezoid rule (the newest force
    term uses the previous step's boundary values; everything else is
    known when needed).
Initial-data integrals keep the solver's rectangle rule and absorbing
truncation at theta_max, so both routes evaluate identical functionals of
the identical initial state at t = 0.

The initial cohorts are nonzero only on the union support [first, last) of
the three initial densities, found once at the start. After n steps that
support has moved to [first + n, last + n), cut at the J age nodes, so the
march ages and reads only those nodes: each step costs O(min(n, J)) for
the history and O(last - first) for the initial data, not O(J). The t = 0
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
# the initial data; longer windows raise ParameterError.
T_MAX_CAP = 2000.0

# exp() guard for the cumulative-hazard exponents of the S/V formulas.
_EXP_GUARD = 700.0


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

    surv_e, surv_a, surv_i = (survival(rate, h) for rate in
                              (params.exit_rate_e, params.exit_rate_a, params.exit_rate_i))

    kv, qv = params.k.values, params.q.values
    beta_a, beta_i = params.beta_a.values, params.beta_i.values
    latent_to_asym = kv * qv
    latent_to_symp = kv * (1.0 - qv)
    chi_branch = params.chi.values * (1.0 - params.xi.values)
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
    support = (e0 != 0.0) | (a0 != 0.0) | (i0 != 0.0)
    first = int(support.argmax())
    last = n_nodes - int(support[::-1].argmax()) if support[first] else first
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
        if n == 0:
            hist = 0.0
            init_beta, init_alpha, init_iota = initial_part(e0, a0, i0, 0)
        else:
            # History part of beta; its lag-0 term needs this step's alpha
            # and iota, which are not yet known: previous step's values
            # stand in.
            length = min(n, n_nodes - 1)
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
        alpha[n] = _trapezoid_dot(k_alpha_eps, eps, n, h) + init_alpha
        iota[n] = (
            _trapezoid_dot(k_iota_eps, eps, n, h)
            + _trapezoid_dot(k_iota_alpha, alpha, n, h)
            + init_iota
        )

    return RenewalPath(
        t=np.arange(size) * h, beta=beta, eps=eps, alpha=alpha, iota=iota,
        s=s_arr, v=v_arr,
    )

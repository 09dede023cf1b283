"""Basic reproduction number and closed-form steady states.

R0 factorizes as prefactor * (R_A + R_I): the prefactor is the effective
susceptible pool at the disease-free state, R_A the expected transmission
routed through the asymptomatic stage, and R_I the symptomatic counterpart
(direct latent->symptomatic plus the latent->asymptomatic->symptomatic
route). The endemic force of infection beta* is the positive root of a
quadratic whose constant term changes sign exactly at R0 = 1.

All quadratures are the rectangle rule on the parameter grid, taken over
the scheme's own survival (`kernels`). So the r0 reported here is the
scheme's threshold, and the assembled steady state reproduces its own
boundary functionals to round-off and is the state the stepper is
stationary at: the disease-free state below the threshold, the endemic
fixed point above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sveair.errors import ParameterError
from sveair.grid import AgeProfile, Units, rect_integral, scheme_survival
from sveair.params import ParameterSet

# R0 within this distance of 1 is treated as the subcritical case (beta*=0).
R0_UNITY_TIE = 1e-12

DISEASE_FREE = "disease-free"
ENDEMIC = "endemic"


@dataclass(frozen=True)
class R0Breakdown:
    """R0 and its factors; r0 = prefactor * (r_a + r_i) by construction."""

    r_a: float
    r_i: float
    prefactor: float
    r0: float


@dataclass(frozen=True, eq=False)
class SteadyState:
    """One steady state: scalars, boundary densities, and age profiles."""

    s_star: float
    v_star: float
    beta_star: float
    eps_star: float
    alpha_star: float
    iota_star: float
    e_star: AgeProfile
    a_star: AgeProfile
    i_star: AgeProfile
    kind: str  # DISEASE_FREE or ENDEMIC


@dataclass(frozen=True, eq=False)
class _Kernels:
    """Survival factors and the reusable quadrature building blocks."""

    surv_e: AgeProfile
    surv_a: AgeProfile
    surv_i: AgeProfile
    latent_to_asym: float    # integral of k q * surv_e
    latent_to_symp: float    # integral of k (1-q) * surv_e
    asym_to_symp: float      # integral of chi (1-xi) * surv_a
    infectivity_a: float     # integral of beta_a * surv_a
    infectivity_i: float     # integral of beta_i * surv_i


def survivals(params: ParameterSet) -> np.ndarray:
    """The scheme's survival of e, a and i as one (3, J) array: the three
    exit-rate rows through one `grid.scheme_survival`, so with one block
    length, as `simulate` computes it when it tests a seed for stationarity."""
    rates = (params.exit_rate_e, params.exit_rate_a, params.exit_rate_i)
    return scheme_survival(rates, params.grid.h)


def kernels(params: ParameterSet) -> _Kernels:
    """The five quadrature blocks shared by R0 and the steady state: the
    `ParameterSet.flux_rows` that route a cohort on, integrated against the
    scheme's survival prod_{m<j} (1 - h * exit_rate[m]), the share of a
    cohort left after j steps. Steady states built on them are the ones the
    stepper is stationary at. Raises StabilityError, from
    `grid.scheme_factors`, when h * max exit rate >= 1, where the scheme has
    no survival and so no r0."""
    grid = params.grid
    surv_e, surv_a, surv_i = (AgeProfile(grid, surv, Units.PROPORTION)
                              for surv in survivals(params))
    to_asym, to_symp = (rect_integral(row * surv_e.values, grid) for row in params.flux_rows(0))
    infect_a, branch_a = (rect_integral(row * surv_a.values, grid)
                          for row in params.flux_rows(1)[:2])
    infect_i = rect_integral(params.flux_rows(2)[0] * surv_i.values, grid)
    return _Kernels(surv_e, surv_a, surv_i, to_asym, to_symp, branch_a, infect_a, infect_i)


def r0_prefactor(params: ParameterSet) -> float:
    """Effective susceptible pool at the disease-free state."""
    veff = 1.0 + params.p * (1.0 - params.epsilon) / (params.zeta * params.epsilon + params.mu)
    return params.mu * params.n0 / (params.p + params.mu) * veff


def compute_R0(params: ParameterSet, blocks: _Kernels | None = None) -> R0Breakdown:
    """R0 with its factors.

    r_a is the asymptomatic-route factor, r_i the symptomatic one (direct
    plus via-asymptomatic).
    """
    blocks = kernels(params) if blocks is None else blocks
    r_a = blocks.latent_to_asym * blocks.infectivity_a
    bracket = blocks.latent_to_symp + blocks.latent_to_asym * blocks.asym_to_symp
    r_i = bracket * blocks.infectivity_i
    prefactor = r0_prefactor(params)
    return R0Breakdown(r_a=r_a, r_i=r_i, prefactor=prefactor, r0=prefactor * (r_a + r_i))


def quadratic_coefficients(params: ParameterSet, r_sum: float) -> tuple[float, float, float]:
    """Coefficients (b2, b1, b0) of the endemic fixed-point quadratic.

    b0 is proportional to (1 - R0), so b0 < 0 exactly when R0 > 1.
    """
    eps = params.epsilon
    p, mu, zeta = params.p, params.mu, params.zeta
    b2 = 1.0 - eps
    b1 = (p + mu) * (1.0 - eps) + zeta * eps + mu - mu * params.n0 * r_sum * (1.0 - eps)
    b0 = (p + mu) * (eps * zeta + mu) * (1.0 - r0_prefactor(params) * r_sum)
    return b2, b1, b0


def solve_beta_star(params: ParameterSet, blocks: _Kernels | None = None) -> float:
    """Endemic force of infection: positive quadratic root, or 0 when R0 <= 1.

    For epsilon = 1 the quadratic degenerates to the linear equation with
    root -b0/b1. The quadratic is solved in the cancellation-free form and
    the nonpositive root discarded.
    """
    blocks = kernels(params) if blocks is None else blocks
    breakdown = compute_R0(params, blocks)
    if breakdown.r0 <= 1.0 + R0_UNITY_TIE:
        return 0.0
    b2, b1, b0 = quadratic_coefficients(params, breakdown.r_a + breakdown.r_i)
    if b2 == 0.0:
        # epsilon = 1: b1 > 0 and b0 < 0 here.
        return -b0 / b1
    # b2 > 0 > b0, so the roots have opposite signs and qform is nonzero.
    qform = -0.5 * (b1 + math.copysign(math.sqrt(b1 * b1 - 4.0 * b2 * b0), b1))
    return max(qform / b2, b0 / qform)


def steady_state(params: ParameterSet, beta_star: float, blocks: _Kernels | None = None) -> SteadyState:
    """Assemble the steady state for a given beta* (0 gives the DFE).

    Components follow the closed forms: S* and V* from the balance
    equations, boundary densities from the renewal functionals, and the age
    profiles as boundary value times survival factor.
    """
    if beta_star < 0:
        raise ParameterError(f"beta_star must be nonnegative, got {beta_star}")
    blocks = kernels(params) if blocks is None else blocks
    eps, p, mu, zeta = params.epsilon, params.p, params.mu, params.zeta
    s_star = mu * params.n0 / (p + beta_star + mu)
    v_star = p * s_star / (zeta * eps + beta_star * (1.0 - eps) + mu)
    eps_star = beta_star * (s_star + (1.0 - eps) * v_star)
    alpha_star = eps_star * blocks.latent_to_asym
    iota_star = eps_star * blocks.latent_to_symp + alpha_star * blocks.asym_to_symp
    grid = params.grid
    return SteadyState(
        s_star=s_star,
        v_star=v_star,
        beta_star=beta_star,
        eps_star=eps_star,
        alpha_star=alpha_star,
        iota_star=iota_star,
        e_star=AgeProfile(grid, eps_star * blocks.surv_e.values, Units.DENSITY),
        a_star=AgeProfile(grid, alpha_star * blocks.surv_a.values, Units.DENSITY),
        i_star=AgeProfile(grid, iota_star * blocks.surv_i.values, Units.DENSITY),
        kind=ENDEMIC if beta_star > 0 else DISEASE_FREE,
    )


def matching_steady_state(params: ParameterSet) -> tuple[R0Breakdown, SteadyState]:
    """R0 breakdown plus the globally attracting steady state for params."""
    blocks = kernels(params)
    breakdown = compute_R0(params, blocks)
    beta_star = solve_beta_star(params, blocks)
    return breakdown, steady_state(params, beta_star, blocks)

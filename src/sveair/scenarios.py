"""Built-in parameter sets and initial-condition builders.

Two frozen scenarios, "table2-c1" and "table2-c2", differ only in the
contact function: a Gaussian bump of width 1e4 days with grid-average 16.71
contacts/day, centered at age 80 years (c1) or 10 years (c2). Transmission
rates split the contacts into the latent->asymptomatic and
latent->symptomatic routes (weights 1/5 and 2/5) scaled by 1/N0.

The age-dependent asymptomatic proportion ships as a bundled CSV, and
every built-in scenario reads it: when it is missing or unreadable,
`load_profile_csv` raises a ProfileError naming its path.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from sveair.errors import ConfigError, ParameterError
from sveair.grid import (
    AgeGrid,
    AgeProfile,
    Units,
    constant_profile,
    load_profile_csv,
    rect_integral,
    sample_contact,
    sample_step_function,
)
from sveair.params import ParameterSet
from sveair.reproduction import ENDEMIC, SteadyState
from sveair.solver import State

DAYS_PER_YEAR = 360.0
THETA_MAX_DEFAULT = 90 * DAYS_PER_YEAR  # maximum age of the population

N0 = 80e6
MU = 4.38356e-5          # per day; world birth/death rate 16/1000/year
VACCINATION_RATE = 1e-3  # per day
VACCINE_EFFECTIVENESS = 0.7
VACCINE_IMMUNITY_RATE = 1.0 / 14.0
XI_NEVER_SYMPTOMATIC = 0.5
GAMMA_A = 1.0 / 8.0
GAMMA_I = 1.0 / 14.0

MEAN_CONTACTS = 16.71    # contacts per day, grid average
CONTACT_WIDTH = 1e4      # days
CONTACT_CENTERS = {"table2-c1": 80 * DAYS_PER_YEAR, "table2-c2": 10 * DAYS_PER_YEAR}
PROB_LATENT_TO_ASYM = 1.0 / 5.0
PROB_LATENT_TO_SYMP = 2.0 / 5.0

AGE_BREAKS = [30 * DAYS_PER_YEAR, 40 * DAYS_PER_YEAR, 50 * DAYS_PER_YEAR,
              60 * DAYS_PER_YEAR, 70 * DAYS_PER_YEAR]
K_VALUES = [1 / 4, 1 / 4.8, 1 / 4.8, 1 / 5.5, 1 / 3.1, 1 / 6]
CHI_VALUES = [1 / 5, 1 / 5.8, 1 / 5.8, 1 / 6.5, 1 / 4.1, 1 / 7]

S0_DEFAULT = 2e7
V0_DEFAULT = 2e7
D_SWEEP_DEFAULT = (10.0, 1e4, 1e6, 4e6, 1e7)
SEED_BAND_DEFAULT = (20 * DAYS_PER_YEAR, 50 * DAYS_PER_YEAR)

BUILTIN_NAMES = tuple(CONTACT_CENTERS)


def latent_rate_profile(grid: AgeGrid) -> AgeProfile:
    """Piecewise-constant latent-exit rate k(theta)."""
    return sample_step_function(AGE_BREAKS, K_VALUES, grid, Units.RATE)


def symptomatic_transition_profile(grid: AgeGrid) -> AgeProfile:
    """Piecewise-constant symptomatic-transition rate chi(theta)."""
    return sample_step_function(AGE_BREAKS, CHI_VALUES, grid, Units.RATE)


_BUNDLED_Q = "data/q_asymptomatic_proportion.csv"


def asymptomatic_proportion_profile(grid: AgeGrid) -> AgeProfile:
    """Bundled age-dependent q(theta); a ProfileError if it cannot be read."""
    with resources.as_file(resources.files("sveair").joinpath(_BUNDLED_Q)) as path:
        return load_profile_csv(path, grid, Units.PROPORTION)


def builtin_scenario(name: str, grid: AgeGrid, **overrides) -> ParameterSet:
    """Table-2 parameter set of a built-in scenario on `grid`; keyword
    overrides replace fields."""
    if name not in BUILTIN_NAMES:
        raise ConfigError(f"unknown built-in scenario {name!r}; choose from {BUILTIN_NAMES}")
    contacts = sample_contact(CONTACT_CENTERS[name], MEAN_CONTACTS, CONTACT_WIDTH, grid)
    fields = dict(
        n0=N0,
        mu=MU,
        p=VACCINATION_RATE,
        epsilon=VACCINE_EFFECTIVENESS,
        zeta=VACCINE_IMMUNITY_RATE,
        beta_a=AgeProfile(grid, contacts.values * PROB_LATENT_TO_ASYM / N0, Units.TRANSMISSION),
        beta_i=AgeProfile(grid, contacts.values * PROB_LATENT_TO_SYMP / N0, Units.TRANSMISSION),
        k=latent_rate_profile(grid),
        q=asymptomatic_proportion_profile(grid),
        xi=constant_profile(grid, XI_NEVER_SYMPTOMATIC, Units.PROPORTION),
        chi=symptomatic_transition_profile(grid),
        gamma_a=constant_profile(grid, GAMMA_A, Units.RATE),
        gamma_i=constant_profile(grid, GAMMA_I, Units.RATE),
    )
    fields.update(overrides)
    return ParameterSet(**fields)


def band_initial_state(
    params: ParameterSet,
    s0: float,
    v0: float,
    d: float,
    band: tuple[float, float] = SEED_BAND_DEFAULT,
) -> State:
    """Seed E0 = A0 = I0 = d uniformly over an age band.

    The density value is d / (h * n_band) so each compartment mass is
    exactly d under the rectangle rule.
    """
    grid = params.grid
    lo, hi = band
    if not 0 <= lo < hi:
        raise ParameterError(f"invalid age band {band}")
    mask = (grid.nodes >= lo - 1e-9) & (grid.nodes < hi - 1e-9)
    n_band = int(mask.sum())
    if n_band == 0:
        raise ParameterError(f"age band {band} contains no grid nodes")
    density = np.zeros(grid.n_nodes)
    density[mask] = d / (grid.h * n_band)
    profile = AgeProfile(grid, density, Units.DENSITY)
    return State(t=0.0, s=s0, v=v0, e=profile, a=profile, i=profile)


def steady_scaled_initial_state(
    params: ParameterSet,
    steady: SteadyState,
    s0: float,
    v0: float,
    d: float,
) -> State:
    """Seed the masses d along the endemic steady-state age profiles.

    Densities are strictly positive wherever the steady densities are, which
    keeps the endemic Lyapunov function finite along the run.
    """
    if steady.kind != ENDEMIC:
        raise ParameterError("steady-scaled seeding needs an endemic steady state")
    grid = params.grid
    masses = [rect_integral(p.values, grid) for p in (steady.e_star, steady.a_star, steady.i_star)]
    if min(masses) <= 0:
        raise ParameterError("endemic steady state has a zero-mass density")
    e_mass, a_mass, i_mass = masses
    return State(
        t=0.0,
        s=s0,
        v=v0,
        e=steady.e_star.with_values(steady.e_star.values * (d / e_mass)),
        a=steady.a_star.with_values(steady.a_star.values * (d / a_mass)),
        i=steady.i_star.with_values(steady.i_star.values * (d / i_mass)),
    )


def steady_initial_state(steady: SteadyState) -> State:
    """The steady state itself as an initial condition."""
    return State(
        t=0.0,
        s=steady.s_star,
        v=steady.v_star,
        e=steady.e_star,
        a=steady.a_star,
        i=steady.i_star,
    )

"""Model parameters: profile units, routing rows and exit rates.

The step bound h * rate < 1 on these rates is checked where the scheme's
decay factors are formed, in `grid.scheme_factors`."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from sveair.errors import ParameterError
from sveair.grid import AgeGrid, AgeProfile, Units

# The unit of each age profile, in field order: the one table that the
# container checks and that config overrides are built with.
PROFILE_UNITS = {
    "beta_a": Units.TRANSMISSION, "beta_i": Units.TRANSMISSION, "k": Units.RATE,
    "q": Units.PROPORTION, "xi": Units.PROPORTION, "chi": Units.RATE,
    "gamma_a": Units.RATE, "gamma_i": Units.RATE,
}


@dataclass(frozen=True, eq=False)
class ParameterSet:
    """All scalar and age-dependent model parameters.

    Scalars: population size n0 and birth/death rate mu (the two required
    to be strictly positive), vaccination rate p, vaccine
    effectiveness epsilon in [0, 1] and vaccine-induced immunity rate zeta.

    Age profiles, all on one shared grid: transmission rates beta_a/beta_i,
    latent-exit rate k, asymptomatic proportion q, never-symptomatic
    proportion xi, symptomatic-transition rate chi, recovery rates
    gamma_a/gamma_i.
    """

    n0: float
    mu: float
    p: float
    epsilon: float
    zeta: float
    beta_a: AgeProfile
    beta_i: AgeProfile
    k: AgeProfile
    q: AgeProfile
    xi: AgeProfile
    chi: AgeProfile
    gamma_a: AgeProfile
    gamma_i: AgeProfile

    def __post_init__(self):
        for name in ("n0", "mu"):
            value = getattr(self, name)
            if not value > 0:
                raise ParameterError(f"{name} must be strictly positive, got {value}")
        for name in ("p", "zeta"):
            value = getattr(self, name)
            if not value >= 0:
                raise ParameterError(f"{name} must be nonnegative, got {value}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ParameterError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        for name, units in PROFILE_UNITS.items():
            if getattr(self, name).units is not units:
                raise ParameterError(f"{name} must be a {units.name.lower()} profile")
        grid = self.beta_a.grid
        for name in PROFILE_UNITS:
            if getattr(self, name).grid != grid:
                raise ParameterError(f"profile {name} is not on the shared grid")

    @property
    def grid(self) -> AgeGrid:
        return self.beta_a.grid

    def flux_rows(self, c: int) -> tuple:
        """The routing rows of compartment c, in the frame's row order. Each
        row, integrated against the compartment's density, is one flux:

          c = 0, e: k q (to a), k (1 - q) (to i)
          c = 1, a: beta_a (infection), chi (1 - xi) (to i), gamma_a xi (recovery)
          c = 2, i: beta_i (infection), gamma_i (recovery)

        The rows are built on each call and not kept. A row that is a single
        profile is that profile's read-only `values`, not a copy.
        """
        if c == 0:
            k, q = self.k.values, self.q.values
            return k * q, k * (1.0 - q)
        if c == 1:
            xi = self.xi.values
            return self.beta_a.values, self.chi.values * (1.0 - xi), self.gamma_a.values * xi
        if c == 2:
            return self.beta_i.values, self.gamma_i.values
        raise ValueError(f"compartment index must be 0, 1 or 2, got {c}")

    # The three exit rates of the transport equations (death rate included);
    # those of a and i are their outflow rows plus mu.

    @cached_property
    def exit_rate_e(self) -> np.ndarray:
        """Latent compartment: k + mu."""
        return self.k.values + self.mu

    @cached_property
    def exit_rate_a(self) -> np.ndarray:
        """Asymptomatic compartment: gamma_a*xi + chi*(1-xi) + mu."""
        _, to_symp, recover = self.flux_rows(1)
        return recover + to_symp + self.mu

    @cached_property
    def exit_rate_i(self) -> np.ndarray:
        """Symptomatic compartment: gamma_i + mu."""
        return self.flux_rows(2)[1] + self.mu

"""Model parameter container, the three compartment exit rates and their step bound."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from sveair.errors import ParameterError, StabilityError
from sveair.grid import AgeGrid, AgeProfile, Units


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
        for name in ("q", "xi"):
            if getattr(self, name).units is not Units.PROPORTION:
                raise ParameterError(f"{name} must be a proportion profile")
        for name in ("k", "chi", "gamma_a", "gamma_i"):
            if getattr(self, name).units is not Units.RATE:
                raise ParameterError(f"{name} must be a rate profile")
        for name in ("beta_a", "beta_i"):
            if getattr(self, name).units is not Units.TRANSMISSION:
                raise ParameterError(f"{name} must be a transmission profile")
        grid = self.beta_a.grid
        for name in ("beta_i", "k", "q", "xi", "chi", "gamma_a", "gamma_i"):
            if getattr(self, name).grid != grid:
                raise ParameterError(f"profile {name} is not on the shared grid")

    @property
    def grid(self) -> AgeGrid:
        return self.beta_a.grid

    # The three exit rates of the transport equations (death rate included).

    @cached_property
    def exit_rate_e(self) -> np.ndarray:
        """Latent compartment: k + mu."""
        return self.k.values + self.mu

    @cached_property
    def exit_rate_a(self) -> np.ndarray:
        """Asymptomatic compartment: gamma_a*xi + chi*(1-xi) + mu."""
        xi = self.xi.values
        return self.gamma_a.values * xi + self.chi.values * (1.0 - xi) + self.mu

    @cached_property
    def exit_rate_i(self) -> np.ndarray:
        """Symptomatic compartment: gamma_i + mu."""
        return self.gamma_i.values + self.mu

    def stable_exit_rate(self) -> float:
        """The largest exit rate, once h times it is checked to be below 1, the
        bound that keeps every scheme factor 1 - h * rate positive."""
        h = self.grid.h
        worst = max(float(rate.max()) for rate in
                    (self.exit_rate_e, self.exit_rate_a, self.exit_rate_i))
        if h * worst >= 1.0:
            raise StabilityError(f"h * max exit rate = {h * worst:.3g} >= 1; "
                                 f"reduce h below {1.0 / worst:.3g} days")
        return worst

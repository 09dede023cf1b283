"""Age-structured SVEAIR epidemic engine.

Core pieces: the age mesh and profile primitives (grid), the parameter
container (params), closed-form reproduction numbers and steady states
(reproduction), the characteristic-scheme time stepper (solver), the
independent renewal-equation oracle (volterra), Lyapunov and convergence
diagnostics (diagnostics), built-in scenarios (scenarios), and the config
driven runner and CLI.
"""

from sveair.grid import AgeGrid, AgeProfile, Units, build_grid, survival
from sveair.params import ParameterSet
from sveair.reproduction import (
    R0Breakdown,
    SteadyState,
    compute_R0,
    solve_beta_star,
    steady_state,
)
from sveair.solver import State, TimeSeries, simulate
from sveair.volterra import RenewalPath, solve_renewal
from sveair.diagnostics import (
    LyapunovEvaluator,
    LyapunovWeights,
    convergence_metric,
    lyapunov_weights,
    monotonicity_check,
)

__all__ = [
    "AgeGrid", "AgeProfile", "Units", "build_grid", "survival",
    "ParameterSet",
    "R0Breakdown", "SteadyState", "compute_R0",
    "solve_beta_star", "steady_state",
    "State", "TimeSeries", "simulate",
    "RenewalPath", "solve_renewal",
    "LyapunovEvaluator", "LyapunovWeights", "convergence_metric", "lyapunov_weights",
    "monotonicity_check",
]

__version__ = "0.1.0"

"""Exception types raised by the engine."""


class SveairError(Exception):
    """Base class for all engine errors."""


class InvalidGridError(SveairError):
    """Age grid parameters violate the uniform-mesh contract."""


class ProfileError(SveairError):
    """An age profile violates its unit-range or shape invariants."""


class ParameterError(SveairError):
    """A parameter set violates the model hypotheses."""


class StabilityError(SveairError):
    """The explicit scheme's decay factors would change sign at this step size."""


class AbortedRunError(SveairError):
    """A simulation produced a non-finite value.

    Attributes:
        step_index: Index of the time step at which the run aborted.
    """

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class LyapunovDomainError(SveairError):
    """A Lyapunov evaluation hit a nonpositive argument of x - 1 - ln(x).

    Attributes:
        scalars: True when S or V is outside the domain, False when an age
            density is.
    """

    def __init__(self, message: str, scalars: bool):
        super().__init__(message)
        self.scalars = scalars


class ConfigError(SveairError):
    """A scenario configuration file failed to parse or validate."""

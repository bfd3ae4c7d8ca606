"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all sidelab errors."""


class SingularOperator(ToolkitError):
    """The vectorized Lyapunov operator is singular beyond tolerance.

    Raised at a stability boundary, where the defining equation has no
    (or no reliable) solution.
    """


class NotPositiveDefinite(ToolkitError):
    """A matrix required to be positive definite failed the gate."""


class NotLinear(ToolkitError):
    """An evaluator failed the linearity probe of an exact checker."""


class GridMismatch(ToolkitError):
    """A requested grid is not nested in the finest noise grid."""


class NonFinite(ToolkitError):
    """A simulated state overflowed; carries the offending step index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class NoConvergence(ToolkitError):
    """The Arnoldi iteration of the stepsize bound ran out of restarts."""


class ValidationFailed(ToolkitError):
    """A map does not vanish at the origin (probed at construction), or an
    impulse gap lies outside its declared bounds (`quadratic_condition_constants`)."""


class StepsizeTooLarge(ToolkitError):
    """The controller demo stepsize violates its admissibility bound."""


class ConfigError(ToolkitError):
    """A run configuration is malformed; message names the key or line."""

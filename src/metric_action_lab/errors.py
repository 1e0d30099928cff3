"""Exception types shared across the library."""


class MetricActionError(Exception):
    """Base class for all library errors."""


class SpaceMismatchError(MetricActionError):
    """A point was used with a space it does not belong to."""


class DomainError(MetricActionError, ValueError):
    """A parameter lies outside its admissible range."""


class ConfigError(MetricActionError, ValueError):
    """Invalid configuration value."""


class PreconditionError(MetricActionError):
    """A documented precondition does not hold for the given inputs."""


class ConvergenceError(MetricActionError):
    """A solver failed to reach tolerance.

    Carries the best iterate found so callers can inspect or reuse it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class FlowError(MetricActionError):
    """Trajectory construction failed; ``partial`` is the list of points
    reached before the failing step."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConcatenationError(MetricActionError):
    """Curve concatenation failed; the message names the junction."""


class InitializationError(MetricActionError):
    """An initial guess is infeasible (infinite objective)."""


class ScheduleError(MetricActionError):
    """No admissible switch time exists on the supplied grid."""

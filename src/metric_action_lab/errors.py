"""Exception types shared across the library.

A bad input fails with ``ConfigError`` (a config value) or ``DomainError``
(a point, parameter or curve outside what the operation takes), and a
solver that stops short with ``ConvergenceError``.
"""


class MetricActionError(Exception):
    """Base class for all library errors."""


class DomainError(MetricActionError, ValueError):
    """A point, parameter or curve lies outside its admissible range."""


class ConfigError(MetricActionError, ValueError):
    """Invalid configuration value."""


class ConvergenceError(MetricActionError):
    """A solver failed to reach tolerance.

    Carries the best iterate found so callers can inspect or reuse it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best

"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter is outside the domain where an operation is defined."""


class PoleError(ValueError):
    """Evaluation was requested too close to a singularity.

    ``distance`` holds the estimated distance to the nearest pole when known.
    """

    def __init__(self, message, distance=None):
        super().__init__(message)
        self.distance = distance


class BlowUpError(RuntimeError):
    """The numerical solution stopped being finite.

    Carries the failing step index, the time reached, and the last finite
    snapshot so callers can inspect how far the run got.  A batched run
    also sets ``row``, the index of the failing configuration.
    """

    def __init__(self, message, step=None, t=None, last_snapshot=None, row=None):
        super().__init__(message)
        self.step = step
        self.t = t
        self.last_snapshot = last_snapshot
        self.row = row


class ConfigError(ValueError):
    """Bad run-configuration text; ``line`` is 1-based when it applies."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

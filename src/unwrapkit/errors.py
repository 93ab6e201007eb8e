"""Exception types shared across the package.

Most errors derive from ValueError so callers that do not care about the
fine-grained taxonomy can catch the usual built-in.
"""


class UnwrapKitError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(UnwrapKitError, ValueError):
    """An argument violates a documented precondition (non-finite input, bad count, ...)."""


class DegeneratePlanError(UnwrapKitError, ValueError):
    """A frequency plan cannot support the requested operation (repeated frequencies, zero denominator)."""


class InfeasibleDesignError(UnwrapKitError, ValueError):
    """The requested pattern parameters admit no valid design (bandwidth-range product too small)."""


class UndefinedBoundError(UnwrapKitError, ValueError):
    """A theoretical bound is undefined for the given noise level (sigma = 0)."""


class UnknownEstimatorError(UnwrapKitError, KeyError):
    """Estimator name that is not one of ``bw``, ``concerto`` and ``ef``."""

    # KeyError's own __str__ quotes its message
    __str__ = Exception.__str__


class ConfigError(UnwrapKitError, ValueError):
    """A configuration file or trial configuration is malformed."""

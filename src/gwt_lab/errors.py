"""Exception types shared across the library, and the integer check behind ParameterError."""

import numbers


class GwtLabError(Exception):
    """Base class for all library errors."""


class ParameterError(GwtLabError, ValueError):
    """Invalid distribution or configuration parameter."""


def require_integer(name: str, value) -> None:
    """Raise ParameterError unless ``value`` is an integer; bools and floats are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


class DomainError(GwtLabError, ValueError):
    """Input data outside the operation's domain (e.g. negative samples)."""


class InsufficientDataError(GwtLabError):
    """Not enough usable points to carry out a fit or a conditional estimate."""


class DegenerateTailError(GwtLabError):
    """The fitted tail is not a decaying stretched exponential.

    Raised when the fit runs into its search bounds or the fitted decay
    coefficient is nonpositive, which signals a bounded or otherwise
    irregular tail rather than a Weibull-like one.
    """


class OverflowAbortError(GwtLabError):
    """Too many Monte Carlo replicates overflowed; the run was aborted."""


class ConfigError(GwtLabError, ValueError):
    """Malformed experiment configuration."""

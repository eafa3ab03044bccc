"""Exception types, and the three rules that refuse a scalar: require_integer, require_finite, require_choice."""

import math
import numbers


class GwtLabError(Exception):
    """Base class for all library errors."""


class ParameterError(GwtLabError, ValueError):
    """Invalid distribution or configuration parameter."""


def require_integer(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Raise ParameterError unless ``value`` is an integer in ``low..high``; bools and floats are refused.

    A bound left as None is not checked.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ParameterError(f"{name} must be <= {high}, got {value}")


def require_finite(name: str, value, positive: bool = False) -> None:
    """Raise ParameterError unless ``value`` is a real, not a bool, finite in float64, and > 0 if ``positive``."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int beyond float range
        finite = False
    if not finite or (positive and not value > 0):
        raise ParameterError(f"{name} must be a finite {'positive ' if positive else ''}number, got {value!r}")


def require_choice(name: str, value, choices) -> None:
    """Raise ParameterError unless ``value`` is a str in ``choices``; a list is refused, never hashed."""
    if not (isinstance(value, str) and value in choices):
        raise ParameterError(f"{name} must be one of {sorted(choices)}, got {value!r}")


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

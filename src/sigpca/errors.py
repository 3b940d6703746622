"""Exception types shared across the package, and the count check that
raises one.

The CLI maps these onto exit codes: input and configuration problems
(anything deriving from ValueError here) exit with 1, numerical failures
exit with 2.
"""

import numbers


class SigpcaError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SigpcaError, ValueError):
    """An array argument has the wrong shape or inconsistent dimensions."""


class ConfigError(SigpcaError, ValueError):
    """A configuration value is out of its documented range."""


class DataError(SigpcaError, ValueError):
    """Input data violates a precondition (e.g. an all-missing column)."""


class LoadError(DataError):
    """A file could not be parsed into a dataset."""


class NumericalError(SigpcaError, RuntimeError):
    """A numerical routine failed to converge or produced non-finite values."""


def _check_count(label: str, value, minimum: int) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{label} must be an integer >= {minimum}, got {value}")

"""Exception types shared across the package, and the shared input checks."""

import math
import numbers


class ProxdegError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(ProxdegError, ValueError):
    """An argument violates a function's contract."""


def check_int(name, value, lo) -> int:
    """Return ``value`` as an int. Raise ParameterError naming ``name``
    unless it is an integer (any ``numbers.Integral``, NumPy's included,
    but not a bool) and at least ``lo``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < lo:
        raise ParameterError(f"{name} must be an int >= {lo}, got {value!r}")
    return int(value)


def check_real(name, value) -> float:
    """Return ``value`` as a float. Raise ParameterError naming ``name``
    unless it is a finite real number (any ``numbers.Real``, NumPy's
    included, but not a bool)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        if real and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the double range
        pass
    raise ParameterError(f"{name} must be a finite number, got {value!r}")


def check_number(name, value, zero_ok=False) -> float:
    """``check_real``, and positive, or zero as well with ``zero_ok``."""
    value = check_real(name, value)
    if not (value > 0.0 or zero_ok and value == 0.0):
        sign = "nonnegative" if zero_ok else "positive"
        raise ParameterError(f"{name} must be {sign}, got {value!r}")
    return value


class DuplicatePointError(ProxdegError, ValueError):
    """A point set contains two identical points."""


class DisconnectedGraphError(ProxdegError, ValueError):
    """Stretch is undefined because some vertex pair has no path."""

    def __init__(self, u: int, v: int):
        super().__init__(
            f"graph is disconnected: vertices {u} and {v} are mutually unreachable"
        )
        self.pair = (u, v)

    def __reduce__(self):
        return (type(self), self.pair)


class TrialError(ProxdegError, RuntimeError):
    """A Monte Carlo trial failed; carries the trial index."""

    def __init__(self, trial: int, message: str):
        super().__init__(f"trial {trial}: {message}")
        self.trial = trial
        self.message = message

    def __reduce__(self):
        return (type(self), (self.trial, self.message))

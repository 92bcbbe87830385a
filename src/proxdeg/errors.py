"""Exception types shared across the package, and the shared number check."""

import math


class ProxdegError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(ProxdegError, ValueError):
    """An argument violates a function's contract."""


def check_number(name, value, zero_ok=False) -> float:
    """Return ``value`` as a float. Raise ParameterError naming ``name``
    unless it is an int or float (not a bool), finite, and positive, or
    zero as well with ``zero_ok``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not (math.isfinite(value) and (value > 0.0 or zero_ok and value == 0.0)):
        sign = "nonnegative" if zero_ok else "positive"
        raise ParameterError(f"{name} must be {sign} and finite, got {value!r}")
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

"""Exception types shared across the package."""


class HawkDoveError(Exception):
    """Base class for all package errors."""


class InvalidStartError(HawkDoveError, ValueError):
    """An initial condition lies off the population simplex (a rejected input)."""


class UndefinedPointError(HawkDoveError):
    """An equilibrium formula divides by zero at these parameters (c = 0)."""

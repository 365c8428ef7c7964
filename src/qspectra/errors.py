"""Exception types shared across the library, and the one argument check
that raises them for every positive real parameter."""

import math

__all__ = ["DomainError", "PoleError", "UnsupportedModelError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(ValueError):
    """An evaluation point coincides with, or sits too close to, a pole."""


class UnsupportedModelError(ValueError):
    """A transformation would leave the family of supported model spectra."""


def positive_real(name: str, value) -> float:
    """``value`` as a float; DomainError naming ``name`` unless it is a
    finite real number > 0."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be a finite positive number, got {value!r}")
    return x

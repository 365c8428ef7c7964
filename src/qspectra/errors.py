"""Exception types shared across the library, the argument checks that
raise them, one per kind of argument, and the one check of a float64
result.

numpy is imported by the array checks when they run, never at load time:
the scalar checks serve code that builds no array."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

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
    except (TypeError, ValueError, OverflowError):  # an int beyond float64
        x = math.nan
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be a finite positive number, got {value!r}")
    return x


def positive_int(name: str, value) -> int:
    """``value`` as an int; DomainError naming ``name`` unless it is a number
    with an integral value >= 1 (2.0 is read as 2; 2.5 and "2" are refused)."""
    try:
        n = int(value)
        exact = n == value
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not (exact and n >= 1):
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return n


def nonzero_real(name: str, value) -> float:
    """``value`` as a float; DomainError naming ``name`` unless it is a
    finite real number != 0."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):  # an int beyond float64
        x = math.nan
    if not (math.isfinite(x) and x != 0.0):
        raise DomainError(f"{name} must be finite and nonzero, got {value!r}")
    return x


def finite_vector(name: str, values) -> np.ndarray:
    """``values`` as a 1-d float64 array, each entry as float() reads it;
    DomainError naming ``name`` unless it is a non-empty flat sequence of
    finite reals. Text is refused, not read character by character."""
    import numpy as np

    if isinstance(values, (str, bytes, bytearray)):
        raise DomainError(f"{name} must be a sequence of numbers, got {values!r}")
    if isinstance(values, Iterable) and not isinstance(values, (Sequence, np.ndarray)):
        values = tuple(values)
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a sequence of numbers: {exc}") from None
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a flat sequence of numbers, got shape {arr.shape}")
    if arr.size == 0:
        raise DomainError(f"{name} must contain at least one entry")
    finite = np.isfinite(arr)
    if not finite.all():
        first = int(np.argmin(finite))
        raise DomainError(f"{name} entry {first} must be finite, got {arr[first].item()!r}")
    return arr


def finite(value, message: str, *args):
    """``value`` itself when it is finite (every entry, for an array);
    otherwise DomainError(message.format(*args)). The message is formatted
    only on failure, so a passing check costs one isfinite test."""
    if isinstance(value, float):
        ok = math.isfinite(value)
    else:  # an array, so numpy is loaded already
        import numpy as np

        ok = np.isfinite(value).all()
    if ok:
        return value
    raise DomainError(message.format(*args))

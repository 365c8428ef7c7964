"""Exception types shared across the library, the argument checks that
raise them, one per kind of argument, the one check of a float64 result,
and the base of the immutable value classes that load without numpy.

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


# A quoted value whose repr is longer than this keeps only its head and
# tail, so that a refused 10**400 or 100,000-character string gives a
# message of bounded length.
_QUOTE_MAX = 64
_QUOTE_END = 30


# Text that numpy puts in a refusal is clipped the same way above this
# length, which keeps short texts such as its 157-character
# inhomogeneous-shape message whole.
_NUMPY_TEXT_MAX = 200


def _clip(text: str, limit: int) -> str:
    """text in full up to limit characters, else its first and last
    _QUOTE_END characters around '...'."""
    if len(text) <= limit:
        return text
    return f"{text[:_QUOTE_END]}...{text[-_QUOTE_END:]}"


def _quote(value) -> str:
    """repr(value) for a refusal message, clipped to _QUOTE_MAX characters.
    An int too long for repr (beyond sys.get_int_max_str_digits()) is named
    by its size."""
    try:
        text = repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return f"<int of {value.bit_length()} bits>"
    return _clip(text, _QUOTE_MAX)


def as_float(name: str, value) -> float:
    """``value`` as float() reads it, nan and +-inf included, for the
    caller to judge; DomainError naming ``name`` where float() fails or
    overflows (None, text that is not a number, an int beyond float64)."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a real number within float64, got {_quote(value)}") from None


def positive_real(name: str, value) -> float:
    """``value`` as a float; DomainError naming ``name`` unless it is a
    finite real number > 0."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):  # an int beyond float64
        x = math.nan
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be a finite positive number, got {_quote(value)}")
    return x


def finite_real(name: str, value) -> float:
    """``value`` as a float; DomainError naming ``name`` unless it is a
    finite real number."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):  # an int beyond float64
        raise DomainError(f"{name} must be finite, got {_quote(value)}") from None
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _integral(value) -> int | None:
    """``value`` as an int where it is a number with an integral value (2.0
    is read as 2), else None (2.5, "2", None, nan and +-inf)."""
    try:
        n = int(value)
        return n if n == value else None
    except (TypeError, ValueError, OverflowError):
        return None


def positive_int(name: str, value) -> int:
    """``value`` as an int; DomainError naming ``name`` unless it is a number
    with an integral value >= 1 (2.0 is read as 2; 2.5 and "2" are refused)."""
    n = _integral(value)
    if n is None or n < 1:
        raise DomainError(f"{name} must be a positive integer, got {_quote(value)}")
    return n


def nonzero_real(name: str, value) -> float:
    """``value`` as a float; DomainError naming ``name`` unless it is a
    finite real number != 0."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):  # an int beyond float64
        x = math.nan
    if not (math.isfinite(x) and x != 0.0):
        raise DomainError(f"{name} must be finite and nonzero, got {_quote(value)}")
    return x


def finite_vector(name: str, values) -> np.ndarray:
    """``values`` as a 1-d float64 array, each entry as float() reads it;
    DomainError naming ``name`` unless it is a non-empty flat sequence of
    finite reals. Text is refused, not read character by character."""
    import numpy as np

    if isinstance(values, (str, bytes, bytearray)):
        raise DomainError(f"{name} must be a sequence of numbers, got {_quote(values)}")
    if isinstance(values, Iterable) and not isinstance(values, (Sequence, np.ndarray)):
        values = tuple(values)
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a sequence of numbers: {_clip(str(exc), _NUMPY_TEXT_MAX)}") from None
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


class FrozenRecord:
    """Base of the immutable value classes of the modules that load without
    numpy, zeta's ShiftedLinear and PowerSpectrum. It stands in for
    @dataclass(frozen=True), whose module imports inspect; the modules that
    load numpy keep their dataclasses.

    A subclass names its fields in order in ``_fields`` and stores them in
    its own ``__init__`` through ``__dict__``; the fields with a default
    there are the trailing ones. As for a frozen dataclass, instances are
    equal when they are of the same class with equal fields, the hash is
    that of the field tuple, repr reads ``Name(field=value, ...)``, and
    setting or deleting an attribute raises AttributeError. copy and
    pickle restore ``__dict__`` without calling ``__setattr__``."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({items})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

"""Deformed scalar calculus.

The q-logarithm and q-exponential replace ln/exp with power-law kernels
controlled by a real index q, recovering the classical pair at q = 1.
Products and quotients built from them satisfy a pseudo-additive law

    ln_q(x (x) y) = ln_q x + ln_q y + (1 - q) ln_q x ln_q y

and the whole family is covariant under the reparametrisation
q' = 1 + theta (q - 1), which rescales exponents rather than values.

All operations are pure functions on floats. Deformed exponentials carry a
positive-part truncation; it is reported through a flag instead of raising,
so chains of operations can track admissibility explicitly.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from .errors import DomainError, nonzero_real

__all__ = [
    "NEAR_ONE_EPS",
    "QParam",
    "QLike",
    "ClampedValue",
    "as_qparam",
    "q_log",
    "q_exp",
    "q_mul",
    "q_div",
    "q_prod",
    "theta_reparam",
]

NEAR_ONE_EPS = 1e-8

# math.exp overflows (raises) past this; the deformed exponential returns inf
# instead, matching the divergent branch of the positive-part power.
_EXP_MAX = 709.782712893384


@dataclass(frozen=True)
class QParam:
    """Deformation index q.

    Inside the classical band |q - 1| < NEAR_ONE_EPS every operation uses
    the exact classical (q = 1) expression. Outside it the generic deformed
    formulas apply; they are evaluated through expm1/log1p kernels and stay
    stable arbitrarily close to the band, so the switch only exists to make
    q = 1 itself well defined.
    """

    q: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.q):
            raise DomainError(f"deformation index must be finite, got {self.q!r}")

    @property
    def rate(self) -> float:
        """Exponent rate 1 - q used by the generic kernels."""
        return 1.0 - self.q

    @property
    def is_classical(self) -> bool:
        return abs(self.q - 1.0) < NEAR_ONE_EPS


QLike = Union[QParam, float, int]


def as_qparam(q: QLike) -> QParam:
    """Coerce a float (or QParam) into a QParam."""
    return q if isinstance(q, QParam) else QParam(float(q))


class ClampedValue(NamedTuple):
    """A non-negative result plus a flag marking whether the positive-part
    truncation [y]_+ = max(y, 0) fired while producing it."""

    value: float
    clamped: bool


def q_log(x: float, q: QLike) -> float:
    """Deformed logarithm ln_q x = (x^(1-q) - 1) / (1 - q).

    Parameters
    ----------
    x : positive real.
    q : deformation index (float or QParam).

    Computed as expm1((1-q) ln x) / (1-q), which avoids the cancellation of
    the naive power form and degrades gracefully into ln x as q -> 1.

    >>> q_log(4.0, 0.5)
    2.0
    >>> q_log(2.0, 2.0)
    0.5
    """
    qp = as_qparam(q)
    xf = float(x)
    if not xf > 0.0:
        raise DomainError(f"q_log requires x > 0, got {xf!r}")
    if qp.is_classical:
        return math.log(xf)
    r = qp.rate
    return math.expm1(r * math.log(xf)) / r


def _exp_or_inf(u: float) -> float:
    return math.inf if u > _EXP_MAX else math.exp(u)


def q_exp(u: float, q: QLike) -> ClampedValue:
    """Deformed exponential exp_q u = [1 + (1-q) u]_+^(1/(1-q)).

    Inverts q_log wherever the bracket stays positive. When it does not,
    the clamp flag is set and the truncated branch is returned: 0 for
    q < 1, +inf for q > 1 (the bracket then sits on the divergent side).

    >>> q_exp(3.0, 0.0)
    ClampedValue(value=4.0, clamped=False)
    >>> q_exp(-2.0, 0.0)
    ClampedValue(value=0.0, clamped=True)
    """
    qp = as_qparam(q)
    uf = float(u)
    if qp.is_classical:
        return ClampedValue(_exp_or_inf(uf), False)
    r = qp.rate
    t = r * uf
    if t <= -1.0:
        return ClampedValue(0.0 if r > 0.0 else math.inf, True)
    return ClampedValue(_exp_or_inf(math.log1p(t) / r), False)


def q_mul(x: float, y: float, q: QLike) -> ClampedValue:
    """Deformed product x (x)_q y = [x^(1-q) + y^(1-q) - 1]_+^(1/(1-q)).

    Additive under the deformed logarithm whenever the clamp flag stays
    false: ln_q(x (x)_q y) = ln_q x + ln_q y.
    """
    qp = as_qparam(q)
    return q_exp(q_log(x, qp) + q_log(y, qp), qp)


def q_div(x: float, y: float, q: QLike) -> ClampedValue:
    """Deformed quotient [x^(1-q) - y^(1-q) + 1]_+^(1/(1-q)).

    Inverse of q_mul on the unclamped set: ln_q(x (/)_q y) = ln_q x - ln_q y.
    """
    qp = as_qparam(q)
    return q_exp(q_log(x, qp) - q_log(y, qp), qp)


def q_prod(xs: Iterable[float], q: QLike) -> ClampedValue:
    """Deformed product of many positive factors.

    Aggregated through the additive representation sum(ln_q x_k) with exact
    (fsum) summation, so the result is independent of factor order and the
    single clamp decision happens once, at the final exponential.
    """
    qp = as_qparam(q)
    return q_exp(math.fsum(q_log(x, qp) for x in xs), qp)


def theta_reparam(q: QLike, theta: float) -> QParam:
    """Reparametrised index q' = 1 + theta (q - 1).

    Pointwise identity: ln_{q'} x = ln_q(x^theta) / theta for theta != 0,
    which lifts to every spectral aggregate built from q_log.
    """
    qp = as_qparam(q)
    th = nonzero_real("theta", theta)
    return QParam(1.0 + th * (qp.q - 1.0))


def q_log_array(x, qp: QParam) -> np.ndarray:
    """Vectorised q_log kernel for strictly positive arrays.

    Internal helper shared by the spectrum and combinatorics aggregates;
    positivity is the caller's responsibility.
    """
    arr = np.asarray(x, dtype=float)
    if qp.is_classical:
        return np.log(arr)
    r = qp.rate
    with np.errstate(over="ignore"):
        return np.expm1(r * np.log(arr)) / r


# exact_sum hands up to _SMALL entries to math.fsum, which is faster there. It
# walks longer input in blocks of _BLOCK entries; each entry adds one integer
# below 2^27 and one below 2^26 into float64 buckets, which stay exact while
# they take at most _FLUSH entries (3 * 2^51 < 2^53). frexp exponents run from
# -1073 (the smallest subnormal) to 1024; bucket k weighs 2^(k + _EXP_MIN - 53).
_SMALL = 1 << 9
_BLOCK = 1 << 16
_FLUSH = 1 << 25
_EXP_MIN = -1073
_BUCKETS = 1024 - _EXP_MIN + 1


def exact_sum(x, refuse: str | None = None) -> float:
    """math.fsum of a 1-d float array, bit for bit (the sign of a zero
    included), without a Python loop over the entries.

    Each entry m 2^e (np.frexp) is split into two integers below 2^27,
    hi 2^(e-26) + lo 2^(e-53), and bincount adds them into float64 buckets,
    one per power of two; every _FLUSH entries the buckets are added into
    one Python int, which is rounded once, by int true division.

    Non-finite entries give fsum's result. A finite sum beyond float64
    raises DomainError; when refuse is given, it is the text of the
    DomainError raised for any non-finite result.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size <= _SMALL:
        with contextlib.suppress(OverflowError, ValueError):  # else the buckets decide
            total = math.fsum(arr.tolist())
            if refuse is None or math.isfinite(total):
                return total
    total = 0
    with np.errstate(invalid="ignore"):
        for first in range(0, arr.size, _FLUSH):
            chunk = arr[first : first + _FLUSH]
            acc = np.zeros(_BUCKETS + 27)
            for start in range(0, chunk.size, _BLOCK):
                m, e = np.frexp(chunk[start : start + _BLOCK])
                m *= 2.0**26
                hi = np.trunc(m)
                m -= hi
                m *= 2.0**27
                e -= _EXP_MIN
                acc[:_BUCKETS] += np.bincount(e, m, _BUCKETS)
                acc[27:] += np.bincount(e, hi, _BUCKETS)
            if not math.isfinite(acc.sum()):  # a non-finite entry
                if refuse is not None:
                    raise DomainError(refuse)
                return math.fsum(arr.tolist())
            ks = (acc != 0.0).nonzero()[0]
            total += sum(int(v) << k for k, v in zip(ks.tolist(), acc[ks].tolist()))
    if total == 0 and not arr.any():
        return math.fsum(arr.tolist())  # zeros only: fsum picks the sign
    try:
        return total / (1 << (53 - _EXP_MIN))
    except OverflowError:
        raise DomainError(refuse or "the sum overflows float64") from None

"""Deformed factorials, multinomials, and nonextensive entropy.

The deformed log-factorial is the aggregate sum(ln_q k) over the integer
spectrum 1..n, and the deformed log-multinomial is the difference between
the full aggregate and the aggregates of the parts. For large n at fixed
part ratios p_i = n_i / n the multinomial grows like

    n^(2-q) / (2-q) * H_{2-q}(p)

where H_s is the nonextensive (Tsallis) entropy; asymptotic_remainder
measures everything beyond that leading term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, finite_vector, positive_int
from .qalgebra import ClampedValue, QLike, QParam, as_qparam, exact_sum, q_exp, q_log_array

__all__ = [
    "Partition",
    "Distribution",
    "as_distribution",
    "generalized_harmonic",
    "q_factorial_log",
    "q_factorial",
    "q_multinomial_log",
    "tsallis_entropy",
    "asymptotic_leading",
    "asymptotic_remainder",
]

_SIMPLEX_TOL = 1e-12


def _check_simplex_sum(name: str, arr: np.ndarray) -> None:
    """DomainError unless the entries of arr sum to 1 within _SIMPLEX_TOL."""
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > _SIMPLEX_TOL:
        raise DomainError(f"{name} sum to {total!r}, expected 1")


def _counts(parts) -> tuple[int, ...]:
    if isinstance(parts, (str, bytes, bytearray)):
        raise DomainError(f"parts must be a sequence of integers, got {parts!r}")
    return tuple(positive_int("part", p) for p in parts)


@dataclass(frozen=True)
class Partition:
    """A total n split into positive integer parts with sum(parts) = n."""

    n: int
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", positive_int("partition total", self.n))
        object.__setattr__(self, "parts", _counts(self.parts))
        if not self.parts:
            raise DomainError("partition needs at least one part")
        if sum(self.parts) != self.n:
            raise DomainError(
                f"parts sum to {sum(self.parts)}, expected {self.n}"
            )

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        parts = _counts(parts)
        return cls(sum(parts), parts)

    def ratios(self) -> tuple[float, ...]:
        """Part ratios p_i = n_i / n."""
        return tuple(p / self.n for p in self.parts)


@dataclass(frozen=True)
class Distribution:
    """A probability vector: p_i >= 0 and sum(p) = 1 within 1e-12."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = finite_vector("probabilities", self.p)
        if (arr < 0.0).any():
            raise DomainError("probabilities must be non-negative")
        _check_simplex_sum("probabilities", arr)
        object.__setattr__(self, "p", tuple(arr.tolist()))


def as_distribution(p) -> Distribution:
    return p if isinstance(p, Distribution) else Distribution(p)


def _as_partition(part) -> Partition:
    return part if isinstance(part, Partition) else Partition.from_parts(part)


def generalized_harmonic(n: int, r: float) -> float:
    """Power sum H(n, r) = sum_{k=1..n} k^r, exactly rounded; a value
    beyond float64 raises DomainError.

    >>> generalized_harmonic(4, 1.0)
    10.0
    """
    n = positive_int("n", n)
    r = float(r)
    with np.errstate(all="ignore"):
        terms = np.arange(1, n + 1, dtype=float) ** r
    return exact_sum(terms, f"generalized_harmonic overflows float64 at r = {r!r}")


def q_factorial_log(n: int, q: QLike) -> float:
    """Deformed log-factorial ln_q(n!_q) = sum_{k=1..n} ln_q k.

    Equals (H(n, 1-q) - n) / (1-q) away from q = 1 and ln n! at q = 1; the
    sum is evaluated term by term through the stabilised q_log kernel so no
    cancellation appears near the classical point, and rounded once. A
    value beyond float64 raises DomainError.
    """
    n = positive_int("n", n)
    qp = as_qparam(q)
    if qp.is_classical:
        return math.lgamma(n + 1.0)
    terms = q_log_array(np.arange(1, n + 1, dtype=float), qp)
    return exact_sum(terms, f"q_factorial_log overflows float64 at q = {qp.q!r}")


def q_factorial(n: int, q: QLike) -> ClampedValue:
    """Deformed factorial n!_q = exp_q(ln_q n!_q), with clamp flag."""
    qp = as_qparam(q)
    return q_exp(q_factorial_log(n, qp), qp)


def q_multinomial_log(part: Partition, q: QLike) -> float:
    """Deformed log-multinomial of a partition.

    This is the relative aggregate (sum_{k<=n} k^(1-q) - sum_i sum_{k<=n_i}
    k^(1-q)) / (1-q); the constant reference terms n and sum(n_i) cancel
    exactly because the Partition type guarantees sum(n_i) = n.
    """
    part = _as_partition(part)
    qp = as_qparam(q)
    full = q_factorial_log(part.n, qp)
    return full - math.fsum(q_factorial_log(ni, qp) for ni in part.parts)


def _entropy_kernel(values: np.ndarray, index: QParam) -> np.ndarray:
    """Row sums sum_v v (v^(index-1) - 1) / (1 - index) over the entries
    v > 0 of each row of values (N, m); other entries contribute exactly 0.

    Uses sum(v) as its own reference instead of the literal constant 1, so
    it is exact on normalised input, differs from the textbook form only by
    a term linear in v (invisible to second derivatives), and stays stable
    through index -> 1 where it turns into -sum v ln v. Each row is summed
    with math.fsum, so a row's value does not depend on the other rows.
    """
    # other entries are read as v = 1, whose term is exactly +-0
    v = np.where(values > 0.0, values, 1.0)
    if index.is_classical:
        terms = v * np.log(v)
        return -np.array([math.fsum(row) for row in terms.tolist()])
    r = index.rate
    terms = v * np.expm1(-r * np.log(v))
    return np.array([math.fsum(row) for row in terms.tolist()]) / r


def tsallis_entropy(p, q: QLike) -> float:
    """Nonextensive entropy H_q(p) = (sum p_i^q - 1) / (1 - q).

    Entries with p_i = 0 contribute nothing (the 0 ln 0 = 0 convention);
    at q = 1 this is the Shannon entropy in nats. A value beyond float64
    raises DomainError.

    >>> tsallis_entropy((0.5, 0.5), 2.0)
    0.5
    """
    qp = as_qparam(q)
    dist = as_distribution(p)
    with np.errstate(all="ignore"):
        h = float(_entropy_kernel(np.asarray([dist.p]), qp)[0])
    if not math.isfinite(h):
        raise DomainError(f"Tsallis entropy overflows float64 at q = {qp.q!r}")
    return h


def asymptotic_leading(n: int, p, q: QLike) -> float:
    """Leading large-n term n^(2-q) / (2-q) * H_{2-q}(p) of the deformed
    log-multinomial at fixed part ratios p.

    The coefficient has a pole at q = 2, so that index is rejected. A term
    beyond float64 raises DomainError.
    """
    n = positive_int("n", n)
    qp = as_qparam(q)
    if qp.q == 2.0:
        raise DomainError("leading coefficient has a pole at q = 2")
    s = 2.0 - qp.q
    entropy = tsallis_entropy(p, s)
    try:
        lead = float(n) ** s / s * entropy
    except OverflowError:
        lead = math.inf
    if not math.isfinite(lead):
        raise DomainError(f"leading term overflows float64 at n = {n}, q = {qp.q!r}")
    return lead


def asymptotic_remainder(part: Partition, q: QLike) -> float:
    """q_multinomial_log minus its leading asymptotic term.

    Part ratios are recomputed from the partition itself. For q < 1 the
    remainder grows like n^(1-q); at q = 1 it grows logarithmically; for
    q > 1 it approaches the constant (m-1) zeta(q-1) / (q-1) left behind
    by the Euler-Maclaurin tail of the power sums, so it does not vanish.
    """
    part = _as_partition(part)
    qp = as_qparam(q)
    lead = asymptotic_leading(part.n, part.ratios(), qp)
    return q_multinomial_log(part, qp) - lead

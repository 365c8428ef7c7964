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

from .errors import DomainError
from .qalgebra import ClampedValue, QLike, QParam, as_qparam, q_exp, q_log_array

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


@dataclass(frozen=True)
class Partition:
    """A total n split into positive integer parts with sum(parts) = n."""

    n: int
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if self.n < 1:
            raise DomainError(f"partition total must be >= 1, got {self.n}")
        if not self.parts:
            raise DomainError("partition needs at least one part")
        if any(p < 1 for p in self.parts):
            raise DomainError(f"parts must be positive integers, got {self.parts}")
        if sum(self.parts) != self.n:
            raise DomainError(
                f"parts sum to {sum(self.parts)}, expected {self.n}"
            )

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        parts = tuple(int(p) for p in parts)
        return cls(sum(parts), parts)

    def ratios(self) -> tuple[float, ...]:
        """Part ratios p_i = n_i / n."""
        return tuple(p / self.n for p in self.parts)


@dataclass(frozen=True)
class Distribution:
    """A probability vector: p_i >= 0 and sum(p) = 1 within 1e-12."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        if not self.p:
            raise DomainError("distribution needs at least one entry")
        if any(v < 0.0 or not math.isfinite(v) for v in self.p):
            raise DomainError("probabilities must be finite and non-negative")
        total = math.fsum(self.p)
        if abs(total - 1.0) > _SIMPLEX_TOL:
            raise DomainError(f"probabilities sum to {total!r}, expected 1")


def as_distribution(p) -> Distribution:
    return p if isinstance(p, Distribution) else Distribution(tuple(p))


def generalized_harmonic(n: int, r: float) -> float:
    """Power sum H(n, r) = sum_{k=1..n} k^r, exactly rounded.

    >>> generalized_harmonic(4, 1.0)
    10.0
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"generalized_harmonic requires n >= 1, got {n}")
    ks = np.arange(1, n + 1, dtype=float)
    return math.fsum(ks ** float(r))


def q_factorial_log(n: int, q: QLike) -> float:
    """Deformed log-factorial ln_q(n!_q) = sum_{k=1..n} ln_q k.

    Equals (H(n, 1-q) - n) / (1-q) away from q = 1 and ln n! at q = 1; the
    sum is evaluated term by term through the stabilised q_log kernel so no
    cancellation appears near the classical point.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"q_factorial_log requires n >= 1, got {n}")
    qp = as_qparam(q)
    if qp.is_classical:
        return math.lgamma(n + 1.0)
    ks = np.arange(1, n + 1, dtype=float)
    return math.fsum(q_log_array(ks, qp))


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
    if not isinstance(part, Partition):
        part = Partition.from_parts(part)
    qp = as_qparam(q)
    full = q_factorial_log(part.n, qp)
    return full - math.fsum(q_factorial_log(ni, qp) for ni in part.parts)


def _entropy_kernel(
    values: np.ndarray, index: float, near_one_eps: float
) -> np.ndarray:
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
    if abs(index - 1.0) < near_one_eps:
        terms = v * np.log(v)
        return -np.array([math.fsum(row) for row in terms.tolist()])
    r = 1.0 - index
    terms = v * np.expm1(-r * np.log(v))
    return np.array([math.fsum(row) for row in terms.tolist()]) / r


def tsallis_entropy(p, q: QLike) -> float:
    """Nonextensive entropy H_q(p) = (sum p_i^q - 1) / (1 - q).

    Entries with p_i = 0 contribute nothing (the 0 ln 0 = 0 convention);
    at q = 1 this is the Shannon entropy in nats.

    >>> tsallis_entropy((0.5, 0.5), 2.0)
    0.5
    """
    qp = as_qparam(q)
    dist = as_distribution(p)
    return float(_entropy_kernel(np.asarray([dist.p]), qp.q, qp.near_one_eps)[0])


def asymptotic_leading(n: int, p, q: QLike) -> float:
    """Leading large-n term n^(2-q) / (2-q) * H_{2-q}(p) of the deformed
    log-multinomial at fixed part ratios p.

    The coefficient has a pole at q = 2, so that index is rejected.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"asymptotic_leading requires n >= 1, got {n}")
    qp = as_qparam(q)
    if qp.q == 2.0:
        raise DomainError("leading coefficient has a pole at q = 2")
    s = 2.0 - qp.q
    entropy = tsallis_entropy(p, QParam(s, qp.near_one_eps))
    return float(n) ** s / s * entropy


def asymptotic_remainder(part: Partition, q: QLike) -> float:
    """q_multinomial_log minus its leading asymptotic term.

    Part ratios are recomputed from the partition itself. For q < 1 the
    remainder grows like n^(1-q); at q = 1 it grows logarithmically; for
    q > 1 it approaches the constant (m-1) zeta(q-1) / (q-1) left behind
    by the Euler-Maclaurin tail of the power sums, so it does not vanish.
    """
    if not isinstance(part, Partition):
        part = Partition.from_parts(part)
    qp = as_qparam(q)
    lead = asymptotic_leading(part.n, part.ratios(), qp)
    return q_multinomial_log(part, qp) - lead

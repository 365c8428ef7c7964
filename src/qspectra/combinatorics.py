"""Deformed factorials, multinomials, and nonextensive entropy.

The deformed log-factorial is the aggregate sum(ln_q k) over the integer
spectrum 1..n, and the deformed log-multinomial is the difference between
the full aggregate and the aggregates of the parts. For large n at fixed
part ratios p_i = n_i / n the multinomial grows like

    n^(2-q) / (2-q) * H_{2-q}(p)

where H_s is the nonextensive (Tsallis) entropy; asymptotic_remainder
measures everything beyond that leading term.

Both rest on one range kernel, S(a, b] = sum_{a<k<=b} ln_q k, evaluated in
O(1): up to _DIRECT terms are summed one by one and rounded once; longer
ranges sum a head of K terms and add the Euler-Maclaurin tail from a + K to
b, with K and the number M <= 30 of Bernoulli corrections chosen from
Johansson's remainder bound (Numer. Algorithms 69, 2015) so that the
truncation stays below 1e-16 of the tail. Against mpmath the kernel is
within 2 eps (3 + |1-q| ln b) |value| for q in [-5, 4] and b up to 2^40.
The planner and the correction polynomial are zeta's: the same two sum the
unbounded (regularised) tails of its determinants and the power sums of
hurwitz_zeta, whose x^-s is 1 - s ln_(s+1) x.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _quote, finite, finite_real, finite_vector, positive_int
from .qalgebra import _EXP_MAX, ClampedValue, _ln_q, exact_row_sums, exact_sum, q_exp, q_log_array
from .zeta import _em_plan, _em_terms

__all__ = [
    "Partition",
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
    if isinstance(parts, (str, bytes, bytearray)) or not isinstance(parts, Iterable):
        raise DomainError(f"parts must be a sequence of integers, got {_quote(parts)}")
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


def _distribution(p) -> np.ndarray:
    """p as a float64 array; DomainError unless it is a probability vector:
    p_i >= 0 and sum(p) = 1 within 1e-12."""
    arr = finite_vector("probabilities", p)
    if (arr < 0.0).any():
        raise DomainError("probabilities must be non-negative")
    _check_simplex_sum("probabilities", arr)
    return arr


def _as_partition(part) -> Partition:
    return part if isinstance(part, Partition) else Partition.from_parts(part)


# Largest generalized_harmonic n: its n terms are one float64 array, 134 MB
# at 2^24, and summing them raises the peak resident memory by about 256 MB
# (measured with CPython 3.11, numpy 2.4)
_MAX_HARMONIC_TERMS = 1 << 24


def generalized_harmonic(n: int, r: float) -> float:
    """Power sum H(n, r) = sum_{k=1..n} k^r, exactly rounded; a value
    beyond float64 raises DomainError. The n terms are summed as one
    array, so n is at most 2^24 = 16,777,216: a larger n raises
    DomainError before any term is computed.

    >>> generalized_harmonic(4, 1.0)
    10.0
    """
    n = positive_int("n", n)
    if n > _MAX_HARMONIC_TERMS:
        raise DomainError(f"n must be <= {_MAX_HARMONIC_TERMS} (2^24), got {n}")
    r = finite_real("r", r)
    with np.errstate(all="ignore"):
        terms = np.arange(1, n + 1, dtype=float) ** r
    return finite(exact_sum(terms), "generalized_harmonic overflows float64 at r = {!r}", r)


# Ranges of up to _DIRECT terms are summed one by one: below that the
# Euler-Maclaurin tail costs more than the terms. Longer ranges start the
# tail at k = _HEAD or later.
_DIRECT = 128
_HEAD = 16


def _em_tail(c: int, b: int, q: float, m: int) -> list[float]:
    """Terms adding to S(c, b] by Euler-Maclaurin summation:

        int_c^b ln_q x dx + (ln_q b - ln_q c) / 2
          + sum_{j=1..M} B_2j/(2j)! (q)_(2j-2) (b^(2-q-2j) - c^(2-q-2j)).

    The integral is formed from b - c and u = log1p((b - c) / c), both
    accurate when b is close to c, as
    [(b - c)(ln_q b - 1) + c^(2-q) ln_q(b/c)] / (2-q) below q = 1.5 and
    [c^(2-q) ln_(q-1)(b/c) - (b - c)] / (1-q) from there on: each form
    divides by a factor that stays away from 0 on its side."""
    r = 1.0 - q
    d, u = float(b - c), math.log1p((b - c) / c)
    lb, lc = _ln_q(b, q), _ln_q(c, q)
    if q < 1.5:
        e = math.expm1(r * u) / r if r else u
        integral = (d * (lb - 1.0) + c ** (2.0 - q) * e) / (2.0 - q)
    else:
        s = 2.0 - q
        e = math.expm1(s * u) / s if s else u
        integral = (c**s * e - d) / r
    return [integral, 0.5 * lb, -0.5 * lc, *_em_terms(q, m, b), *_em_terms(q, m, c, -1.0)]


def _range_sum(a: int, b: int, q: float) -> float:
    """S(a, b] = sum_{a<k<=b} ln_q k for integers 0 <= a < b, in O(1).

    A range of up to _DIRECT terms is summed term by term (q_log_array) and
    rounded once; a longer one sums its head a < k <= c directly and adds
    _em_tail, all in one math.fsum, at the exact q. A value, or an
    intermediate, beyond float64 raises DomainError."""
    c, m = b, 0
    try:
        if b - a > _DIRECT:
            # the largest term ln_q b must be finite; this also bounds the head
            if (1.0 - q) * math.log(b) > _EXP_MAX:
                raise OverflowError
            c, m = _em_plan(max(a, _HEAD), b, q)
        terms = q_log_array(np.arange(a + 1, c + 1, dtype=float), q).tolist() if c > a else []
        if c < b:
            terms += _em_tail(c, b, q, m)
        value = math.fsum(terms)
    except (OverflowError, ValueError):  # a power beyond float64, or fsum's inf - inf
        value = math.inf
    return finite(value, "q_factorial_log overflows float64 at q = {!r}", q)


def q_factorial_log(n: int, q: float) -> float:
    """Deformed log-factorial ln_q(n!_q) = sum_{k=1..n} ln_q k, in O(1).

    Equals (H(n, 1-q) - n) / (1-q) away from q = 1 and ln n! at q = 1,
    where it is math.lgamma(n + 1). Elsewhere it is the range kernel
    S(0, n]: up to 128 terms are each evaluated through the stabilised
    q_log kernel, so no cancellation appears near the classical point, and
    rounded once; beyond that K = 16 terms (more only for |q| large: 32 at
    q = -100) are summed directly and the Euler-Maclaurin tail adds the
    rest, its truncation bounded by 1e-16 of the value. Measured against
    mpmath for q in [-5, 4] and n up to 2^40, the error is within
    2 eps (3 + |1-q| ln n) |value|. A value beyond float64 raises
    DomainError.
    """
    n = positive_int("n", n)
    q = finite_real("deformation index", q)
    if q == 1.0:
        return math.lgamma(n + 1.0)
    return _range_sum(0, n, q)


def q_factorial(n: int, q: float) -> ClampedValue:
    """Deformed factorial n!_q = exp_q(ln_q n!_q), with clamp flag."""
    q = finite_real("deformation index", q)
    return q_exp(q_factorial_log(n, q), q)


def q_multinomial_log(part: Partition, q: float) -> float:
    """Deformed log-multinomial of a partition,
    sum_{k<=n} ln_q k - sum_i sum_{k<=n_i} ln_q k.

    The largest part n_1 is taken off as one range sum S(n_1, n] =
    sum_{n_1<k<=n} ln_q k, the other parts through q_factorial_log, and the
    pieces are added by one math.fsum. The shared terms k <= n_1 never
    enter, so the error scales with the pieces, not with the total: it is
    within 2 eps (3 + |1-q| ln n) (S(n_1, n] + sum_{i>=2} ln_q n_i!_q),
    the sum of the pieces' own bounds (8 eps max(1, piece) at q = 1, where
    the parts take math.lgamma); against mpmath it measured at most 0.13
    of that. The partition (n-1, 1) gives its one term ln_q n: 1.9e-15
    relative at q = -2, n = 2^20, where subtracting two totals was off by
    1.5e-11. A value beyond float64 raises DomainError.
    """
    part = _as_partition(part)
    q = finite_real("deformation index", q)
    largest, *rest = sorted(part.parts, reverse=True)
    pieces = [_range_sum(largest, part.n, q)] if largest < part.n else []
    pieces += [-q_factorial_log(ni, q) for ni in rest]
    try:
        value = math.fsum(pieces)
    except OverflowError:  # an intermediate sum beyond float64
        value = math.inf
    return finite(value, "q_multinomial_log overflows float64 at q = {!r}", q)


def _entropy_kernel(values: np.ndarray, index: float) -> np.ndarray:
    """Row sums sum_v v (v^(index-1) - 1) / (1 - index) over the entries
    v > 0 of each row of values (N, m); other entries contribute exactly 0.

    Uses sum(v) as its own reference instead of the literal constant 1, so
    it is exact on normalised input, differs from the textbook form only by
    a term linear in v (invisible to second derivatives), and stays stable
    through index -> 1 where it turns into -sum v ln v. Each row's terms
    are summed by exact_row_sums, math.fsum's value bit for bit: a row's
    value does not depend on the other rows or on the order of its entries.
    Rows of three, as grid_field's, are summed as arrays; a sum that
    overflows comes back as inf, not as fsum's OverflowError.
    """
    # other entries are read as v = 1, whose term is exactly +-0
    v = np.where(values > 0.0, values, 1.0)
    if index == 1.0:
        return -exact_row_sums(v * np.log(v))
    r = 1.0 - index
    return exact_row_sums(v * np.expm1(-r * np.log(v))) / r


def tsallis_entropy(p, q: float) -> float:
    """Nonextensive entropy H_q(p), computed as
    (sum p_i^q - sum p_i) / (1 - q) = sum p_i ln_q(1/p_i).

    This is the textbook (sum p_i^q - 1) / (1 - q) when the p_i sum to 1
    exactly. Input whose sum is within 1e-12 of 1 is accepted; on it the
    textbook form would add (sum p_i - 1) / (1 - q), which has no bound
    as q -> 1, while the computed form tends to -sum p_i ln p_i. Entries
    with p_i = 0 contribute nothing (the 0 ln 0 = 0 convention); at q = 1
    this is the Shannon entropy in nats. A value beyond float64 raises
    DomainError.

    >>> tsallis_entropy((0.5, 0.5), 2.0)
    0.5
    """
    q = finite_real("deformation index", q)
    arr = _distribution(p)
    with np.errstate(all="ignore"):
        h = float(_entropy_kernel(arr[None, :], q)[0])
    return finite(h, "Tsallis entropy overflows float64 at q = {!r}", q)


def asymptotic_leading(n: int, p, q: float) -> float:
    """Leading large-n term n^(2-q) / (2-q) * H_{2-q}(p) of the deformed
    log-multinomial at fixed part ratios p.

    The coefficient has a pole at q = 2, so that index is rejected. A term
    beyond float64 raises DomainError.
    """
    n = positive_int("n", n)
    q = finite_real("deformation index", q)
    if q == 2.0:
        raise DomainError("leading coefficient has a pole at q = 2")
    s = 2.0 - q
    entropy = tsallis_entropy(p, s)
    try:
        lead = float(n) ** s / s * entropy
    except OverflowError:
        lead = math.inf
    return finite(lead, "leading term overflows float64 at n = {}, q = {!r}", n, q)


def asymptotic_remainder(part: Partition, q: float) -> float:
    """q_multinomial_log minus its leading asymptotic term.

    Part ratios are recomputed from the partition itself. For q < 1 the
    remainder grows like n^(1-q); at q = 1 it grows logarithmically; for
    q > 1 it approaches the constant (m-1) zeta(q-1) / (q-1) left behind
    by the Euler-Maclaurin tail of the power sums, so it does not vanish.
    """
    part = _as_partition(part)
    q = finite_real("deformation index", q)
    lead = asymptotic_leading(part.n, part.ratios(), q)
    return q_multinomial_log(part, q) - lead

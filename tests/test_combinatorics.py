import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from qspectra.combinatorics import (
    Partition,
    asymptotic_leading,
    asymptotic_remainder,
    generalized_harmonic,
    q_factorial,
    q_factorial_log,
    q_multinomial_log,
    tsallis_entropy,
)
from qspectra.errors import DomainError
from qspectra.qalgebra import q_log_array

EPS = 2.0**-52


def _mp_hurwitz_tail(s, a):
    """Asymptotic part of zeta(s, a) for a >= 256, |s| <= 7, at 40 digits:
    a^(1-s)/(s-1) + a^(-s)/2 + sum_j B_2j/(2j)! (s)_(2j-1) a^(1-s-2j); the
    constant zeta(s) is left out, as it cancels in differences."""
    total = a ** (1 - s) / (s - 1) + a ** (-s) / 2
    poch = s
    for j in range(1, 31):
        term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * poch * a ** (-s - 2 * j + 1)
        total += term
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    assert abs(term) < mp.mpf(10) ** -35 * max(1, abs(total))
    return total


def mp_range(a, b, q):
    """sum_{a<k<=b} ln_q k in mpmath: term by term up to k = 256, then a
    difference of Hurwitz tails (digamma at q = 2, loggamma at q = 1)."""
    with mp.workdps(40):
        if abs(q - 1.0) < 1e-8:
            return mp.loggamma(b + 1) - mp.loggamma(a + 1)
        r = 1 - mp.mpf(q)
        head = mp.fsum((mp.mpf(k) ** r - 1) / r for k in range(a + 1, min(b, max(a, 256)) + 1))
        a = max(a, 256)
        if b <= a:
            return head
        if q == 2.0:
            return head + (b - a) - (mp.digamma(b + 1) - mp.digamma(a + 1))
        power_sum = _mp_hurwitz_tail(-r, mp.mpf(a + 1)) - _mp_hurwitz_tail(-r, mp.mpf(b + 1))
        return head + (power_sum - (b - a)) / r


def factorial_tol(n, q, value):
    """The accuracy q_factorial_log documents (bench/oracle.q_factorial_tol)."""
    if abs(q - 1.0) < 1e-8:
        return 8 * EPS * max(1.0, abs(value))
    return 2 * EPS * (3 + abs(1.0 - q) * math.log(n)) * abs(value)


def test_partition_validation():
    part = Partition(6, (1, 2, 3))
    assert part.ratios() == (1 / 6, 2 / 6, 3 / 6)
    assert Partition.from_parts([4, 4]).n == 8
    with pytest.raises(DomainError):
        Partition(5, (1, 2, 3))
    with pytest.raises(DomainError):
        Partition(3, (3, 0))
    with pytest.raises(DomainError):
        Partition(0, ())


def test_distribution_validation():
    tsallis_entropy((0.25, 0.75), 2.0)
    tsallis_entropy((1.0, 0.0), 2.0)
    with pytest.raises(DomainError, match="probabilities sum to"):
        tsallis_entropy((0.5, 0.6), 2.0)
    with pytest.raises(DomainError, match="probabilities must be non-negative"):
        tsallis_entropy((-0.1, 1.1), 2.0)


def test_text_is_not_read_as_probabilities_or_parts():
    # a string iterates as its characters: "1" must not become (1.0,)
    for text in ("1", b"1"):
        with pytest.raises(DomainError, match="probabilities must be a sequence of numbers"):
            tsallis_entropy(text, 2.0)
    # nor "12" the parts (1, 2)
    for text in ("12", b"12"):
        with pytest.raises(DomainError):
            Partition.from_parts(text)
        with pytest.raises(DomainError):
            q_multinomial_log(text, 1.0)
    with pytest.raises(DomainError):
        Partition(3, "12")
    with pytest.raises(DomainError):
        Partition(3, ("1", "2"))


def test_parts_that_do_not_iterate_are_refused():
    # a lone number is not read as one part, nor does it raise TypeError
    for call, bad in (
        (lambda: q_multinomial_log(7, 0.5), "7"),
        (lambda: Partition(3, 3), "3"),
        (lambda: Partition.from_parts(3.0), "3.0"),
        (lambda: asymptotic_remainder(None, 0.5), "None"),
    ):
        with pytest.raises(DomainError, match=f"^parts must be a sequence of integers, got {bad}$"):
            call()


def test_non_integral_parts_and_totals_are_refused():
    with pytest.raises(DomainError):
        Partition.from_parts((2.5, 2.5))
    with pytest.raises(DomainError):
        Partition(5, (2.5, 2.5))
    with pytest.raises(DomainError):
        Partition(4.5, (2, 2))
    with pytest.raises(DomainError):
        Partition.from_parts((2, math.nan))
    with pytest.raises(DomainError):
        q_multinomial_log((2.5, 2.5), 1.5)
    with pytest.raises(DomainError):
        asymptotic_remainder((2.5, 2.5), 0.5)
    # the same rule holds for every other count n
    for fn, args in (
        (generalized_harmonic, (1.0,)),
        (q_factorial_log, (0.5,)),
        (asymptotic_leading, ((0.5, 0.5), 0.5)),
    ):
        for n in (2.5, "2"):
            with pytest.raises(DomainError):
                fn(n, *args)
    # integral values of another numeric type are read as ints
    part = Partition.from_parts((2.0, np.int64(3)))
    assert part == Partition(5, (2, 3))
    assert all(type(v) is int for v in (part.n, *part.parts))


def test_entropy_overflow_is_refused_not_returned():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows float64"):
            tsallis_entropy((0.5, 0.5), -2000.0)
        with pytest.raises(DomainError, match="overflows float64"):
            asymptotic_leading(10, (0.5, 0.5), -2000.0)
        # n^(2-q) alone beyond float64
        with pytest.raises(DomainError, match="overflows float64"):
            asymptotic_leading(2**20, (0.5, 0.5), -60.0)


def test_factorial_overflow_is_refused_not_returned():
    # were inf and nan (inf - inf), each with a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows float64 at q = -100.0"):
            q_factorial_log(10**5, -100.0)
        with pytest.raises(DomainError, match="overflows float64 at q = -100.0"):
            q_multinomial_log((50000, 50000), -100.0)
        # finite terms, sum beyond float64 (was an OverflowError from fsum)
        with pytest.raises(DomainError, match="overflows float64 at r = 61.5"):
            generalized_harmonic(100_000, 61.5)


def test_generalized_harmonic():
    assert generalized_harmonic(4, 1.0) == 10.0
    assert generalized_harmonic(1, 3.7) == 1.0
    n = 30
    assert generalized_harmonic(n, 2.0) == pytest.approx(
        n * (n + 1) * (2 * n + 1) / 6, rel=1e-15
    )
    assert generalized_harmonic(100, 0.0) == 100.0
    with pytest.raises(DomainError):
        generalized_harmonic(0, 1.0)


def test_generalized_harmonic_refuses_n_above_its_bound():
    # refused before the term array is built: numpy raised MemoryError
    # ("Unable to allocate 7.11 PiB") at 10**15
    for n in (10**15, 2**24 + 1):
        with pytest.raises(DomainError, match=f"n must be <= 16777216 \\(2\\^24\\), got {n}"):
            generalized_harmonic(n, 1.0)


def test_q_factorial_log_classical_is_lgamma():
    for n in (1, 2, 5, 40):
        assert q_factorial_log(n, 1.0) == math.lgamma(n + 1)


def test_q_factorial_log_frozen_oracles():
    # sum_{k<=n} ln_q k recomputed as raw power sums at 40 digits
    assert q_factorial_log(10, 0.5) == pytest.approx(24.9365563724082, rel=1e-14)
    assert q_factorial_log(7, 2.0) == pytest.approx(4.4071428571428575, rel=1e-14)
    # q = 0: sum (k - 1) = n(n-1)/2
    assert q_factorial_log(9, 0.0) == pytest.approx(36.0, rel=1e-14)


_KERNEL_QS = (
    -5.0, -2.0, 0.0, 0.5, 0.999, 1.0 - 2e-8, 1.0, 1.0 + 2e-8,
    1.5, 1.9, 1.999, 1.99999, 2.0, 2.0001, 2.5, 3.9,
)
# around the direct head (16 terms) and the direct-sum limit (128 terms)
_KERNEL_NS = (1, 15, 16, 17, 127, 128, 129, *(2**k for k in range(6, 21)), 2**30, 2**40)


@pytest.mark.parametrize("q", _KERNEL_QS)
def test_q_factorial_log_against_mpmath(q):
    for n in _KERNEL_NS:
        want = mp_range(0, n, q)
        got = q_factorial_log(n, q)
        assert abs(got - want) <= factorial_tol(n, q, float(want)), (n, got, want)


@pytest.mark.parametrize("q", (-100.0, -70.3, -45.5))
def test_q_factorial_log_far_below_zero_against_mpmath(q):
    # up to 30 Bernoulli corrections: the tail starts at 32 for q = -100
    for n in (129, 200, 500, 1000):
        with mp.workdps(40):
            r = 1 - mp.mpf(q)
            want = mp.fsum(mp.expm1(r * mp.log(k)) / r for k in range(1, n + 1))
        got = q_factorial_log(n, q)
        assert abs(got - want) <= factorial_tol(n, q, float(want)), (n, got, want)


@pytest.mark.parametrize("q", (-4.5, 0.3, 0.9999999, 1.4, 2.0, 3.9))
def test_q_factorial_log_short_sums_stay_term_by_term(q):
    # up to 128 terms: each through the array q_log kernel, rounded once
    for n in range(1, 129):
        terms = q_log_array(np.arange(1, n + 1, dtype=float), q)
        assert q_factorial_log(n, q) == math.fsum(terms.tolist())


def test_q_factorial_log_extreme_q_is_finite_or_refused():
    # no OverflowError from a power, no RuntimeWarning, no inf or nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (-1e300, -1e6, -1000.0, -300.0, -100.0, -40.0, 40.0, 1100.0, 1e6, 1e300):
            for n in (2, 129, 1000, 2**20, 2**40):
                try:
                    value = q_factorial_log(n, q)
                except DomainError as exc:
                    assert "overflows float64" in str(exc)
                    continue
                assert math.isfinite(value) and value > 0.0
    # the terms tend to 1/(q-1) for k >= 2
    assert q_factorial_log(2**40, 1e300) == pytest.approx((2**40 - 1) / 1e300, rel=1e-15)


def test_q_factorial_small_values():
    assert q_factorial(3, 1.0).value == pytest.approx(6.0, rel=1e-12)
    res = q_factorial(4, 0.0)  # exp_0(u) = 1 + u, u = 0+1+2+3
    assert res.value == pytest.approx(7.0, rel=1e-15)
    assert not res.clamped


def test_q_multinomial_log_classical_matches_binomial():
    part = Partition(10, (4, 6))
    assert q_multinomial_log(part, 1.0) == pytest.approx(
        math.log(math.comb(10, 4)), rel=1e-13
    )


def test_q_multinomial_log_frozen_oracle():
    value = q_multinomial_log(Partition(10, (3, 3, 4)), 1.5)
    assert value == pytest.approx(4.664746503671707, rel=1e-14)


def _multinomial_bound(parts, q):
    """q_multinomial_log's documented bound: the tolerance of each piece,
    S(n_1, n] and the factorials of the other parts, added up."""
    n, (largest, *rest) = sum(parts), sorted(parts, reverse=True)
    pieces = [(n, mp_range(largest, n, q))] + [(ni, mp_range(0, ni, q)) for ni in rest]
    return sum(factorial_tol(n, q, float(v)) for _, v in pieces)


@pytest.mark.parametrize(
    "q,n",
    [(1.0 - 2e-8, 2**20), (1.0, 2**20), (-2.0, 2**20), (0.7, 2**16), (1.5, 2**30), (0.5, 2**40)],
)
def test_q_multinomial_one_off_partition_against_mpmath(q, n):
    # (n-1, 1) is ln_q n; the old difference of two totals was off by
    # 9.2e-11 at q = 1 - 2e-8, 6.1e-11 at q = 1, 1.5e-11 at q = -2 and
    # 8.0e-12 at q = 0.7
    want = mp_range(n - 1, n, q)
    got = q_multinomial_log((n - 1, 1), q)
    assert abs(got - want) <= _multinomial_bound((n - 1, 1), q)


@pytest.mark.parametrize("q", (-2.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.9))
def test_q_multinomial_log_against_mpmath(q):
    n = 2**20
    for parts in ((n - 300, 300), (n - 5, 3, 2), (n // 2, n // 2), (n // 4, n // 4, n // 2), (n // 3, n // 3, n - 2 * (n // 3))):
        with mp.workdps(40):
            want = mp_range(0, n, q) - mp.fsum(mp_range(0, ni, q) for ni in parts)
        got = q_multinomial_log(parts, q)
        assert abs(got - want) <= _multinomial_bound(parts, q), (parts, got, want)


def test_q_multinomial_accepts_raw_parts():
    assert q_multinomial_log((3, 3, 4), 1.5) == q_multinomial_log(
        Partition(10, (3, 3, 4)), 1.5
    )


def test_q_multinomial_equals_power_sum_difference():
    """Independent route: (H(n,1-q) - n - sum_i (H(n_i,1-q) - n_i)) / (1-q)."""
    for q in (0.0, 0.5, 1.5, 2.5):
        r = 1.0 - q
        for parts in ((2, 2), (1, 2, 3), (5, 5, 5), (10, 20, 30)):
            part = Partition.from_parts(parts)
            direct = q_multinomial_log(part, q)
            ref = (
                generalized_harmonic(part.n, r)
                - math.fsum(generalized_harmonic(ni, r) for ni in part.parts)
            ) / r
            assert direct == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))


def test_integer_multinomial_oracle_small():
    def partitions(total, largest):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for n in range(1, 9):
        for parts in partitions(n, n):
            exact = math.factorial(n)
            for ni in parts:
                exact //= math.factorial(ni)
            log_val = q_multinomial_log(Partition(n, parts), 1.0)
            assert math.exp(log_val) == pytest.approx(exact, rel=1e-12)


def test_tsallis_entropy_values():
    assert tsallis_entropy((0.5, 0.5), 2.0) == pytest.approx(0.5, rel=1e-15)
    assert tsallis_entropy((0.5, 0.5), 0.0) == pytest.approx(1.0, rel=1e-15)
    assert tsallis_entropy((0.25,) * 4, 2.0) == pytest.approx(0.75, rel=1e-15)
    assert tsallis_entropy((0.5, 0.5), 1.0) == pytest.approx(math.log(2), rel=1e-15)
    assert tsallis_entropy((0.2, 0.3, 0.5), 1.5) == pytest.approx(
        0.7853742461103697, rel=1e-14
    )


def test_tsallis_entropy_zero_entries_drop_out():
    assert tsallis_entropy((1.0, 0.0), 0.5) == 0.0
    assert tsallis_entropy((0.5, 0.5, 0.0), 2.0) == tsallis_entropy((0.5, 0.5), 2.0)
    # where 0^q or 0 ln 0 is not 0 in floating point the entry still drops out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (-1.0, 0.0, 1.0):
            assert tsallis_entropy((0.5, 0.0, 0.5), q) == tsallis_entropy((0.5, 0.5), q)


def test_tsallis_entropy_certain_outcome_is_zero():
    for q in (0.0, 0.5, 1.0, 2.0, 3.0):
        assert tsallis_entropy((1.0,), q) == 0.0


def test_tsallis_shannon_limit():
    p = (0.2, 0.3, 0.5)
    shannon = tsallis_entropy(p, 1.0)
    errs = [abs(tsallis_entropy(p, 1.0 + 1e-2 * 2.0**-k) - shannon) for k in range(8)]
    for finer, coarser in zip(errs[1:], errs[:-1]):
        assert finer <= 0.625 * coarser


def test_asymptotic_leading_values():
    # q = 0: n^2/2 * H_2(p), and H_2((1/2,1/2)) = 1/2
    assert asymptotic_leading(100, (0.5, 0.5), 0.0) == pytest.approx(2500.0, rel=1e-13)
    with pytest.raises(DomainError):
        asymptotic_leading(100, (0.5, 0.5), 2.0)
    with pytest.raises(DomainError):
        asymptotic_leading(0, (0.5, 0.5), 0.5)


def test_asymptotic_remainder_exact_at_q0():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(10, 10_001))
        m = int(rng.integers(2, 7))
        parts = rng.multinomial(n - m, np.full(m, 1.0 / m)) + 1
        part = Partition(n, tuple(int(v) for v in parts))
        lead = asymptotic_leading(part.n, part.ratios(), 0.0)
        assert abs(asymptotic_remainder(part, 0.0)) <= 1e-9 * max(1.0, abs(lead))


@pytest.mark.parametrize(
    "q,bound",
    [(0.5, 0.65), (1.0, 0.15)],
)
def test_remainder_slope_below_one_minus_q(q, bound):
    """|remainder| ~ n^(1-q) for q <= 1: fitted log-log slope stays under
    (1-q) + 0.15 for the balanced two-part family."""
    ns = [2**k for k in range(6, 15)]
    lx, ly = [], []
    for n in ns:
        rem = asymptotic_remainder(Partition(n, (n // 2, n // 2)), q)
        lx.append(math.log(n))
        ly.append(math.log(abs(rem)))
    slope = float(np.polyfit(lx, ly, 1)[0])
    assert slope <= bound


def test_remainder_approaches_zeta_constant_above_q1():
    # at q = 1.5 the remainder converges to zeta(1/2)/(1/2), not to zero
    limit = -1.4603545088095868 / 0.5
    rem_small = asymptotic_remainder(Partition(2**8, (2**7, 2**7)), 1.5)
    rem_large = asymptotic_remainder(Partition(2**14, (2**13, 2**13)), 1.5)
    assert abs(rem_large - limit) < abs(rem_small - limit)
    assert rem_large == pytest.approx(limit, abs=2e-2)

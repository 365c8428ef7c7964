import math
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectra import qalgebra
from qspectra.errors import DomainError, finite
from qspectra.qalgebra import (
    NEAR_ONE_EPS,
    ClampedValue,
    exact_row_sums,
    exact_sum,
    q_div,
    q_exp,
    q_log,
    q_mul,
    q_prod,
    theta_reparam,
)

X_GRID = tuple(np.geomspace(0.1, 10.0, 10))
Q_GRID = (0.3, 0.7, 1.0, 1.6, 2.4)


def test_q_log_exact_values():
    assert q_log(4.0, 0.5) == pytest.approx(2.0, rel=1e-15)
    assert q_log(2.0, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert q_log(1.0, 0.3) == 0.0
    # q = 0 reduces to x - 1
    assert q_log(7.0, 0.0) == pytest.approx(6.0, rel=1e-15)


def test_q_log_is_ln_at_one_and_deformed_beside_it():
    # q_log has no classical band: ln x at q == 1 only, expm1((1-q) ln x)/(1-q) at any other q
    for x in (0.3, 1.0, 2.0, 9.0):
        assert q_log(x, 1.0) == math.log(x)
        for q in (1.0 + 1e-9, 1.0 - 1e-9):
            assert q_log(x, q) == math.expm1((1.0 - q) * math.log(x)) / (1.0 - q)
    # the first-order term (q - 1) ln^2 x / 2 that ln x would drop
    assert q_log(1e308, 1.0 + 5e-9) != math.log(1e308)


def test_q_log_near_one_against_mpmath():
    # log-spaced distances 1e-15 .. 1e-6 from q = 1, on both sides, and x
    # across float64. Measured at most 2.1 units of 2^-53 relative; the
    # bound allows 4.
    qs = [1.0 + side * d for d in np.geomspace(1e-15, 1e-6, 10).tolist() for side in (1.0, -1.0)]
    xs = (1e-300, 1e-100, 1e-10, 0.3, 1.0 - 1e-12, 1.0 + 1e-12, 2.0, 1e10, 1e100, 1e308)
    with mp.workdps(60):
        for q in qs:
            r = 1 - mp.mpf(q)
            for x in xs:
                want = mp.expm1(r * mp.log(x)) / r
                assert abs(q_log(x, q) - want) <= 4 * 2.0**-53 * abs(want), (x, q)


def test_q_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        q_log(0.0, 0.5)
    with pytest.raises(DomainError):
        q_log(-1.0, 0.5)


def test_qparam_validation():
    # q is a float, validated where it enters; the band is one predicate
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match=f"^deformation index must be finite, got {bad!r}$"):
            q_log(2.0, bad)
    assert q_exp(0.0, 1) == (1.0, False)
    assert not qalgebra._classical(1.5)
    assert qalgebra._classical(1.0 + 0.5 * NEAR_ONE_EPS)
    assert not qalgebra._classical(1.0 + 2.0 * NEAR_ONE_EPS)


def test_q_log_overflow_is_refused_not_raised():
    # math.expm1 overflows for the first three
    for x, q in ((1e300, -1.0), (1e-300, 3.0), (1e-310, 1.995)):
        with pytest.raises(DomainError, match="q_log overflows float64"):
            q_log(x, q)
    # expm1 is finite, its quotient by 1 - q = -0.99 is -inf
    with pytest.raises(DomainError, match="q_log overflows float64"):
        q_log(4.3e-312, 1.99)
    with pytest.raises(DomainError, match="q_log overflows float64"):
        q_prod([1e300, 1e300], -1.0)
    with pytest.raises(DomainError, match="q_log overflows float64"):
        q_mul(1e300, 2.0, -1.0)
    with pytest.raises(DomainError, match="q_log overflows float64"):
        q_div(2.0, 1e300, -1.0)


@pytest.mark.parametrize("q", (0.5, 1.0, 1.0 + 5e-9, 1.0 - 5e-9))
def test_q_log_of_inf_is_refused_in_and_out_of_the_band(q):
    # ln(inf) = inf must not pass the finite check. Beside q = 1, where the
    # classical band once answered ln, q_log takes the exact q: its limit is
    # infinite, and refused, for q <= 1, and the finite 1 / (q - 1) above 1.
    if q > 1.0:
        assert q_log(math.inf, q) == 1.0 / (q - 1.0)
        assert q_mul(math.inf, 2.0, q) == ClampedValue(math.inf, True)
        return
    with pytest.raises(DomainError, match="q_log overflows float64"):
        q_log(math.inf, q)
    with pytest.raises(DomainError, match="q_log overflows float64"):
        q_mul(math.inf, 2.0, q)


def test_q_log_of_inf_above_one_is_its_finite_limit():
    # ln_q x tends to 1 / (q - 1) as x -> inf for q > 1
    assert q_log(math.inf, 1.5) == 2.0


def test_q_prod_sum_beyond_float64_is_refused():
    # every ln_q x = 5e307 is finite; their sum is not (was an OverflowError from fsum)
    with pytest.raises(DomainError, match=r"^q_prod overflows float64 at q = -1.0$"):
        q_prod([1e154] * 4, -1.0)
    # the exactly rounded sum has fsum's bits
    xs = np.geomspace(1e-3, 1e3, 37).tolist()
    for q in (-1.0, 0.3, 1.0, 2.5):
        want = q_exp(math.fsum(q_log(x, q) for x in xs), q)
        assert q_prod(xs, q) == want and q_prod(iter(xs), q) == want


def test_q_exp_values_and_clamp():
    assert q_exp(3.0, 0.0) == ClampedValue(4.0, False)
    assert q_exp(-2.0, 0.0) == ClampedValue(0.0, True)
    # q > 1: the truncated branch is the divergent one
    assert q_exp(1.5, 2.0) == ClampedValue(math.inf, True)
    val = q_exp(2.0, 1.0)
    assert val.value == math.exp(2.0) and not val.clamped


def test_q_exp_does_not_raise_on_overflow():
    assert q_exp(800.0, 1.0) == ClampedValue(math.inf, False)
    assert q_exp(math.inf, 1.0) == ClampedValue(math.inf, False)
    assert q_exp(-math.inf, 1.0) == ClampedValue(0.0, False)
    # generic branch: bracket ok but the power overflows
    big = q_exp(1e9, 0.999999)
    assert big.value == math.inf and not big.clamped


@pytest.mark.parametrize("q", (-1.0, 0.5, 1.0, 1.0 + 5e-9, 1.5, 2.0))
def test_q_exp_refuses_nan(q):
    # was ClampedValue(nan, False) at every q
    with pytest.raises(DomainError, match="^q_exp requires a number u, got nan$"):
        q_exp(math.nan, q)


@pytest.mark.parametrize("q", Q_GRID)
def test_inverse_pair(q):
    for x in X_GRID:
        back = q_exp(q_log(x, q), q)
        assert not back.clamped
        assert back.value == pytest.approx(x, rel=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
def test_pseudo_additivity(q):
    """ln_q(xy) = ln_q x + ln_q y + (1-q) ln_q x ln_q y over the grid."""
    r = 1.0 - q
    for x in X_GRID:
        for y in X_GRID:
            lx, ly = q_log(x, q), q_log(y, q)
            lhs = q_log(x * y, q)
            rhs = lx + ly + r * lx * ly
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


@pytest.mark.parametrize("q", Q_GRID)
def test_product_quotient_duality(q):
    for x in X_GRID:
        for y in X_GRID:
            prod = q_mul(x, y, q)
            if not prod.clamped:
                assert q_log(prod.value, q) == pytest.approx(
                    q_log(x, q) + q_log(y, q), abs=1e-12
                )
            quot = q_div(x, y, q)
            if not quot.clamped:
                assert q_log(quot.value, q) == pytest.approx(
                    q_log(x, q) - q_log(y, q), abs=1e-12
                )


def test_q_mul_classical_is_product():
    assert q_mul(3.0, 5.0, 1.0).value == pytest.approx(15.0, rel=1e-15)


def test_q_mul_clamp_example():
    # x^(1-q) + y^(1-q) - 1 < 0 at q = 0 for small factors
    res = q_mul(0.25, 0.5, 0.0)
    assert res == ClampedValue(0.0, True)


def test_q_prod_ignores_order():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.5, 3.0, 6)
    for q in (0.0, 0.5, 1.0, 1.7):
        assert q_prod(xs[::-1], q) == q_prod(xs, q)
        assert q_prod(rng.permutation(xs), q) == q_prod(xs, q)


def test_q_prod_matches_pairwise_chain_when_unclamped():
    xs = (1.1, 0.9, 1.3, 0.7, 1.5)
    for q in (0.0, 0.5, 1.0, 1.7):
        ref = q_prod(xs, q)
        acc = xs[0]
        for x in xs[1:]:
            step = q_mul(acc, x, q)
            assert not step.clamped
            acc = step.value
        assert not ref.clamped
        assert ref.value == pytest.approx(acc, rel=1e-12)


def test_q_prod_clamped_branches():
    # q > 1: the additive representation exceeds its radius -> divergent
    assert q_prod((3.0, 3.0, 3.0), 1.7) == ClampedValue(math.inf, True)
    # q < 1: the bracket goes nonpositive -> truncated to zero
    assert q_prod((0.25, 0.5, 0.5), 0.0) == ClampedValue(0.0, True)


def test_theta_reparam_values():
    assert theta_reparam(1.5, 2.0) == 2.0
    assert theta_reparam(1.0, -3.0) == 1.0
    with pytest.raises(DomainError, match="^deformation index must be finite, got inf$"):
        theta_reparam(1e300, 1e300)
    with pytest.raises(DomainError):
        theta_reparam(1.5, 0.0)


@pytest.mark.parametrize("theta", (-2.0, -0.5, 0.5, 3.0))
def test_theta_identity(theta):
    """ln_{q'} x = ln_q(x^theta) / theta with q' = 1 + theta(q-1)."""
    for q in Q_GRID:
        qprime = theta_reparam(q, theta)
        for x in X_GRID:
            lhs = q_log(x, qprime)
            rhs = q_log(x**theta, q) / theta
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_q_log_array_is_within_2_ulp_of_q_log():
    # np.expm1 and math.expm1 round differently, so the two kernels differ
    # in the last bits on about 8% of points: by at most 2 ulp (measured),
    # held to 3 here
    rng = np.random.default_rng(17)
    xs, qs = rng.uniform(0.1, 100.0, 4000), rng.uniform(-3.0, 3.0, 4000)
    for x, q in zip(xs.tolist(), qs.tolist()):
        scalar = q_log(x, q)
        array = qalgebra.q_log_array(np.array([x]), q)[0].item()
        assert abs(scalar - array) <= 3 * math.ulp(scalar), (x, q)


def test_limit_recovery_is_linear_in_q_minus_1():
    xs = (0.3, 2.0, 9.0)
    for sign in (1.0, -1.0):
        errs = []
        for k in range(8):
            q = 1.0 + sign * 1e-2 * 2.0**-k
            errs.append(max(abs(q_log(x, q) - math.log(x)) for x in xs))
        for finer, coarser in zip(errs[1:], errs[:-1]):
            assert finer <= 0.625 * coarser


# ---------------------------------------------------------------------------
# exact_sum: math.fsum's bits without a Python loop over the entries

BLOCK = 1 << 16


def _same_float(a: float, b: float) -> bool:
    """Equal bits for finite floats: equal values and the same sign of zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _both_paths(x) -> list[float]:
    """exact_sum of x as called, and with the fsum shortcut for short input
    off: the extraction passes alone."""
    with mock.patch.object(qalgebra, "_SMALL", 0):
        passes = exact_sum(x)
    return [exact_sum(x), passes]


def _bulk(seed: int, kind: str, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=size)
    if kind == "wide":  # magnitudes 1e-300 .. 1e300, both signs
        return rng.normal(size=size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
    if kind == "subnormal":
        return rng.integers(-(2**40), 2**40, size) * 5e-324
    # exactly cancelling pairs around a few survivors
    half = rng.normal(size=size // 2) * 10.0 ** rng.uniform(-300.0, 300.0, size // 2)
    x = np.concatenate([half, -half, rng.normal(size=size % 2) * 1e-300])
    rng.shuffle(x)
    return x


extremes = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),  # reaches the subnormals
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300)),
)


@settings(deadline=None, max_examples=60)
@given(
    head=st.lists(extremes, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("normal", "wide", "subnormal", "cancelling")),
    size=st.sampled_from((0, 1, 2, 33, BLOCK - 1, BLOCK, BLOCK + 1)),
    mirror=st.booleans(),
)
def test_exact_sum_is_bit_equal_to_fsum(head, seed, kind, size, mirror):
    x = np.concatenate([np.array(head, dtype=float), _bulk(seed, kind, size)])
    if mirror:  # every entry cancels against a partner: the sum is zero
        x = np.concatenate([x, -x[::-1]])
    expected = math.fsum(x.tolist())
    for got in _both_paths(x):
        assert _same_float(got, expected), (got, expected)


def test_exact_sum_keeps_fsum_sign_of_zero():
    for x in ([], [0.0], [-0.0], [-0.0, -0.0], [-0.0, 0.0], [1.0, -1.0], [-5e-324, 5e-324]):
        expected = math.fsum(x)
        for got in _both_paths(x):
            assert _same_float(got, expected), (x, got)


def test_exact_sum_final_overflow_is_signed_inf():
    for size in (2, BLOCK + 1):
        for sign in (1.0, -1.0):
            x = np.full(size, sign * 1e308)
            assert exact_sum(x) == sign * math.inf
            with pytest.raises(DomainError, match="^the total is too big$"):
                finite(exact_sum(x), "the total is too big")
    # fsum raises on an overflow midway; the exact sum is finite
    x = [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError):
        math.fsum(x)
    assert exact_sum(x) == 1e308


@pytest.mark.parametrize("size", (3, BLOCK + 1))
def test_exact_sum_non_finite_input_gives_fsum_result(size):
    for special, expected in ((math.inf, math.inf), (-math.inf, -math.inf)):
        x = np.ones(size)
        x[size // 2] = special
        assert exact_sum(x) == expected == math.fsum(x.tolist())
        with pytest.raises(DomainError, match="^refused$"):
            finite(exact_sum(x), "refused")
        # fsum raises where finite entries overflow before the infinity; it decides
        y = np.concatenate([[1e308, 1e308], x])
        with pytest.raises(OverflowError):
            math.fsum(y.tolist())
        assert exact_sum(y) == expected
    x = np.ones(size)
    x[0] = math.nan
    assert math.isnan(exact_sum(x)) and math.isnan(math.fsum(x.tolist()))
    x[0], x[-1] = math.inf, -math.inf
    with pytest.raises(ValueError):
        math.fsum(x.tolist())
    assert math.isnan(exact_sum(x))
    with pytest.raises(DomainError, match="^refused$"):
        finite(exact_sum(x), "refused")


def _law(seed: int, law: str, size: int) -> np.ndarray:
    """size seeded terms of one law: log ratios ln(x / mu) and ln_q terms of
    log-uniform eigenvalue ratios, normal mantissas spread over 10^+-20,
    or pairs x, -x each with 1e-17 noise added."""
    rng = np.random.default_rng([seed, ("log", "ln_q", "spread", "pairs").index(law)])
    ratios = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), size))
    if law == "log":
        return np.log(ratios)
    if law == "ln_q":
        return qalgebra.q_log_array(ratios, float(rng.uniform(-2.0, 3.0)))
    if law == "spread":
        return rng.normal(size=size) * 10.0 ** rng.uniform(-20.0, 20.0, size)
    half = rng.normal(size=size // 2)
    x = np.concatenate([half, -half, rng.normal(size=size % 2)]) + rng.normal(size=size) * 1e-17
    rng.shuffle(x)
    return x


def _exactly_rounded(values: list[float]) -> float:
    """The sum of finite values rounded once: each m 2^k (frexp, m scaled to
    an integer) as an int in units of 2^-1074, then int true division; +-inf
    beyond float64. A subnormal's scaled m ends in enough zero bits for the
    right shift to be exact."""
    total = 0
    for v in values:
        m, k = math.frexp(v)
        n, shift = int(m * 2.0**53), k - 53 + 1074
        total += n << shift if shift >= 0 else n >> -shift
    try:
        return total / (1 << 1074)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _assert_fsum_bits(x) -> None:
    """Every path of exact_sum gives fsum's bits where fsum returns a value,
    nan for inf - inf, and the exactly rounded sum where a partial sum
    overflows."""
    got = _both_paths(x)
    values = np.asarray(x, dtype=float).tolist()
    try:
        expected = math.fsum(values)
    except ValueError:
        expected = math.nan
    except OverflowError:
        expected = _exactly_rounded(values)
    for value in got:
        assert _same_float(value, expected) or math.isnan(value) and math.isnan(expected), (value, expected)


@pytest.mark.parametrize("size", (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7))
@pytest.mark.parametrize("law", ("log", "ln_q", "spread", "pairs"))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_exact_sum_extraction_is_bit_equal_to_fsum(seed, law, size):
    _assert_fsum_bits(_law(seed, law, size))


def test_exact_sum_extraction_edges():
    logs = _law(3, "log", 3 * BLOCK)
    spread = _law(3, "spread", BLOCK)
    subnormal = _bulk(3, "subnormal", BLOCK)
    # a block of many passes, of subnormals only, or of zeros (no pass)
    # among blocks of few passes
    for middle in (spread, subnormal, np.zeros(BLOCK), -np.zeros(BLOCK)):
        _assert_fsum_bits(np.concatenate([logs[:BLOCK], middle, logs[BLOCK:]]))
    # a block of full mantissas (2^53 - 1, one value) before wide ones, and
    # a non-finite entry after many blocks: it decides alone
    x = _bulk(7, "wide", 5 * BLOCK + 3)
    x[:BLOCK] = 2.0**53 - 1.0
    _assert_fsum_bits(x)
    x[-1] = -math.inf
    assert exact_sum(x) == -math.inf
    # one sign, every entry near the max: a block's pass sum comes near
    # sigma, the bound that keeps it exact
    near = 2.0**40 * np.random.default_rng(6).uniform(0.9, 1.0, 2 * BLOCK + 1)
    _assert_fsum_bits(near)
    _assert_fsum_bits(-near)
    # subnormals only, and the residual of a pass near the subnormals
    _assert_fsum_bits(_bulk(4, "subnormal", 2 * BLOCK + 1))
    _assert_fsum_bits(logs * 2.0**-1000)
    # a max just below _HUGE takes the passes with sigma = 2^1023; at
    # _HUGE and above the block's entries go to the pass sums as they stand
    below = np.nextafter(qalgebra._HUGE, 0.0)
    for top in (below, qalgebra._HUGE, 1e308, np.finfo(float).max):
        x = _law(5, "pairs", 2 * BLOCK + 3) * (top / 8.0)
        x[BLOCK // 2] = top
        _assert_fsum_bits(x)
        _assert_fsum_bits(-x)
    # pass sums beyond float64: the total overflows, or only a partial sum
    x = np.full(5 * BLOCK, below)
    assert exact_sum(x) == math.inf
    x[-1] = -np.finfo(float).max
    expected = float(Fraction(below) * (5 * BLOCK - 1) - Fraction(np.finfo(float).max))
    assert math.isfinite(expected)
    for got in _both_paths(x):
        assert got == expected
    # a non-finite entry in a block after the passes decides alone
    for where, special in ((-5, math.inf), (-5, -math.inf), (-5, math.nan), (BLOCK + 1, math.nan)):
        x = logs.copy()
        x[where] = special
        _assert_fsum_bits(x)
    x = logs.copy()
    x[2 * BLOCK], x[-1] = math.inf, -math.inf
    assert all(math.isnan(got) for got in _both_paths(x))


def _rounded(x) -> tuple[float, str]:
    """exact_sum(x) and the route that rounded it: "fsum", one math.fsum of
    the pass sums (or of x, for zeros only), or "integers", where that
    fsum raised OverflowError and Python ints took the sum."""
    fsum, raised = math.fsum, []

    def watched(values):
        try:
            return fsum(values)
        except OverflowError:
            raised.append(True)
            raise

    with mock.patch.object(math, "fsum", watched):
        value = exact_sum(x)
    return value, "integers" if raised else "fsum"


def test_exact_sum_rounds_the_pass_sums_with_fsum():
    logs = _law(11, "log", 3 * BLOCK + 5)
    zeros = np.zeros(BLOCK)
    # pass sums 1, 2^-53, 2^-53: added in order they round to 1
    ulps = np.zeros(3 * BLOCK)
    ulps[0], ulps[BLOCK], ulps[2 * BLOCK] = 1.0, 2.0**-53, 2.0**-53
    below = np.nextafter(qalgebra._HUGE, 0.0)
    huge = np.concatenate([logs, [1e308, -1e308]])  # a block at _HUGE gives its entries
    for x, route in (
        (logs, "fsum"),
        (ulps, "fsum"),
        (np.concatenate([logs, -logs[::-1]]), "fsum"),  # cancels to 0
        (np.concatenate([logs, -logs[::-1], -zeros]), "fsum"),
        (np.concatenate([logs[:BLOCK], zeros, logs[BLOCK:]]), "fsum"),  # a zero block among others
        (np.concatenate([logs[:BLOCK], -zeros, logs[BLOCK:]]), "fsum"),
        (np.zeros(BLOCK + 1), "fsum"),  # zeros only: fsum of x picks the sign
        (-np.zeros(BLOCK + 1), "fsum"),
        (huge, "fsum"),
        (np.full(5 * BLOCK, below), "integers"),  # fsum of the pass sums overflows
        (-np.full(5 * BLOCK, below), "integers"),
    ):
        value, taken = _rounded(x)
        try:
            expected = math.fsum(x.tolist())
        except OverflowError:
            expected = math.copysign(math.inf, x[0])
        assert taken == route and _same_float(value, expected), (taken, value, expected)
    assert _rounded(ulps)[0] == 1.0 + 2.0**-52


def _passes(x) -> int:
    """exact_sum(x) checked against math.fsum, and the number of extraction
    passes it ran (one np.add into sigma each)."""
    with mock.patch.object(np, "add", wraps=np.add) as add:
        value = exact_sum(x)
    assert _same_float(value, math.fsum(x.tolist()))
    return add.call_count


def test_exact_sum_passes_until_the_residual_is_zero():
    # ln_q at q = -1.5 of ratios in [e^-7, e^14], a spectrum about 21
    # e-folds wide, and mantissas spread over 10^+-300: each one block,
    # which the passes finish however many it takes
    ratios = np.exp(np.random.default_rng(12).uniform(-7.0, 14.0, BLOCK))
    wide = qalgebra.q_log_array(ratios, -1.5)
    assert 3 < _passes(wide) < 10
    assert 40 < _passes(_bulk(12, "wide", BLOCK)) <= 58
    # the log ratios of the library's spectra take at most three
    assert 1 <= _passes(_law(12, "log", BLOCK)) <= 3


def test_exact_sum_later_passes_take_the_first_pass_bound():
    # max 1 in a block of 2^16: sigma = 2^18, and a residual is at most
    # 2^-35, which the second pass takes for max |r| without a reduction
    ones = np.ones(BLOCK)
    tie = ones + 2.0**-35  # sigma + r is a tie: the residual is the bound itself
    up = ones + 3 * 2.0**-36  # rounds up: a residual of -2^-36
    for x in (tie, -tie, up, np.where(np.arange(BLOCK) % 2, up, ones)):  # the last: max 0, min < 0
        _assert_fsum_bits(np.concatenate([x, x + 2.0**-52, x]))
    # n = 2^16 - 2 takes 2^M = n + 2, with no slack: sigma = 2^17 and the
    # bound 2^-36. Entries just above 2^-36 round up to 2^-35 and leave
    # residuals just inside -2^-36, of one sign and with bits far below it,
    # so the second pass's sum comes near its sigma (one bit less for e
    # there rounds a partial sum of this seed)
    x = 2.0**-36 * (1.0 + np.random.default_rng(10).uniform(0.0, 2.0**-10, BLOCK - 2))
    x[:2] = 1.0, -1.0  # they set sigma and cancel, so the total shows every bit
    _assert_fsum_bits(x)
    _assert_fsum_bits(-x)
    # the first pass normal and its bound at the normals' edge or below, so
    # the second pass meets subnormal residuals under a normal bound
    logs = _law(7, "log", 2 * BLOCK + 1)
    for k in range(982, 996):
        _assert_fsum_bits(logs * 2.0**-k)


# ---------------------------------------------------------------------------
# exact_row_sums: rows of three summed as arrays, fsum's bits row by row


def _rows_of_three(seed: int, size: int) -> np.ndarray:
    """size rows of three, one sixth of each kind, each row in random order."""
    rng = np.random.default_rng(seed)
    n = size // 6

    def wide(m):  # each entry its own magnitude within 2^+-60, both signs
        return rng.normal(size=m) * 2.0 ** rng.uniform(-60.0, 60.0, m)

    a, c = wide(n), wide(n)
    cancelling = np.column_stack([a, -a, c])  # a pair cancels exactly
    b = wide(n)
    near = np.column_stack([a, b, -(a + b)])  # cancels but for a rounding error
    subnormal = rng.integers(-(2**54), 2**54, (n, 3)) * 5e-324  # down to 2^-1074
    subnormal[: n // 2, 0] = rng.choice((-1.0, 1.0), n // 2) * 2.0 ** rng.uniform(-1022.0, -990.0, n // 2)
    zeros = rng.choice(np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]), (n, 3))
    zeros[: n // 4, 2] = -(zeros[: n // 4, 0] + zeros[: n // 4, 1])  # sums exactly 0
    zeros[n // 4 : n // 2] = rng.choice((-0.0, 0.0), (n // 2 - n // 4, 3))
    # a tie between two neighbours of the leading entry, broken one way or
    # the other by an entry far below it: only rounding the two errors to
    # odd keeps that last entry's sign
    lead = rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(-60, 60, n)
    half = np.spacing(lead) / 2.0 * rng.choice((-1.0, 1.0), n)
    far = np.spacing(lead) * 2.0 ** rng.uniform(-60.0, -2.0, n) * rng.choice((-1.0, 1.0), n)
    ties = np.column_stack([lead, half, far])
    rows = np.concatenate([wide(3 * n).reshape(n, 3), cancelling, near, subnormal, zeros, ties])
    return rng.permuted(rows, axis=1)


def test_exact_row_sums_of_three_are_fsum_bit_for_bit():
    rows = _rows_of_three(8831, 6 * 170_000)
    assert len(rows) >= 10**6
    expected = np.array(list(map(math.fsum, zip(*rows.T.tolist()))))
    got = exact_row_sums(rows)
    # the bits: equal values and the same sign of a zero
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    # the rows meant to probe the edges do reach them
    assert (expected == 0.0).sum() > 10**4 and (np.abs(rows) < 2.2250738585072014e-308).any()


def test_exact_row_sums_outside_the_array_route():
    # rows fsum cannot sum take exact_sum: the value where fsum has one, the
    # exactly rounded sum where it raises (inf - inf reads nan)
    rows = np.array(
        [
            [math.inf, 1.0, 2.0],
            [-math.inf, -math.inf, 1.0],
            [math.nan, 1.0, 1.0],
            [math.inf, -math.inf, 1.0],
            [1e308, 1e308, -1e308],  # only a partial sum overflows
            [1e308, 1e308, 1e308],
            [-0.0, -0.0, -0.0],
        ]
    )
    got = exact_row_sums(rows)
    expected = [exact_sum(row) for row in rows]
    assert np.array_equal(got, expected, equal_nan=True)
    assert got[0] == math.inf and got[1] == -math.inf and math.isnan(got[2])
    assert got[4] == 1e308 and got[5] == math.inf
    assert _same_float(got[6], math.fsum([-0.0, -0.0, -0.0]))
    # other widths go row by row through exact_sum
    for width in (0, 1, 2, 4):
        x = np.random.default_rng(width).normal(size=(5, width)) * 1e10
        assert np.array_equal(exact_row_sums(x), [math.fsum(row) for row in x.tolist()])

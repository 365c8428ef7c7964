import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectra import qalgebra
from qspectra.errors import DomainError
from qspectra.qalgebra import (
    NEAR_ONE_EPS,
    ClampedValue,
    QParam,
    as_qparam,
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


def test_q_log_classical_band_is_exact_log():
    for x in (0.3, 1.0, 2.0, 9.0):
        assert q_log(x, 1.0) == math.log(x)
        assert q_log(x, 1.0 + 1e-9) == math.log(x)
        assert q_log(x, 1.0 - 1e-9) == math.log(x)


def test_q_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        q_log(0.0, 0.5)
    with pytest.raises(DomainError):
        q_log(-1.0, 0.5)


def test_qparam_validation():
    with pytest.raises(DomainError):
        QParam(math.nan)
    with pytest.raises(DomainError):
        QParam(math.inf)
    qp = as_qparam(1.5)
    assert qp.q == 1.5
    assert qp.rate == -0.5
    assert not qp.is_classical
    assert as_qparam(qp) is qp
    assert QParam(1.0 + 0.5 * NEAR_ONE_EPS).is_classical


def test_q_exp_values_and_clamp():
    assert q_exp(3.0, 0.0) == ClampedValue(4.0, False)
    assert q_exp(-2.0, 0.0) == ClampedValue(0.0, True)
    # q > 1: the truncated branch is the divergent one
    assert q_exp(1.5, 2.0) == ClampedValue(math.inf, True)
    val = q_exp(2.0, 1.0)
    assert val.value == math.exp(2.0) and not val.clamped


def test_q_exp_does_not_raise_on_overflow():
    assert q_exp(800.0, 1.0) == ClampedValue(math.inf, False)
    # generic branch: bracket ok but the power overflows
    big = q_exp(1e9, 0.999999)
    assert big.value == math.inf and not big.clamped


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
    qp = theta_reparam(1.5, 2.0)
    assert qp.q == 2.0
    assert theta_reparam(1.0, -3.0).q == 1.0
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
    """exact_sum of x as called, and with the fsum shortcut for short input off."""
    with mock.patch.object(qalgebra, "_SMALL", 0):
        buckets = exact_sum(x)
    return [exact_sum(x), buckets]


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


def test_exact_sum_flushes_buckets_into_one_int():
    # a bucket takes up to two integers per entry, below 2^27 and 2^26, and
    # must stay below 2^53 to add exactly
    assert qalgebra._FLUSH * (2**27 + 2**26) <= 2**53
    x = _bulk(7, "wide", 5 * BLOCK + 3)
    x[:BLOCK] = 2.0**53 - 1.0  # full mantissas, all into one pair of buckets
    expected = math.fsum(x.tolist())
    for flush in (BLOCK, 2 * BLOCK + 5):
        with mock.patch.object(qalgebra, "_FLUSH", flush):
            assert _same_float(exact_sum(x), expected)
            # a non-finite entry after a flush still gives fsum's result
            y = x.copy()
            y[-1] = -math.inf
            assert exact_sum(y) == -math.inf


def test_exact_sum_final_overflow_raises_domain_error():
    for size in (2, BLOCK + 1):
        x = np.full(size, 1e308)
        with pytest.raises(DomainError, match="overflows float64"):
            exact_sum(x)
        with pytest.raises(DomainError, match="^the total is too big$"):
            exact_sum(x, "the total is too big")
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
            exact_sum(x, "refused")
    x = np.ones(size)
    x[0] = math.nan
    assert math.isnan(exact_sum(x)) and math.isnan(math.fsum(x.tolist()))
    x[0], x[-1] = math.inf, -math.inf
    with pytest.raises(ValueError):
        math.fsum(x.tolist())
    with pytest.raises(ValueError):
        exact_sum(x)
    with pytest.raises(DomainError, match="^refused$"):
        exact_sum(x, "refused")

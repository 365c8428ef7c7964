import math

import numpy as np
import pytest

from qspectra.errors import DomainError
from qspectra.qalgebra import (
    NEAR_ONE_EPS,
    ClampedValue,
    QParam,
    as_qparam,
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

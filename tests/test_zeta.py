import json
import math
import re
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from qspectra import spectrum, zeta
from qspectra.errors import DomainError, PoleError, UnsupportedModelError
from qspectra.spectrum import Spectrum, power_transform, q_logdet
from qspectra.zeta import (
    POLE_EPS,
    bernoulli_numbers,
    finite_diag,
    hurwitz_zeta,
    model_from_dict,
    model_from_json,
    model_to_json,
    power_spectrum,
    power_transform_model,
    qdet_zeta,
    relative_qdet_zeta,
    shifted_linear,
    theta_covariance_zeta,
    zeta_deriv0,
    zeta_value,
)

HALF_LN_2PI = 0.9189385332046727


def test_model_validation():
    with pytest.raises(DomainError):
        model_from_dict({"kind": "finite_diag"})
    with pytest.raises(DomainError):
        finite_diag((1.0, -2.0))
    with pytest.raises(DomainError):
        shifted_linear(0.0)
    with pytest.raises(DomainError):
        power_spectrum(-1.0)
    with pytest.raises(DomainError):
        model_from_dict({"kind": "no_such_kind", "a": 1.0})
    with pytest.raises(DomainError):
        shifted_linear(1.0, scale=-2.0)


def test_model_pole_locations():
    assert finite_diag((1.0, 2.0)).pole is None
    assert shifted_linear(2.5).pole == 1.0
    assert power_spectrum(2.0).pole == 0.5


def _bernoulli_fractions(count):
    """B_0 .. B_count from the defining recurrence sum_j C(m+1, j) B_j = 0."""
    values = [Fraction(1)]
    for m in range(1, count + 1):
        values.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(values)) / (m + 1))
    return values


def test_bernoulli_table_matches_the_recurrence():
    exact = _bernoulli_fractions(60)
    assert [Fraction(n, d) for n, d in zeta._BERNOULLI] == exact
    assert bernoulli_numbers(60) == [float(b) for b in exact]
    # the Euler-Maclaurin coefficients B_2j / (2j)!, each rounded once
    assert zeta._EM_COEF == tuple(float(exact[2 * j] / math.factorial(2 * j)) for j in range(1, 31))


def test_bernoulli_numbers():
    bern = bernoulli_numbers(12)
    assert bern[0] == 1.0
    assert bern[1] == -0.5
    assert bern[2] == pytest.approx(1 / 6, rel=1e-15)
    assert bern[3] == 0.0
    assert bern[12] == pytest.approx(-691 / 2730, rel=1e-15)
    with pytest.raises(DomainError):
        bernoulli_numbers(61)
    with pytest.raises(DomainError):
        bernoulli_numbers(-1)


@pytest.mark.parametrize("s", (-5.5, -3.0, -1.0, -0.5, 0.0, 0.5, 2.0, 4.5, 12.0))
@pytest.mark.parametrize("a", (0.1, 0.5, 1.0, 2.5, 7.0))
def test_hurwitz_zeta_against_mpmath(s, a):
    want = float(mp.zeta(s, a))
    got = hurwitz_zeta(s, a)
    # the documented contract
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_hurwitz_zeta_special_rows():
    # zeta(0, a) = 1/2 - a and zeta(-1, a) = -(a^2 - a + 1/6)/2: the
    # Bernoulli tail terminates, so these come out near machine exactness
    for a in (0.3, 1.0, 2.5):
        assert hurwitz_zeta(0.0, a) == pytest.approx(0.5 - a, abs=1e-13)
        assert hurwitz_zeta(-1.0, a) == pytest.approx(
            -(a * a - a + 1 / 6) / 2, abs=1e-12
        )
    assert hurwitz_zeta(3.0, 2.5) == pytest.approx(0.1181020258208637, rel=1e-13)
    # a tiny value at negative s, held to the 1e-13 max(1, |value|) contract
    assert abs(hurwitz_zeta(-2.5, 0.3) - -0.00949638093151452) <= 1e-13


def test_hurwitz_zeta_domain_errors():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0 + 0.5 * POLE_EPS, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)
    # a trivial zero of Riemann's zeta; mpmath gives exactly 0
    assert hurwitz_zeta(-180.0, 1.0) == 0.0
    # the true value, 1.68e375, is beyond float64
    with pytest.raises(DomainError, match="not finite in float64"):
        hurwitz_zeta(-300.5, 0.5)
    # s (s+1) ... overflows where x^(-s-1) has underflowed: the tail stops at
    # the first zero term instead of forming inf * 0
    assert hurwitz_zeta(1e11, 1.0) == 1.0
    assert hurwitz_zeta(1e11, 2.5) == 0.0
    for s in (60.0, 300.0, 1000.0):
        for a in (0.5, 0.9, 1.0, 1.5, 2.5, 10.0):
            want = float(mp.zeta(s, a))
            assert hurwitz_zeta(s, a) == pytest.approx(want, rel=1e-14, abs=0.0), (s, a)


@pytest.mark.parametrize("s", (-28.95, -28.5, -27.5, -26.5))
@pytest.mark.parametrize("a", (16.5, 100.25))
def test_hurwitz_zeta_euler_maclaurin_terms_are_capped(s, a):
    # a target relative to the value's scale a^(1-s) / (1-s) lets
    # Euler-Maclaurin answer here with N = 0; an absolute one needed 6.9e7
    # (s = -26.5) to 1e304 (s = -28.95) terms
    assert zeta._hurwitz(s, a)[3] > 0
    start = time.perf_counter()
    got = hurwitz_zeta(s, a)
    assert time.perf_counter() - start < 1.0
    want = mp.zeta(s, a)
    assert abs(got - want) <= 1e-13 * abs(want), (got, float(want))


@pytest.mark.parametrize("s", (-28.95, -28.5, -27.5))
def test_euler_maclaurin_sums_at_most_2_20_terms(s):
    # below a = 16 these s take the shift route; Euler-Maclaurin would plan
    # more than 2^20 terms there, so it sums none and reports the bound inf
    value, bound, n, m = zeta._euler_maclaurin(s, 2.5)
    assert n > 2**20 and bound == math.inf and math.isnan(value)


# s over [-40, 30]: every negative integer and half-integer, the band near
# s = -1.3 where the old continuation missed 1e-12, and a spread in between
_SWEEP_S = (
    [-float(n) for n in range(41)]
    + [-n - 0.5 for n in range(40)]
    + [-1.31, -1.3, -1.29, -2.7, -3.3]
    + [-40.0 + 70.0 * (k + 0.37) / 24 for k in range(24)]
)
_SWEEP_A = (0.1, 0.37, 0.999, 1.0, 1.001, 2.5, 3.98, 6.23, 10.0)


def test_hurwitz_zeta_value_within_contract_or_refused():
    # the contract: error <= 1e-13 max(1, |value|), or DomainError
    refused = []
    for s in _SWEEP_S:
        for a in _SWEEP_A:
            want = mp.zeta(s, a)
            try:
                got = hurwitz_zeta(s, a)
            except DomainError:
                refused.append((s, a))
                continue
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (s, a, got, float(want))
    assert len(refused) <= len(_SWEEP_S) * len(_SWEEP_A) // 100, refused


def _large_a_series(s, a):
    """zeta(s, a) from its large-a expansion (DLMF 25.11.43) at 40 digits,
    a^(1-s)/(s-1) + a^(-s)/2 + sum_k B_2k/(2k)! (s)_(2k-1) a^(1-s-2k), summed
    up to its least term; mp.zeta takes tens of seconds at a near 1e6."""
    with mp.workdps(40):
        s, a = mp.mpf(s), mp.mpf(a)
        total = a ** (1 - s) / (s - 1) + a**-s / 2
        poch, power, last = s, a ** (-s - 1), mp.inf
        for k in range(1, 400):
            term = mp.bernoulli(2 * k) / mp.factorial(2 * k) * poch * power
            if abs(term) >= last:
                break
            total += term
            last = abs(term)
            poch *= (s + 2 * k - 1) * (s + 2 * k)
            power /= a * a
        assert last < 1e-17 * abs(total), (s, a)
        return total


def test_hurwitz_zeta_at_large_a():
    # log-uniform a in [16, 1e15] and s in [-58, 30], within the contract, and
    # refused only where the value leaves float64
    rng = np.random.default_rng(2117)
    s_values = rng.uniform(-58.0, 30.0, 200).tolist()
    a_values = np.exp(rng.uniform(math.log(16.0), math.log(1e15), 200)).tolist()
    points = list(zip(s_values, a_values))
    points += [
        # very negative s at large a, where the shift route would sum a terms
        (-26.5, 6e7 + 0.5),
        (-30.5, 1e6 + 0.5),
        (-35.5, 2e6 + 0.5),
        (-45.5, 3e4 + 0.25),
        # x^(1-s) overflows here, though the value, -7.07e307, does not
        (-31.480399132287303, 3346209625.584191),
    ]
    slowest = 0.0
    for s, a in points:
        want = _large_a_series(s, a)
        start = time.perf_counter()
        try:
            got = hurwitz_zeta(s, a)
        except DomainError:
            assert abs(want) > np.finfo(float).max, (s, a, float(want))
            continue
        finally:
            slowest = max(slowest, time.perf_counter() - start)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (s, a, got, float(want))
    assert slowest < 0.01


@pytest.mark.parametrize(
    "s, a, want",
    (
        # values the old continuation got wrong
        (-3.0, 1.0, 1 / 120),
        (-5.0, 1.0, -1 / 252),
        (-7.0, 1.0, 1 / 240),
        (-8.0, 0.5, 0.0),  # was -0.03125
        (-11.0, 1.0, 691 / 32760),  # was 0.0
        (-25.0, 1.0, float(mp.zeta(-25))),
        (-41.0, 1.0, float(mp.zeta(-41))),
        (-12.5, 1.0, float(mp.zeta(-12.5))),  # was -1048576
    ),
)
def test_hurwitz_zeta_pinned_rows(s, a, want):
    assert hurwitz_zeta(s, a) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_qdet_zeta_far_below_the_band():
    # (zeta(-41) - zeta(0)) / 41; was 0.0122
    want = float((mp.zeta(-41) + 0.5) / 41)
    assert want == pytest.approx(-4.89e14, rel=1e-3)
    assert qdet_zeta(power_spectrum(1.0), -40.0) == pytest.approx(want, rel=1e-13)


def test_riemann_constants():
    model = shifted_linear(1.0)
    assert zeta_value(model, 0.0) == pytest.approx(-0.5, abs=1e-10)
    assert zeta_value(model, -1.0) == pytest.approx(-1 / 12, abs=1e-10)
    assert zeta_value(model, 2.0) == pytest.approx(math.pi**2 / 6, abs=1e-10)
    assert zeta_value(model, 0.5) == pytest.approx(-1.4603545088095868, rel=1e-12)


def test_zeta_value_finite_diag():
    assert zeta_value(finite_diag((2.0, 3.0)), 1.0) == pytest.approx(
        5 / 6, rel=1e-15
    )
    # scale enters as scale^s
    scaled = finite_diag((2.0, 3.0), scale=3.0)
    assert zeta_value(scaled, 2.0) == pytest.approx(
        9.0 * (1 / 4 + 1 / 9), rel=1e-13
    )


def test_zeta_value_power_spectrum():
    model = power_spectrum(2.0)
    assert zeta_value(model, 1.0) == pytest.approx(math.pi**2 / 6, abs=1e-10)
    with pytest.raises(PoleError, match=r"pole at s = 0\.5, got s = 0\.5$"):
        zeta_value(model, 0.5)


def test_zeta_pole_refusal():
    with pytest.raises(PoleError):
        zeta_value(shifted_linear(1.0), 1.0)
    # just outside the guard band evaluates fine
    assert math.isfinite(zeta_value(shifted_linear(1.0), 1.0 + 2 * POLE_EPS))
    # the band is taken in the Hurwitz argument alpha s, not in s
    with pytest.raises(PoleError):
        zeta_value(power_spectrum(2.0), 0.5 + 0.4 * POLE_EPS)
    s = 0.5 + 0.6 * POLE_EPS
    exact = float(mp.zeta(2 * mp.mpf(s)))
    assert zeta_value(power_spectrum(2.0), s) == pytest.approx(exact, rel=1e-13)
    # the pole 1 / alpha = 5e-7 lies within 1e-6 of s = 0, alpha s does not
    assert zeta_value(power_spectrum(2e6), 0.0) == -0.5


def test_zeta_deriv0():
    assert zeta_deriv0(shifted_linear(1.0)) == pytest.approx(-HALF_LN_2PI, rel=1e-14)
    # frozen: mpmath derivative of zeta(s, 0.7) at s = 0
    assert zeta_deriv0(shifted_linear(0.7)) == pytest.approx(-0.6580712866730062, rel=1e-14)
    # zeta_{k^2}(s) = zeta(2s), so the derivative doubles
    assert zeta_deriv0(power_spectrum(2.0)) == pytest.approx(-2.0 * HALF_LN_2PI, rel=1e-14)


def test_zeta_deriv0_scale_shift():
    # zeta_{A/mu}(s) = mu^s zeta_A(s) so the derivative gains ln(mu) zeta(0)
    mu = 3.0
    base = shifted_linear(1.0)
    scaled = shifted_linear(1.0, scale=mu)
    want = zeta_deriv0(base) + math.log(mu) * zeta_value(base, 0.0)
    assert zeta_deriv0(scaled) == pytest.approx(want, rel=1e-14)


def _mp_quotient(zeta_fn, q):
    """(Z(q-1) - Z(0)) / (1 - q) in mpmath, for the working precision."""
    q = mp.mpf(q)
    return (zeta_fn(q - 1) - zeta_fn(0)) / (1 - q)


def _jet_models():
    """(model, mpmath (Z(0), Z'(0)), mpmath s -> Z(s)) for the three kinds,
    the scale included."""
    rng = np.random.default_rng(29)
    cases = []

    def hurwitz(model, a, alpha, mu):
        log_mu = mp.log(mu)
        z0, z1 = mp.zeta(0, a), alpha * mp.zeta(0, a, 1)
        cases.append((model, (z0, z1 + log_mu * z0), lambda s: mp.mpf(mu) ** s * mp.zeta(alpha * s, a)))

    def finite(eigs, mu):
        logs = [mp.log(mp.mpf(x) / mp.mpf(mu)) for x in eigs]
        jet = (len(eigs), -mp.fsum(logs))
        cases.append((Spectrum(eigs, mu), jet, lambda s: mp.fsum(mp.exp(-s * v) for v in logs)))

    for mu in (0.3, 1.0, 5.0):
        for a in np.geomspace(0.1, 1e4, 9).tolist():
            hurwitz(shifted_linear(a, scale=mu), a, 1, mu)
        for alpha in np.linspace(0.5, 2.5, 9).tolist():
            hurwitz(power_spectrum(alpha, scale=mu), 1, alpha, mu)
        finite(rng.uniform(0.05, 100.0, 200), mu)
    # large logarithms of the scale or of an eigenvalue, where the
    # five-point stencil of earlier versions was off by up to 5.4e-4
    for mu in (1e20, 1e100):
        hurwitz(shifted_linear(1.0, scale=mu), 1, 1, mu)
    finite((1e100, 2.0, 0.5), 1.0)
    return cases


def test_jets_against_mpmath():
    with mp.workdps(30):
        for model, want, zeta_fn in _jet_models():
            got = model.jet0()
            assert len(got) == 2
            # zeta(0) rounded once; zeta'(0) within 1e-14 max(1, |value|)
            for k, tol in ((0, 2.0**-53), (1, 1e-14)):
                assert abs(got[k] - want[k]) <= tol * max(1, abs(want[k])), (model, k)
            assert abs(zeta_deriv0(model) - want[1]) <= 1e-14 * max(1, abs(want[1])), model
            assert qdet_zeta(model, 1.0) == -got[1]
            # next to q = 1 the determinant is mpmath's exact quotient
            for q in (1.0 + 5e-9, 1.0 - 5e-9):
                exact = _mp_quotient(zeta_fn, q)
                assert abs(qdet_zeta(model, q) - exact) <= 1e-14 * max(1, abs(exact)), (model, q)
    # the jet is taken on the ratios lambda / mu, so one that leaves float64
    # (1e308 / 0.5) is refused rather than summed from ln lambda - ln mu
    beyond = Spectrum((1e308, 2.0), 0.5)
    for call in (beyond.jet0, lambda: zeta_deriv0(beyond), lambda: qdet_zeta(beyond, 0.5)):
        with pytest.raises(DomainError, match=r"^a ratio lambda / scale leaves float64 at scale = 0\.5$"):
            call()


@pytest.mark.parametrize("mu", [1e-100, 1e100, 1e300])
def test_finite_diag_far_from_unit_scale_against_mpmath(mu):
    # every ratio lambda / mu lies in [0.5, 2], where ln lambda - ln mu
    # lost up to 5.6e-13 to the cancellation of two logs of size 230 to 690
    rng = np.random.default_rng(int(math.log10(mu)) + 400)
    model = finite_diag(mu * rng.uniform(0.5, 2.0, 50), mu)
    with mp.workdps(40):
        logs = [mp.log(mp.mpf(lam) / mp.mpf(mu)) for lam in model.eigenvalues.tolist()]
        want = -mp.fsum(logs)
        assert abs(zeta_deriv0(model) - want) <= 1e-14 * max(1, abs(want))
        for q in (-1.5, 0.0, 0.5, 1.0 - 5e-9, 1.0, 1.0 + 5e-9, 2.5):
            r = 1 - mp.mpf(q)
            exact = mp.fsum(mp.expm1(r * t) / r for t in logs) if q != 1.0 else -want
            assert abs(qdet_zeta(model, q) - exact) <= 1e-14 * max(1, abs(exact)), q


def test_theta_covariance_zeta_accepts_finite_diag():
    # the residual of a finite operator holds the spectrum's documented
    # 1e-11 (1 + |Gamma_q'|), for theta of either sign
    rng = np.random.default_rng(37)
    for k in range(40):
        model = finite_diag(rng.uniform(0.05, 100.0, int(rng.integers(1, 100))), float(rng.uniform(0.5, 2.0)))
        q, theta = float(rng.uniform(-2.0, 3.0)), float(rng.uniform(0.5, 2.0)) * (-1) ** k
        gamma = qdet_zeta(model, 1.0 + theta * (q - 1.0))
        assert theta_covariance_zeta(model, q, theta) <= 1e-11 * (1.0 + abs(gamma)), (q, theta)


def test_zeta_differences_beyond_float64_are_refused():
    # Lerch's ln Gamma(a) - ln(2 pi)/2 is finite at a = 1e305, and so is the
    # determinant next to q = 1, the regularised sum of ln_q(a + n)
    huge, one = shifted_linear(1e305), shifted_linear(1.0)
    assert zeta_deriv0(huge) == 7.01288453363184e307
    assert qdet_zeta(huge, 1.0) == -7.01288453363184e307
    with mp.workdps(30):
        # ln_q x = sum_k (1-q)^(k-1) ln^k x / k!, and the regularised sum of
        # ln^k(a + n) is (-1)^k zeta^(k)(0, a); four terms leave 1e-19 here.
        # (mpmath's zeta(s, 1e305) itself takes minutes at s < 0.)
        derivs = [mp.zeta(0, mp.mpf(1e305), k) for k in range(1, 5)]
        for q in (1.0 + 1e-9, 1.0 - 1e-9):
            r = 1 - mp.mpf(q)
            want = mp.fsum(r ** (k - 1) / mp.factorial(k) * (-1) ** k * d for k, d in enumerate(derivs, 1))
            assert abs(qdet_zeta(huge, q) - want) <= 1e-14 * abs(want), q
            assert abs(relative_qdet_zeta(huge, one, q) - want) <= 1e-14 * abs(want), q
    # math.lgamma overflows at a = 1e307
    beyond = shifted_linear(1e307)
    with pytest.raises(DomainError, match=r"^zeta'\(0\) is not finite in float64$"):
        zeta_deriv0(beyond)
    for call in (lambda: qdet_zeta(beyond, 1.0), lambda: relative_qdet_zeta(beyond, one, 1.0)):
        with pytest.raises(DomainError, match="^the zeta determinant is not finite in float64 at q = 1.0$"):
            call()
    with pytest.raises(DomainError, match="^the zeta determinant is not finite in float64 at q = 1.00000002$"):
        qdet_zeta(beyond, 1.00000002)


def test_qdet_zeta_finite_matches_spectrum_route():
    # one kernel, FiniteDiag.qdet, on the ratios lambda / scale: outside the
    # classical band of q_logdet, and at q = 1, both give the same bits
    rng = np.random.default_rng(41)
    for _ in range(60):
        scale = float(np.exp(rng.uniform(-6.0, 6.0)))
        spec = Spectrum(rng.uniform(0.05, 100.0, int(rng.integers(1, 80))), scale)
        for q in (*rng.uniform(-2.0, 3.0, 4).tolist(), -1.0, 0.0, 0.99, 1.0, 1.0 - 2e-8, 1.0 + 2e-8):
            assert q_logdet(spec, q) == qdet_zeta(spec, q), (scale, q)
    # the relative and theta-covariance forms are the zeta module's
    assert spectrum.relative_q_logdet is relative_qdet_zeta
    assert spectrum.theta_covariance_residual is theta_covariance_zeta


def test_qdet_zeta_frozen_value():
    # (zeta(1/2) - zeta(0)) / (-1/2) for the unit shifted-linear spectrum
    assert qdet_zeta(shifted_linear(1.0), 1.5) == pytest.approx(
        1.9207090176191737, rel=1e-12
    )


def test_qdet_zeta_classical_limit():
    model = shifted_linear(1.0)
    assert qdet_zeta(model, 1.0) == pytest.approx(HALF_LN_2PI, abs=1e-8)
    for dq in (1e-2, 1e-3, 1e-4, 1e-6):
        err = abs(qdet_zeta(model, 1.0 + dq) - HALF_LN_2PI)
        assert err <= 2.0 * dq
    # and next to q = 1, where the regularised sum runs, as smoothly
    inside = qdet_zeta(model, 1.0 + 1e-9)
    assert inside == pytest.approx(HALF_LN_2PI, abs=1e-8)


def test_qdet_zeta_pole():
    with pytest.raises(PoleError, match=r"pole at q = 2\.0, got q = 2\.0$"):
        qdet_zeta(shifted_linear(1.0), 2.0)
    for alpha in (0.5, 2.0, 2e6):
        q = 1.0 + 1.0 / alpha
        # the refusal names q, not the Hurwitz argument alpha (q - 1)
        with pytest.raises(PoleError, match=f"got q = {re.escape(repr(q))}$"):
            qdet_zeta(power_spectrum(alpha), q)
    with pytest.raises(PoleError, match=r"power_spectrum model .* got q = 1\.5$"):
        relative_qdet_zeta(shifted_linear(1.0), power_spectrum(2.0), 1.5)
    # theta_covariance_zeta meets the pole at q' = 1 + theta (q - 1) = 1.5 and
    # names the caller's q and theta along with that q'
    with pytest.raises(
        PoleError,
        match=r"pole at q' = 1\.5, got q = 1\.25, theta = 2\.0, q' = 1 \+ theta \(q - 1\) = 1\.5$",
    ):
        theta_covariance_zeta(power_spectrum(2.0), 1.25, 2.0)
    # (zeta_R(1e6) - zeta_R(0)) / (1 - 1.5); mpmath: -3.0
    assert qdet_zeta(power_spectrum(2e6), 1.5) == -3.0


def test_relative_qdet_zeta():
    pairs = (
        (finite_diag((2.0, 3.0)), finite_diag((1.0, 6.0))),
        (shifted_linear(1.0), power_spectrum(2.0)),
    )
    for a, b in pairs:
        for q in (0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.7):
            assert relative_qdet_zeta(a, b, q) == pytest.approx(
                qdet_zeta(a, q) - qdet_zeta(b, q), abs=1e-12
            )
    infinite = shifted_linear(1.0)
    assert relative_qdet_zeta(infinite, infinite, 1.5) == 0.0


# |q - 1| log-spaced from 1e-16 to 0.5 on both sides (1 + 1e-16 rounds to
# q = 1 itself), and points far from 1 on either route
_SWEEP_QS = sorted(
    {1.0 + sign * d for d in np.geomspace(1e-16, 0.5, 18).tolist() for sign in (1.0, -1.0)}
    | {-3.0, -1.0, 0.0, 1.9, 2.5, 4.0}
)
_EPS = 2.0**-53


def _sweep_models():
    """(model, its Hurwitz (a, alpha), or None for finite_diag): two seeded
    models of each kind at each scale."""
    rng = np.random.default_rng(1817)
    models = []
    for mu in (0.3, 1.0, 5.0):
        for _ in range(2):
            a, alpha = math.exp(rng.uniform(math.log(0.05), math.log(50.0))), rng.uniform(0.5, 2.5)
            models.append((shifted_linear(a, mu), (a, 1.0)))
            models.append((power_spectrum(alpha, mu), (1.0, alpha)))
            models.append((Spectrum(np.exp(rng.uniform(math.log(0.05), math.log(100.0), 40)), mu), None))
    return models


def _mp_qdet(model, hurwitz, q):
    """The determinant at working precision: the exact sum of ln_q(x_k) for
    finite_diag, the zeta quotient (its limit -Z'(0) at q = 1) otherwise."""
    r = 1 - mp.mpf(q)
    if hurwitz is None:
        logs = [mp.log(mp.mpf(x)) - mp.log(mp.mpf(model.scale)) for x in model.eigenvalues.tolist()]
        return mp.fsum(mp.expm1(r * v) / r if r else v for v in logs)
    a, alpha = hurwitz
    mu = mp.mpf(model.scale)
    if not r:
        return -(alpha * mp.zeta(0, a, 1) + mp.log(mu) * mp.zeta(0, a))
    return (mu ** (-r) * mp.zeta(-alpha * r, a) - mp.zeta(0, a)) / r


def _qdet_bound(model, hurwitz, q, value):
    """The error bound qdet_zeta's docstring states on the route taken at q."""
    if hurwitz is None or q == 1.0 or 0.0 <= 1.0 + hurwitz[1] * (q - 1.0) <= 1.5:
        return 1e-14 * max(1.0, abs(value))
    a, alpha = hurwitz
    head = model.scale ** (q - 1.0) * max(1.0, abs(hurwitz_zeta(alpha * (q - 1.0), a)))
    quotient = 1e-13 * (head + max(1.0, abs(0.5 - a))) + 4 * _EPS * abs(zeta_value(model, q - 1.0))
    return quotient / abs(1.0 - q)


def test_qdet_zeta_sweep_against_mpmath():
    """Every kind and scale, from q = 1 +- 1e-16 to +-0.5 and far from 1:
    within 1e-14 max(1, |value|) on the sum route, which covers the former
    classical band, and within the quotient's stated bound elsewhere; and
    relative_qdet_zeta within the sum of both bounds."""
    models = _sweep_models()
    checked = 0
    with mp.workdps(50):
        for q in _SWEEP_QS:
            values = []
            for model, hurwitz in models:
                if model.pole is not None and abs(q - 1.0 - model.pole) < 1e-3:
                    continue
                want = _mp_qdet(model, hurwitz, q)
                got = qdet_zeta(model, q)
                bound = _qdet_bound(model, hurwitz, q, got)
                assert abs(got - want) <= bound, (model, q, float(abs(got - want)), bound)
                values.append((model, want, bound))
                checked += 1
            # each model against the next one in the list, of another kind
            for (model, want, bound), (ref, ref_want, ref_bound) in zip(values, values[1:]):
                got = relative_qdet_zeta(model, ref, q)
                assert abs(got - (want - ref_want)) <= bound + ref_bound + _EPS * abs(got), (model, ref, q)
    assert checked >= 750


def test_qdet_zeta_power_spectrum_large_alpha():
    # the power map alpha qdet(shifted_linear(1), q_R) at q_R = 1 + 1e-2:
    # the first-order band expansion was 1.1e-4 off here
    q = 1.0 + 5e-9
    with mp.workdps(50):
        want = _mp_quotient(lambda s: mp.zeta(2e6 * s), q)
    assert abs(qdet_zeta(power_spectrum(2e6), q) - want) <= 1e-14 * abs(want)


def test_power_transform_model():
    finite = finite_diag((2.0, 8.0), scale=2.0)
    powered = power_transform_model(finite, 2.0)
    assert tuple(powered.eigenvalues.tolist()) == (1.0, 16.0)
    assert powered.scale == 1.0

    ps = power_transform_model(power_spectrum(1.5, scale=4.0), 2.0)
    assert ps.alpha == 3.0
    assert ps.scale == 16.0

    with pytest.raises(UnsupportedModelError):
        power_transform_model(shifted_linear(1.0), 2.0)
    with pytest.raises(UnsupportedModelError):
        power_transform_model(power_spectrum(1.0), -1.0)
    with pytest.raises(DomainError):
        power_transform_model(finite, 0.0)
    # scale^theta or alpha theta beyond float64: was a raw OverflowError, or
    # a refusal naming the scale 0.0 the power had rounded to
    for alpha, scale, theta in ((1.0, 1e200, 2.0), (1.0, 1e-200, 2.0), (1e300, 1.0, 1e10), (1e-300, 1.0, 1e-30)):
        message = rf"^the power map A\^theta leaves float64 at theta = {theta!r}$"
        with pytest.raises(DomainError, match=message):
            power_transform_model(power_spectrum(alpha, scale), theta)
        with pytest.raises(DomainError, match=message):
            theta_covariance_zeta(power_spectrum(alpha, scale), 0.5, theta)


def test_power_transform_model_matches_spectrum_map():
    spec = Spectrum((0.5, 2.0, 3.0), scale=1.5)
    via_model = power_transform_model(spec, -2.0)
    via_spec = power_transform(spec, -2.0)
    assert via_model == via_spec


def test_theta_covariance_zeta():
    for alpha, q, theta in ((1.0, 1.25, 2.0), (2.0, 1.2, 3.0), (0.5, 0.8, 2.0)):
        res = theta_covariance_zeta(power_spectrum(alpha), q, theta)
        assert res <= 1e-8
    with pytest.raises(UnsupportedModelError):
        theta_covariance_zeta(shifted_linear(1.0), 1.2, 2.0)
    with pytest.raises(UnsupportedModelError):
        theta_covariance_zeta(power_spectrum(1.0), 1.2, -2.0)


def test_theta_covariance_zeta_relative_contract():
    """The docstring contract, residual <= 2e-12 max(1, |qdet(A, q')|, E),
    on a seeded subset of the box it was measured on."""
    rng = np.random.default_rng(5)
    checked = 0
    for alpha, scale, q, theta in rng.uniform((0.5, 0.5, -40.0, 0.5), (2.5, 2.0, 4.0, 2.0), (300, 4)):
        model = power_spectrum(alpha, scale)
        q_prime = 1.0 + theta * (q - 1.0)
        try:
            residual = theta_covariance_zeta(model, q, theta)
            det = qdet_zeta(model, q_prime)
        except (DomainError, PoleError):
            continue
        sigma = alpha * (q_prime - 1.0)
        # the scale of Hurwitz's series, 2 Gamma(1-sigma) / (2 pi)^(1-sigma)
        log_series = (
            math.log(2.0) + math.lgamma(1.0 - sigma) - (1.0 - sigma) * math.log(2.0 * math.pi)
            + (q_prime - 1.0) * math.log(scale) - math.log(abs(1.0 - q_prime))
        )
        series = math.exp(min(log_series, 700.0)) if sigma < -1.0 else 0.0
        assert residual <= 2e-12 * max(1.0, abs(det), series)
        checked += 1
    assert checked >= 290


def test_model_json_round_trip():
    models = (
        finite_diag((2.0, 3.0), scale=1.5),
        shifted_linear(0.7, scale=2.0),
        power_spectrum(2.0),
    )
    for model in models:
        back = model_from_json(model_to_json(model))
        assert back == model
    obj = json.loads(model_to_json(models[1]))
    assert obj["kind"] == "shifted_linear"
    assert obj["a"] == 0.7
    with pytest.raises(DomainError):
        model_from_json('{"kind": "mystery"}')
    with pytest.raises(DomainError):
        model_from_json("[1, 2]")


@pytest.mark.parametrize(
    "obj, message",
    (
        ({"kind": "power_spectrum", "alpha": 2.0, "scal": 3.0}, "power_spectrum model has unknown field 'scal'"),
        ({"kind": "finite_diag", "eigenvalues": [2.0, 3.0], "sacle": 2.0}, "finite_diag model has unknown field 'sacle'"),
        ({"kind": "shifted_linear", "a": 1.0, "alpha": 2.0}, "shifted_linear model has unknown field 'alpha'"),
    ),
)
def test_model_from_dict_refuses_unknown_fields(obj, message):
    # each was built with the unknown field dropped
    with pytest.raises(DomainError, match=message):
        model_from_dict(obj)


@pytest.mark.parametrize(
    "obj, message",
    (
        ({"kind": "power_spectrum", "alpha": "2"}, "power_spectrum model field 'alpha' must be a number, got '2'"),
        ({"kind": "shifted_linear", "a": True}, "shifted_linear model field 'a' must be a number, got True"),
        ({"kind": "shifted_linear", "a": 1.0, "scale": False}, "field 'scale' must be a number, got False"),
        ({"kind": "finite_diag", "eigenvalues": [True, 2.0]}, "'eigenvalues' entry 0 must be a number, got True"),
        ({"kind": "finite_diag", "eigenvalues": [2.0, "3"]}, "'eigenvalues' entry 1 must be a number, got '3'"),
        ({"kind": "finite_diag", "eigenvalues": "2.0"}, "'eigenvalues' must be a list, got '2.0'"),
    ),
)
def test_model_from_dict_refuses_non_numbers(obj, message):
    # float() read the strings and booleans as numbers (alpha 2, a = 1.0,
    # the eigenvalue 1.0); a string of eigenvalues is refused by name too
    with pytest.raises(DomainError, match=message):
        model_from_dict(obj)

import json
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from qspectra import zeta
from qspectra.errors import DomainError, PoleError, UnsupportedModelError
from qspectra.spectrum import Spectrum, power_transform, q_logdet
from qspectra.zeta import (
    POLE_EPS,
    bernoulli_numbers,
    finite_diag,
    hurwitz_zeta,
    model_from_dict,
    model_from_json,
    model_pole,
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
    assert model_pole(finite_diag((1.0, 2.0))) is None
    assert model_pole(shifted_linear(2.5)) == 1.0
    assert model_pole(power_spectrum(2.0)) == 0.5


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
    assert zeta._EM_COEF == tuple(float(exact[2 * j] / math.factorial(2 * j)) for j in range(1, 16))


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


def test_riemann_zeta_second_derivative_at_zero():
    # mpmath: zeta''(0) = -2.0063564559085848512...
    assert power_spectrum(1.0).jet0()[2] == pytest.approx(-2.0063564559085848512, rel=1e-15)


def _mp_jet(derivs, log_mu):
    """(Z(0), Z'(0), Z''(0)) of Z(s) = e^(s log_mu) f(s) from f's jet at 0."""
    d0, d1, d2 = derivs
    return d0, d1 + log_mu * d0, d2 + 2 * log_mu * d1 + log_mu**2 * d0


def _jet_models():
    """(model, mpmath jet) for the three kinds, the scale included."""
    rng = np.random.default_rng(29)
    cases = []
    for mu in (0.3, 1.0, 5.0):
        log_mu = mp.log(mu)
        for a in np.geomspace(0.1, 1e4, 9).tolist():
            derivs = [mp.zeta(0, a, k) for k in range(3)]
            cases.append((shifted_linear(a, scale=mu), _mp_jet(derivs, log_mu)))
        for alpha in np.linspace(0.5, 2.5, 9).tolist():
            derivs = [alpha**k * mp.zeta(0, 1, k) for k in range(3)]
            cases.append((power_spectrum(alpha, scale=mu), _mp_jet(derivs, log_mu)))
        eigs = rng.uniform(0.05, 100.0, 200)
        logs = [mp.log(mp.mpf(x) / mu) for x in eigs]
        cases.append((Spectrum(eigs, mu), (len(eigs), -mp.fsum(logs), mp.fsum(v * v for v in logs))))
    # large logarithms of the scale or of an eigenvalue, where the
    # five-point stencil of earlier versions was off by up to 5.4e-4
    for mu in (1e20, 1e100):
        derivs = [mp.zeta(0, 1, k) for k in range(3)]
        cases.append((shifted_linear(1.0, scale=mu), _mp_jet(derivs, mp.log(mu))))
    for eigs, mu in (((1e100, 2.0, 0.5), 1.0), ((1e308, 2.0), 0.5)):
        logs = [mp.log(mp.mpf(x) / mp.mpf(mu)) for x in eigs]
        cases.append((Spectrum(eigs, mu), (len(eigs), -mp.fsum(logs), mp.fsum(v * v for v in logs))))
    return cases


def test_jets_against_mpmath():
    with mp.workdps(30):
        for model, want in _jet_models():
            got = model.jet0()
            # zeta(0) rounded once; zeta'(0) and the band of qdet within
            # 1e-14 max(1, |value|); zeta''(0) within 2e-14
            for k, tol in ((0, 2.0**-53), (1, 1e-14), (2, 2e-14)):
                assert abs(got[k] - want[k]) <= tol * max(1, abs(want[k])), (model, k)
            assert abs(zeta_deriv0(model) - want[1]) <= 1e-14 * max(1, abs(want[1])), model
            for q in (1.0, 1.0 + 5e-9, 1.0 - 5e-9):
                band = -want[1] - (mp.mpf(q) - 1) / 2 * want[2]
                assert abs(qdet_zeta(model, q) - band) <= 1e-14 * max(1, abs(band)), (model, q)


def test_hurwitz_second_derivative_at_zero_against_mpmath():
    rng = np.random.default_rng(31)
    points = np.concatenate((np.geomspace(1e-6, 1e6, 40), rng.uniform(0.01, 20.0, 200)))
    with mp.workdps(30):
        for a in points.tolist():
            want = mp.zeta(0, a, 2)
            got = shifted_linear(a).jet0()[2]
            assert abs(got - want) <= 2e-14 * max(1, abs(want)), a


def test_zeta_differences_beyond_float64_are_refused():
    # Lerch's ln Gamma(a) - ln(2 pi)/2 is finite at a = 1e305, and so is the
    # band value at q = 1; zeta''(0), about -a ln(a)^2, is not
    huge, one = shifted_linear(1e305), shifted_linear(1.0)
    assert zeta_deriv0(huge) == 7.01288453363184e307
    assert qdet_zeta(huge, 1.0) == -7.01288453363184e307
    for q in (1.0 + 1e-9, 1.0 - 1e-9):
        for call in (lambda: qdet_zeta(huge, q), lambda: relative_qdet_zeta(huge, one, q)):
            with pytest.raises(DomainError, match=f"^the zeta determinant is not finite in float64 at q = {q!r}$"):
                call()
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
    rng = np.random.default_rng(41)
    for _ in range(5):
        spec = Spectrum(tuple(rng.uniform(0.5, 5.0, 6)), scale=1.25)
        for q in (-1.0, 0.0, 0.5, 0.99, 1.01, 1.5, 3.0):
            a = qdet_zeta(spec, q)
            b = q_logdet(spec, q)
            assert a == pytest.approx(b, abs=1e-12 * max(1.0, abs(b)))


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
    # inside the classical band the series expansion takes over smoothly
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

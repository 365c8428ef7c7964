import json
import math

import mpmath as mp
import numpy as np
import pytest

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
    # for s < 1 the partial sum cancels against a tail of size
    # (a+N)^(1-s)/|s-1|; that intermediate bounds the float accuracy
    scale = max(1.0, abs(want))
    if s < 1.0:
        scale = max(scale, (a + 50.0) ** (1.0 - s) / abs(s - 1.0))
    assert got == pytest.approx(want, abs=1e-13 * scale)


def test_hurwitz_zeta_special_rows():
    # zeta(0, a) = 1/2 - a and zeta(-1, a) = -(a^2 - a + 1/6)/2: the
    # Bernoulli tail terminates, so these come out near machine exactness
    for a in (0.3, 1.0, 2.5):
        assert hurwitz_zeta(0.0, a) == pytest.approx(0.5 - a, abs=1e-13)
        assert hurwitz_zeta(-1.0, a) == pytest.approx(
            -(a * a - a + 1 / 6) / 2, abs=1e-12
        )
    assert hurwitz_zeta(3.0, 2.5) == pytest.approx(0.1181020258208637, rel=1e-13)
    # a short direct sum keeps the cancelling intermediates small, which
    # is what this tiny negative-s value needs
    assert hurwitz_zeta(-2.5, 0.3, n_direct=10) == pytest.approx(
        -0.00949638093151452, abs=1e-12
    )


def test_hurwitz_zeta_domain_errors():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0 + 0.5 * POLE_EPS, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 1.0, n_direct=0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 1.0, n_direct=49.5)
    # (a + 50)^(1 - s) is beyond float64
    with pytest.raises(DomainError, match="not finite in float64"):
        hurwitz_zeta(-180.0, 1.0)
    # s (s+1) ... overflows where x^(-s-1) has underflowed: the tail stops at
    # the first zero term instead of forming inf * 0
    assert hurwitz_zeta(1e11, 1.0) == 1.0
    assert hurwitz_zeta(1e11, 2.5) == 0.0
    for s in (60.0, 300.0, 1000.0):
        for a in (0.5, 0.9, 1.0, 1.5, 2.5, 10.0):
            want = float(mp.zeta(s, a))
            assert hurwitz_zeta(s, a) == pytest.approx(want, rel=1e-14, abs=0.0), (s, a)


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
    with pytest.raises(PoleError):
        zeta_value(model, 0.5)


def test_zeta_pole_refusal():
    with pytest.raises(PoleError):
        zeta_value(shifted_linear(1.0), 1.0)
    # just outside the guard band evaluates fine
    assert math.isfinite(zeta_value(shifted_linear(1.0), 1.0 + 2 * POLE_EPS))


def test_zeta_deriv0():
    assert zeta_deriv0(shifted_linear(1.0)) == pytest.approx(
        -HALF_LN_2PI, abs=1e-8
    )
    # frozen: mpmath derivative of zeta(s, 0.7) at s = 0
    assert zeta_deriv0(shifted_linear(0.7)) == pytest.approx(
        -0.6580712866730062, abs=1e-8
    )
    # zeta_{k^2}(s) = zeta(2s), so the derivative doubles
    assert zeta_deriv0(power_spectrum(2.0)) == pytest.approx(
        -2.0 * HALF_LN_2PI, abs=1e-8
    )


def test_zeta_deriv0_scale_shift():
    # zeta_{A/mu}(s) = mu^s zeta_A(s) so the derivative gains ln(mu) zeta(0)
    mu = 3.0
    base = shifted_linear(1.0)
    scaled = shifted_linear(1.0, scale=mu)
    want = zeta_deriv0(base) + math.log(mu) * zeta_value(base, 0.0)
    assert zeta_deriv0(scaled) == pytest.approx(want, abs=1e-8)


def test_zeta_differences_beyond_float64_are_refused():
    # every zeta value is finite; the stencil and the quotient overflow
    # (were inf, -inf and nan)
    huge, one = shifted_linear(1e305), shifted_linear(1.0)
    with pytest.raises(DomainError, match=r"^zeta'\(0\) is not finite in float64$"):
        zeta_deriv0(huge)
    for q in (1.0, 1.0 + 1e-9, 1.0 - 1e-9):
        for call in (lambda: qdet_zeta(huge, q), lambda: relative_qdet_zeta(huge, one, q)):
            with pytest.raises(DomainError, match=f"^the zeta determinant is not finite in float64 at q = {q!r}$"):
                call()
    with pytest.raises(DomainError, match="^the zeta determinant is not finite in float64 at q = 1.00000002$"):
        qdet_zeta(shifted_linear(1e307), 1.00000002)


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
    with pytest.raises(PoleError):
        qdet_zeta(shifted_linear(1.0), 2.0)
    with pytest.raises(PoleError):
        qdet_zeta(power_spectrum(2.0), 1.5)


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

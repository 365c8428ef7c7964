import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectra.errors import DomainError
from qspectra.qalgebra import spectral_weight, theta_reparam
from qspectra.spectrum import (
    FiniteDiag,
    Spectrum,
    SpectrumVariation,
    action_variation,
    concatenate,
    effective_action,
    flow_derivative,
    power_transform,
    q_det,
    q_logdet,
    relative_q_logdet,
    spectrum_from_csv,
    spectrum_from_json,
    spectrum_to_csv,
    spectrum_to_json,
    theta_covariance_residual,
)
from qspectra.zeta import power_spectrum, power_transform_model, zeta_value


def _random_spectrum(rng, size=None):
    size = size or int(rng.integers(2, 9))
    return Spectrum(tuple(rng.uniform(0.5, 5.0, size)), 1.0)


def test_spectrum_validation():
    spec = Spectrum((2.0, 3.0), scale=2.0)
    assert len(spec) == 2
    assert spec.dimensionless().tolist() == [1.0, 1.5]
    with pytest.raises(DomainError):
        Spectrum(())
    with pytest.raises(DomainError):
        Spectrum((1.0, -2.0))
    with pytest.raises(DomainError):
        Spectrum((1.0,), scale=0.0)
    with pytest.raises(DomainError):
        Spectrum((math.inf,))


def test_text_is_not_read_as_eigenvalues():
    # a string iterates as its characters: "123" must not become (1, 2, 3)
    for value in ("123", b"123"):
        with pytest.raises(DomainError):
            Spectrum(value)
    with pytest.raises(DomainError):
        spectrum_from_json('{"eigenvalues": "123"}')


def test_q_logdet_values():
    assert q_logdet(Spectrum((1.0, 4.0)), 0.0) == 3.0
    assert q_logdet(Spectrum((2.0, 3.0)), 1.0) == pytest.approx(
        math.log(6.0), rel=1e-15
    )
    # frozen: 2 (sqrt 2 + sqrt 3 - 2)
    assert q_logdet(Spectrum((2.0, 3.0)), 0.5) == pytest.approx(
        2.2925287398839447, rel=1e-14
    )
    assert q_logdet(Spectrum((2.0, 3.0)), 1.7) == pytest.approx(
        1.315663909365103, rel=1e-14
    )


def test_q_logdet_scale_division():
    spec = Spectrum((2.0, 4.0), scale=2.0)
    assert q_logdet(spec, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)


def test_q_logdet_ordering_invariance():
    rng = np.random.default_rng(11)
    eigs = tuple(rng.uniform(0.5, 5.0, 8))
    for q in (0.0, 0.5, 1.7):
        base = q_logdet(Spectrum(eigs), q)
        assert q_logdet(Spectrum(eigs[::-1]), q) == base


def test_q_det_classical_and_clamped():
    spec = Spectrum((2.0, 3.0))
    assert q_det(spec, 1.0).value == pytest.approx(6.0, rel=1e-14)
    # Gamma_0 = -1 hits the positive-part truncation exactly
    res = q_det(Spectrum((0.5, 0.5)), 0.0)
    assert res.value == 0.0 and res.clamped


def test_effective_action_is_q_logdet():
    spec = Spectrum((1.5, 2.5, 3.5))
    assert effective_action(spec, 1.3) == q_logdet(spec, 1.3)


def test_concatenate_folds_scales():
    a = Spectrum((2.0, 4.0), scale=2.0)
    b = Spectrum((3.0,), scale=1.0)
    both = concatenate(a, b)
    assert both.scale == 1.0
    assert tuple(both.eigenvalues.tolist()) == (1.0, 2.0, 3.0)
    for q in (0.0, 1.0, 1.6):
        assert q_logdet(both, q) == pytest.approx(
            q_logdet(a, q) + q_logdet(b, q), abs=1e-13
        )


def test_relative_q_logdet_cancels_reference():
    rng = np.random.default_rng(5)
    spec = _random_spectrum(rng, 6)
    ref = _random_spectrum(rng, 6)
    for q in (0.0, 0.5, 1.0, 2.0):
        assert relative_q_logdet(spec, ref, q) == pytest.approx(
            q_logdet(spec, q) - q_logdet(ref, q), abs=1e-12
        )
    assert relative_q_logdet(spec, spec, 1.4) == 0.0


def test_action_variation_matches_finite_differences():
    rng = np.random.default_rng(17)
    eps = 1e-5
    for q in (0.3, 1.0, 1.7):
        spec = _random_spectrum(rng, 5)
        lam = np.asarray(spec.eigenvalues)
        delta = rng.uniform(-1.0, 1.0, 5)
        delta /= np.linalg.norm(delta)
        analytic = action_variation(spec, tuple(delta), q)
        up = Spectrum(tuple(lam + eps * delta))
        dn = Spectrum(tuple(lam - eps * delta))
        fd = (q_logdet(up, q) - q_logdet(dn, q)) / (2 * eps)
        assert analytic == pytest.approx(fd, abs=1e-7)


def test_action_variation_accepts_variation_type_and_checks_shape():
    spec = Spectrum((1.0, 2.0))
    var = SpectrumVariation((0.1, -0.2))
    assert action_variation(spec, var, 0.5) == action_variation(
        spec, (0.1, -0.2), 0.5
    )
    with pytest.raises(DomainError):
        action_variation(spec, (0.1,), 0.5)
    with pytest.raises(DomainError):
        SpectrumVariation((math.nan,))


def test_non_finite_perturbations_are_refused():
    spec = Spectrum((1.0, 2.0))
    for bad in (math.nan, math.inf, -math.inf):
        for deltas in ((bad, 1.0), np.array([1.0, bad])):
            with pytest.raises(DomainError, match="variation entry"):
                action_variation(spec, deltas, 0.5)
            with pytest.raises(DomainError, match="variation entry"):
                flow_derivative(spec, deltas, 1.5)


def test_non_finite_theta_is_refused_with_a_theta_message():
    spec = Spectrum((1.0, 2.0))
    for theta in (math.nan, math.inf, 0.0):
        with pytest.raises(DomainError, match="theta"):
            power_transform(spec, theta)
        with pytest.raises(DomainError, match="theta"):
            theta_reparam(1.5, theta)
        with pytest.raises(DomainError, match="theta"):
            power_transform_model(power_spectrum(1.0), theta)
        with pytest.raises(DomainError, match="theta"):
            theta_covariance_residual(spec, 1.5, theta)


def test_action_variation_respects_scale():
    # w(lambda/mu) and delta/mu both carry the scale
    spec = Spectrum((2.0, 4.0), scale=2.0)
    folded = Spectrum((1.0, 2.0), scale=1.0)
    deltas = (0.3, -0.1)
    folded_deltas = tuple(d / 2.0 for d in deltas)
    for q in (0.4, 1.5):
        assert action_variation(spec, deltas, q) == pytest.approx(
            action_variation(folded, folded_deltas, q), rel=1e-13
        )


def test_flow_derivative_alias():
    spec = Spectrum((1.0, 3.0))
    assert flow_derivative(spec, (0.2, 0.1), 1.2) == action_variation(
        spec, (0.2, 0.1), 1.2
    )


def test_power_transform():
    spec = Spectrum((2.0, 8.0), scale=2.0)
    powered = power_transform(spec, 2.0)
    assert tuple(powered.eigenvalues.tolist()) == (1.0, 16.0)
    assert powered.scale == 1.0
    inverse = power_transform(spec, -1.0)
    assert tuple(inverse.eigenvalues.tolist()) == (1.0, 0.25)
    with pytest.raises(DomainError):
        power_transform(spec, 0.0)


def test_theta_covariance_residual_small():
    rng = np.random.default_rng(23)
    for _ in range(10):
        spec = _random_spectrum(rng)
        for q in (0.3, 0.7, 1.2, 2.4):
            for theta in (-2.0, -0.5, 0.5, 3.0):
                gamma = q_logdet(spec, theta_reparam(q, theta))
                res = theta_covariance_residual(spec, q, theta)
                assert res <= 1e-11 * (1.0 + abs(gamma))


def test_theta_inversion_duality():
    rng = np.random.default_rng(29)
    for _ in range(10):
        spec = _random_spectrum(rng)
        inverse = power_transform(spec, -1.0)
        for q in (0.3, 1.2, 1.9):
            assert q_logdet(spec, 2.0 - q) == pytest.approx(
                -q_logdet(inverse, q), abs=1e-11
            )


def test_spectral_weight():
    assert spectral_weight(1.0, 1.7) == 1.0
    assert spectral_weight(0.5, 2.0) == 4.0
    assert spectral_weight(2.0, 1.0) == 0.5
    assert spectral_weight(3.0, 0.0) == 1.0
    with pytest.raises(DomainError):
        spectral_weight(0.0, 1.0)
    with pytest.raises(DomainError):
        spectral_weight(-2.0, 1.0)


def test_json_round_trip():
    spec = Spectrum((2.0, 3.0, 0.125), scale=1.5)
    text = spectrum_to_json(spec)
    back = spectrum_from_json(text)
    assert back == spec
    assert json.loads(text)["scale"] == 1.5
    with pytest.raises(DomainError):
        spectrum_from_json("[1, 2]")


def test_spectrum_json_is_the_untagged_finite_diag_model():
    spec = spectrum_from_json('{"kind": "finite_diag", "eigenvalues": [2.0, 3.0], "scale": 1.5}')
    assert type(spec) is FiniteDiag and spec == Spectrum((2.0, 3.0), 1.5)
    # another kind tag is refused, not overridden, and the fields are checked
    for text, message in (
        ('{"kind": "shifted_linear", "a": 1.0}', "no kind tag other than finite_diag"),
        ('{"eigenvalues": [2.0, 3.0], "sacle": 2.0}', "finite_diag model has unknown field 'sacle'"),
        ('{"scale": 2.0}', "finite_diag model needs eigenvalues"),
    ):
        with pytest.raises(DomainError, match=message):
            spectrum_from_json(text)


def test_csv_round_trip_folds_scale():
    spec = Spectrum((2.0, 3.0), scale=2.0)
    text = spectrum_to_csv(spec)
    assert text == "1\n1.5\n"
    back = spectrum_from_csv(text)
    assert tuple(back.eigenvalues.tolist()) == (1.0, 1.5)
    assert back.scale == 1.0


def test_csv_preserves_full_precision():
    spec = Spectrum((math.pi, 1.0 / 3.0))
    back = spectrum_from_csv(spectrum_to_csv(spec))
    assert tuple(back.eigenvalues.tolist()) == tuple(spec.eigenvalues.tolist())


def test_csv_parse_error_names_line():
    with pytest.raises(DomainError, match="line 2"):
        spectrum_from_csv("1.0\nnot-a-number\n")


def test_csv_refuses_two_numbers_on_one_line():
    with pytest.raises(DomainError, match="line 3: not a number: '0.5 0.7'"):
        spectrum_from_csv("1.0\n\n0.5 0.7\n2.0\n")


# ---------------------------------------------------------------------------
# representation: one read-only float64 array


def test_eigenvalues_are_a_read_only_array():
    spec = Spectrum((2.0, 3.0), scale=2.0)
    assert isinstance(spec.eigenvalues, np.ndarray)
    assert spec.eigenvalues.dtype == np.float64
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 5.0
    assert spec.dimensionless().tolist() == [1.0, 1.5]


def test_the_callers_array_is_copied_not_aliased():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    spec = Spectrum(values)
    strided = Spectrum(values[::2])
    values[:] = 9.0
    assert spec.eigenvalues.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert strided.eigenvalues.tolist() == [1.0, 3.0]
    assert values.flags.writeable


def test_equality_and_hash_agree():
    a = Spectrum((2.0, 3.0), scale=1.5)
    b = Spectrum(np.array([2.0, 3.0]), scale=1.5)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Spectrum((2.0, 3.0), scale=1.0)
    assert a != Spectrum((2.0, 3.5), scale=1.5)
    assert a != Spectrum((2.0, 3.0, 4.0), scale=1.5)
    # one finite class: Spectrum is a second name for FiniteDiag
    assert Spectrum is FiniteDiag
    assert a == FiniteDiag((2.0, 3.0), scale=1.5) and hash(a) == hash(FiniteDiag((2.0, 3.0), scale=1.5))


positive_floats = st.floats(min_value=5e-324, max_value=1e300)


@settings(deadline=None)
@given(values=st.lists(positive_floats, min_size=1, max_size=30), scale=st.sampled_from((1.0, 0.3, 7.0)))
def test_csv_writer_is_the_per_line_format(values, scale):
    spec = Spectrum(values, scale)
    if min(values) / scale == 0.0:  # a ratio rounds to 0: the file would not read back
        with pytest.raises(DomainError, match="lambda / scale leaves float64"):
            spectrum_to_csv(spec)
        return
    per_line = "\n".join(f"{v:.17g}" for v in spec.dimensionless().tolist()) + "\n"
    assert spectrum_to_csv(spec) == per_line


line_formats = st.sampled_from(("{!r}", "{:.17g}", "{:.6e}", "  {}\t", "{:.3f}", "+{}"))


@settings(deadline=None)
@given(
    values=st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=30),
    fmt=line_formats,
    blank_after=st.sets(st.integers(0, 29), max_size=3),
    newline=st.sampled_from(("\n", "\r\n")),
)
def test_csv_reader_is_per_line_float(values, fmt, blank_after, newline):
    lines = []
    for i, v in enumerate(values):
        lines.append(fmt.format(v))
        if i in blank_after:
            lines.append(" ")
    text = newline.join(lines) + newline
    expected = [float(line) for line in text.splitlines() if line.strip()]
    if min(expected) <= 0.0:  # a short format can round a tiny value to 0
        with pytest.raises(DomainError):
            spectrum_from_csv(text)
        return
    got = spectrum_from_csv(text).eigenvalues.tolist()
    assert [v.hex() for v in got] == [v.hex() for v in expected]


# ---------------------------------------------------------------------------
# aggregates refuse a value beyond float64


def test_aggregate_overflow_is_refused_not_returned():
    spec = Spectrum((1e300, 2.0))
    with pytest.raises(DomainError, match="q_logdet overflows float64 at q = -1.0"):
        q_logdet(spec, -1.0)
    with pytest.raises(DomainError, match="overflows float64 at q = 2.0"):
        action_variation(Spectrum((1e-200, 2.0)), (1.0, 1.0), 2.0)
    with pytest.raises(DomainError, match="overflows float64 at s = -2.0"):
        FiniteDiag((1e300, 2.0)).zeta(-2.0)
    # finite terms whose sum overflows
    with pytest.raises(DomainError, match="q_logdet overflows float64 at q = -1.0"):
        q_logdet(Spectrum((1.5e154,) * 4), -1.0)
    # a ratio lambda / scale beyond float64, or rounded to 0, is refused by
    # every operation that reads the ratios (was inf or 0 with a RuntimeWarning)
    for eigenvalues, scale in (((1e308, 2.0), 0.5), ((5e-324, 2.0), 7.0)):
        spec = Spectrum(eigenvalues, scale)
        for op in (
            lambda: q_logdet(spec, 0.5),
            lambda: action_variation(spec, (1.0, 1.0), 0.5),
            lambda: power_transform(spec, 1.0),
            lambda: spectrum_to_csv(spec),
        ):
            message = f"^a ratio lambda / scale leaves float64 at scale = {scale}$"
            with pytest.raises(DomainError, match=message):
                op()
        # the zeta function reads the raw eigenvalues and stays defined
        assert math.isfinite(zeta_value(spec, 0.5))


def test_power_map_beyond_float64_is_refused():
    for eigenvalues, theta in (((1e300, 2.0), 2.0), ((1e-300, 2.0), 2.0), ((1e-300, 2.0), -2.0)):
        with pytest.raises(DomainError, match=rf"power map A\^theta leaves float64 at theta = {theta}"):
            power_transform(Spectrum(eigenvalues), theta)

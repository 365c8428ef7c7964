import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectra import spectrum
from qspectra.errors import DomainError
from qspectra.g17 import _G17_BLOCK as G17_BLOCK
from qspectra.qalgebra import _BLOCK, exact_sum, q_log_array, spectral_weight, theta_reparam
from qspectra.spectrum import (
    FiniteDiag,
    Spectrum,
    action_variation,
    concatenate,
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
from qspectra.zeta import model_from_dict, model_from_json, power_spectrum, power_transform_model, shifted_linear, zeta_value


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


def test_a_finite_spectrum_is_a_truncated_shifted_linear_model():
    # lambda_k = a + k, k < N: the finite sum is the relative determinant of
    # two Hurwitz models, since zeta(0, a) - zeta(0, a + N) = N. The q draws
    # cover both model routes: the regularised sum for q in [0, 1.5] and the
    # Hurwitz quotient elsewhere; q = 2 is the pole and the band around 1 is
    # left out. Measured at most 1.04e-14 of max(1, |value|) over 20 seeds of
    # this grid (the quotient route at N = 1, a = 0.3), within qdet_zeta's
    # stated bound; the bound allows 2e-14.
    rng = np.random.default_rng(44)
    qs = [*rng.uniform(-3.0, 3.5, 12).tolist(), 0.0, 1.0, 1.5]
    for a in (0.3, 1.0, 2.5, 7.25):
        for n in (1, 10, 129, 1000, 20000):
            spec = Spectrum(a + np.arange(n))
            for q in qs:
                assert q != 2.0 and (q == 1.0 or abs(q - 1.0) >= 1e-8)
                want = relative_q_logdet(shifted_linear(a), shifted_linear(a + n), q)
                got = q_logdet(spec, q)
                assert abs(got - want) <= 2e-14 * max(1.0, abs(want)), (a, n, q, got, want)


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
    assert action_variation(spec, [0.1, -0.2], 0.5) == action_variation(
        spec, np.array([0.1, -0.2]), 0.5
    )
    with pytest.raises(DomainError, match="variation has 1 entries"):
        action_variation(spec, (0.1,), 0.5)
    with pytest.raises(DomainError, match="variation entry 0 must be finite"):
        action_variation(spec, (math.nan,), 0.5)


def test_non_finite_perturbations_are_refused():
    spec = Spectrum((1.0, 2.0))
    for bad in (math.nan, math.inf, -math.inf):
        for deltas in ((bad, 1.0), np.array([1.0, bad])):
            with pytest.raises(DomainError, match="variation entry"):
                action_variation(spec, deltas, 0.5)
            with pytest.raises(DomainError, match="variation entry"):
                action_variation(spec, deltas, 1.5)


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


def _assert_json_is_json_dumps(eigenvalues, scale: float = 1.0) -> None:
    """spectrum_to_json writes what json.dumps writes; a failure shows the
    text around the first byte that differs."""
    spec = Spectrum(eigenvalues, scale)
    text = spectrum_to_json(spec)
    expected = json.dumps({"eigenvalues": spec.eigenvalues.tolist(), "scale": spec.scale})
    if text != expected:
        at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
        pytest.fail(f"byte {at}: {text[at - 40 : at + 40]!r} against {expected[at - 40 : at + 40]!r}")


def _digits(x, n: int) -> np.ndarray:
    return np.array([float("%.*g" % (n, v)) for v in np.asarray(x, dtype=float).tolist()])


@pytest.mark.parametrize("scale", (1.0, 1.5, 1e-300))
def test_json_text_is_json_dumps_on_seeded_laws(scale):
    rng = np.random.default_rng(41)
    _assert_json_is_json_dumps(np.round(np.exp(rng.uniform(math.log(0.05), math.log(50.0), 100_000)), 6), scale)
    _assert_json_is_json_dumps(_digits(10.0 ** rng.uniform(-8.0, 20.0, 30_000), 3), scale)
    _assert_json_is_json_dumps(np.exp(rng.uniform(-20.0, 20.0, 30_000)), scale)


def test_json_text_is_json_dumps_on_edge_values():
    p = np.array([2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
    edges = np.array([1e-5, 1e-4, 9.999999999999999e14, 1e15, 1e16, 1e17, 5e-324, 2.2250738585072014e-308])
    with np.errstate(over="ignore"):
        x = np.concatenate([p, edges, np.nextafter(p, 0.0), np.nextafter(p, math.inf), np.nextafter(edges, 0.0)])
    # the two neighbours that leave the positive doubles: 0 and inf
    _assert_json_is_json_dumps(x[(x > 0.0) & (x < math.inf)])
    _assert_json_is_json_dumps([1.7976931348623157e308, 4e-320, 1e-310])
    decimals = 10.0 ** np.random.default_rng(42).uniform(-5.5, 16.5, 20_000)
    for n in (15, 16, 17):
        _assert_json_is_json_dumps(_digits(decimals, n), 1.5)
    text = spectrum_to_json(Spectrum([0.05, 123.0, 0.0001, 1e-05, 1e16], 1.5))
    assert text == '{"eigenvalues": [0.05, 123.0, 0.0001, 1e-05, 1e+16], "scale": 1.5}'


@pytest.mark.parametrize("size", (1, G17_BLOCK - 1, G17_BLOCK, G17_BLOCK + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1))
def test_json_text_is_json_dumps_at_block_sizes(size):
    x = np.round(np.random.default_rng(size).lognormal(0.0, 2.0, size), 6)
    x[::7] = np.random.default_rng(size).lognormal(0.0, 2.0, x[::7].size)
    _assert_json_is_json_dumps(x, 1.5)


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


# the readers against their line-by-line and json.loads routes: the same
# eigenvalue bits and scale, or the same exception type and message


def _csv_line_by_line(text: str) -> FiniteDiag:
    lines = text.splitlines()
    values = []
    for lineno, line in enumerate(lines, start=1):
        entry = line.strip()
        if entry:
            try:
                values.append(float(entry))
            except ValueError as exc:
                raise DomainError(f"line {lineno}: not a number: {entry!r}") from exc
    return FiniteDiag(values, 1.0)


def _json_loads_whole(text: str) -> FiniteDiag:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("kind", "finite_diag") != "finite_diag":
        raise DomainError("spectrum JSON must be an object with no kind tag other than finite_diag")
    return model_from_dict({"kind": "finite_diag", **obj})


def _outcome(reader, text: str):
    try:
        spec = reader(text)
    except Exception as exc:
        return type(exc), str(exc)
    return spec.eigenvalues.tobytes(), spec.scale


def _assert_reads_as(reader, reference, text: str) -> None:
    assert _outcome(reader, text) == _outcome(reference, text)


_CSV_TEXTS = (
    ".5\n5.\n007.5\n",
    "1.5\n0.0\n",
    "12345678.12345678\n87654321.8765432\n",
    "123456789.5\n1.123456789\n",
    "90071992.54740993\n9007199.254740993\n90071992.54740992\n",
    "1.5\n\n2.5\n",
    "1.5\r\n2.5\r\n",
    "1.5\n2.5",
    " 1.5\n",
    "+1.5\n",
    "1_0.5\n",
    "1e3\n",
    "1.5\nnan\n",
    "\u0661.\u0665\n",
    "1.5\nabc\n",
    "\n",
    "",
)


@pytest.mark.parametrize("text", _CSV_TEXTS)
def test_csv_reader_is_the_line_by_line_route(text):
    _assert_reads_as(spectrum_from_csv, _csv_line_by_line, text)


def test_csv_reader_on_seeded_and_long_texts():
    rng = np.random.default_rng(29)
    six = list(map(repr, np.round(np.exp(rng.uniform(math.log(0.05), math.log(50.0), 100_000)), 6).tolist()))
    for text in ("\n".join(six) + "\n", "\n".join(six), "\n".join(six) + "\n1.5x\n"):
        _assert_reads_as(spectrum_from_csv, _csv_line_by_line, text)
    with pytest.raises(DomainError, match="^line 100001: not a number: '1.5x'$"):
        spectrum_from_csv("\n".join(six) + "\n1.5x\n")
    # spectrum_to_csv's own 17-digit text takes the line-by-line route
    spec = Spectrum(np.exp(rng.uniform(-3.0, 3.0, 10_000)), 1.0)
    _assert_reads_as(spectrum_from_csv, _csv_line_by_line, spectrum_to_csv(spec))
    assert spectrum_from_csv(spectrum_to_csv(spec)) == spec


@pytest.mark.parametrize("size", (2**16 - 3, 2**16 - 1, 2**16, 2**16 + 1, 2**16 + 3))
def test_csv_reader_at_the_block_size(size):
    # six-decimal lines up to size bytes, the last token cut or padded to fit
    rng = np.random.default_rng(size)
    lines = map(repr, np.round(np.exp(rng.uniform(math.log(0.05), math.log(50.0), size // 4)), 6).tolist())
    text = "\n".join(lines)[: size - 8]
    text = text[: text.rindex("\n") + 1]
    text += "1." + "5" * (size - len(text) - 3) + "\n"
    assert len(text) == size
    _assert_reads_as(spectrum_from_csv, _csv_line_by_line, text)
    _assert_reads_as(spectrum_from_csv, _csv_line_by_line, text[:-1])


_JSON_TEXTS = (
    '{"eigenvalues": [1.5, 2.25], "scale": 1.5}',
    '{"scale": 0.5, "eigenvalues": [1.5, 2.25], "kind": "finite_diag"}',
    '{"eigenvalues": [1.5], "eigenvalues": [2.5]}',
    '{"eigenvalues": [1.5], "eigenvalues": []}',
    '{"eigenvalues": [1.5], "eigenvalue\\u0073": [2.5]}',
    '{"eigenvalues": [1.5], "eigenvalue\\u0073": []}',
    '{"eigenvalue\\u0073": [2.5], "eigenvalues": [1.5]}',
    '{"eigenvalues": [1.5], "x": {"eigenvalues": [2.5]}}',
    '{"x": {"eigenvalues": [2.5]}}',
    '{"x": "\\"eigenvalues\\": [2.5]"}',
    '{"eigenvalues": [01.5]}',
    '{"eigenvalues": [-0.5, 1.5]}',
    '{"eigenvalues": [1.5e3]}',
    '{"eigenvalues": [NaN]}',
    '{"eigenvalues": [1.5,2.5]}',
    '{"eigenvalues": []}',
    '{"eigenvalues": [1.5, 2.5, ]}',
    '{"eigenvalues": [1.5, 2.5]',
    '{"eigenvalues": [1.5, 2.5], "scale": }',
    '\ufeff{"eigenvalues": [1.5, 2.5]}',
    '{"eigenvalues": [1.5, 2.5], "scale": true}',
    '{"eigenvalues": [1.5, 2.5], "sacle": 2.0}',
    '{"eigenvalues": [1.5, 0.0], "scale": 2.0}',
    '{"eigenvalues": [1.5, 2.5], "kind": "shifted_linear"}',
    '[1.5, 2.5]',
    '{"eigenvalues": [1.5, 2.5]} 3',
    '[' * 100_000,
    '{bad',
)


@pytest.mark.parametrize("text", _JSON_TEXTS)
def test_json_reader_is_the_json_loads_route(text):
    _assert_reads_as(spectrum_from_json, _json_loads_whole, text)


def test_json_reader_on_seeded_texts():
    rng = np.random.default_rng(30)
    for law in (np.round(np.exp(rng.uniform(math.log(0.05), math.log(50.0), 100_000)), 6), np.exp(rng.normal(size=1000))):
        for scale in (1.0, 0.5, 1e-300):
            text = spectrum_to_json(Spectrum(law, scale))
            _assert_reads_as(spectrum_from_json, _json_loads_whole, text)
            assert spectrum_from_json(text) == Spectrum(law, scale)


def test_json_readers_refuse_malformed_text_with_domain_error():
    for reader in (spectrum_from_json, model_from_json):
        with pytest.raises(DomainError, match="^invalid JSON: maximum recursion depth exceeded"):
            reader("[" * 100_000)
        with pytest.raises(DomainError, match="^invalid JSON: Expecting property name enclosed in double quotes"):
            reader("{bad")


# ---------------------------------------------------------------------------
# representation: one read-only float64 array


def test_eigenvalues_are_a_read_only_array():
    spec = Spectrum((2.0, 3.0), scale=2.0)
    assert isinstance(spec.eigenvalues, np.ndarray)
    assert spec.eigenvalues.dtype == np.float64
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 5.0
    assert spec.dimensionless().tolist() == [1.0, 1.5]


@pytest.mark.parametrize("scale", (1.0, 0.3))
def test_aggregates_keep_their_bits_and_ratios_refuse_writes(scale):
    rng = np.random.default_rng(17)
    eigs = rng.uniform(0.05, 50.0, 4000)
    deltas = rng.normal(size=eigs.size)
    spec = Spectrum(eigs, scale)
    ratios = spec.dimensionless()
    with pytest.raises(ValueError):
        ratios[0] = 5.0
    assert spec.dimensionless().tolist() == (eigs / scale).tolist()
    for q in (-1.5, 0.0, 0.5, 1.0, 2.5):
        # each aggregate as one fresh expression over a fresh ratio array
        x = eigs / scale
        terms = np.log(x) if q == 1.0 else np.expm1((1.0 - q) * np.log(x)) / (1.0 - q)
        assert q_logdet(spec, q).hex() == math.fsum(terms.tolist()).hex()
        weighted = x ** (-q) * (deltas / scale)
        assert action_variation(spec, deltas, q).hex() == math.fsum(weighted.tolist()).hex()


def test_the_callers_array_is_copied_not_aliased():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    spec = Spectrum(values)
    strided = Spectrum(values[::2])
    values[:] = 9.0
    assert spec.eigenvalues.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert strided.eigenvalues.tolist() == [1.0, 3.0]
    assert values.flags.writeable


def test_the_library_hands_its_new_arrays_over_without_a_copy(monkeypatch):
    rng = np.random.default_rng(37)
    values = np.round(rng.uniform(0.05, 50.0, 3000), 6)
    read = []

    def reading(*args, **kwargs):
        read.append(g17_read_decimals(*args, **kwargs))
        return read[-1]

    g17_read_decimals = spectrum.read_decimals
    monkeypatch.setattr(spectrum, "read_decimals", reading)
    csv_text = "\n".join(map(repr, values.tolist()))
    json_text = json.dumps({"eigenvalues": values.tolist(), "scale": 1.5})
    for reader, text in ((spectrum_from_csv, csv_text), (spectrum_from_json, json_text)):
        # the reader's array is the operator's, now read-only
        spec = reader(text)
        assert spec.eigenvalues is read.pop() and not spec.eigenvalues.flags.writeable
        assert spec.eigenvalues.tolist() == values.tolist()
    spec = Spectrum(values, 2.0)
    # the CSV readers' other routes: np.array of 17-digit lines, and a line by line list
    texts = (spectrum_to_csv(spec), csv_text + "\n\n")
    built = (power_transform(spec, 0.5), concatenate(spec, spec), concatenate(spec), *map(spectrum_from_csv, texts))
    for arr in (b.eigenvalues for b in built):
        assert arr.flags.owndata and not arr.flags.writeable
        assert not np.shares_memory(arr, values) and not np.shares_memory(arr, spec.dimensionless())
    # a caller's array is still copied, and stays the caller's to write
    assert not np.shares_memory(spec.eigenvalues, values) and values.flags.writeable
    # the checks are the constructor's
    with pytest.raises(DomainError, match="^eigenvalue 1 must be a finite positive number, got 0.0$"):
        FiniteDiag._owning(np.array([1.0, 0.0]))
    with pytest.raises(DomainError, match="^eigenvalues entry 0 must be finite, got inf$"):
        FiniteDiag._owning(np.array([math.inf, 1.0]))
    with pytest.raises(DomainError, match="scale"):
        FiniteDiag._owning(np.array([1.0]), -1.0)


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


# ---------------------------------------------------------------------------
# qdet keeps the logs and the sum at each q


# the band point, +-0, near 2, negative, and |q| where terms overflow to +-inf
QDET_QS = (1.0, 1.0 + 5e-9, 0.0, -0.0, 2.0 - 1e-12, 1.9, -1.5, 0.37, 400.0, -400.0)


def _cold_qdet(spec: FiniteDiag, q: float) -> float:
    return exact_sum(q_log_array(spec.dimensionless(), q))


@pytest.mark.parametrize("size", (1, 512, 513, _BLOCK - 1, _BLOCK + 1))
@pytest.mark.parametrize("scale", (1.0, 1.37, 1e100, 1e-100))
def test_warm_qdet_is_the_cold_sum_bit_for_bit(size, scale):
    rng = np.random.default_rng([23, size])
    ratios = np.exp(rng.uniform(-7.0, 14.0, size))
    ratios[0] = 1e-3  # one ratio below 1, where q = 400 overflows
    # each q twice, the second time from the memo, and in two orders, so
    # that the logs are first taken at a deformed q and at q = 1
    for qs in (QDET_QS + QDET_QS, QDET_QS[::-1]):
        spec = FiniteDiag(ratios * scale, scale)
        for q in qs:
            assert spec.qdet(q).hex() == _cold_qdet(spec, q).hex()
    assert spec.qdet(400.0) == -math.inf and (size == 1 or spec.qdet(-400.0) == math.inf)
    assert not spec._logs.flags.writeable
    # the band point reads qdet(1.0), from the memo once it is there
    assert q_logdet(spec, 1.0 + 5e-9) == q_logdet(spec, 1.0) == spec.qdet(1.0)


def test_qdet_errors_are_raised_on_every_call_and_never_kept():
    spec = Spectrum((1e308, 2.0), 0.5)  # a ratio lambda / scale overflows
    for _ in range(3):
        for op in (lambda: spec.qdet(0.5), lambda: spec.qdet(1.0), lambda: q_logdet(spec, 0.5)):
            with pytest.raises(DomainError, match="a ratio lambda / scale leaves float64"):
                op()
    assert spec._logs is None and spec._qdets == {}
    spec = Spectrum((1e300, 2.0))  # the sum overflows: qdet's inf is kept, q_logdet refuses it
    for _ in range(3):
        with pytest.raises(DomainError, match="q_logdet overflows float64 at q = -1.0"):
            q_logdet(spec, -1.0)
        assert spec.qdet(-1.0) == math.inf
    assert spec._qdets == {-1.0: math.inf}


def test_warm_caches_leave_the_operator_unchanged():
    values = np.random.default_rng(29).uniform(0.1, 10.0, 600)
    cold, warm = Spectrum(values, 1.37), Spectrum(values, 1.37)
    before = (repr(warm), hash(warm), spectrum_to_json(warm), pickle.dumps(warm))
    # the ratios are divided anew on each call, into a read-only array
    ratios = warm.dimensionless()
    assert warm.dimensionless() is not ratios and not ratios.flags.writeable
    assert ratios.tolist() == (values / 1.37).tolist()
    for q in QDET_QS:
        warm.qdet(q)
    text, variation = spectrum_to_csv(warm), action_variation(warm, values, 0.5)
    assert not hasattr(warm, "_ratios") and warm._logs is not None and warm._qdets
    assert warm == cold and (repr(warm), hash(warm), spectrum_to_json(warm), pickle.dumps(warm)) == before
    for twin in (copy.copy(warm), copy.deepcopy(warm), pickle.loads(pickle.dumps(warm))):
        # a copy starts cold and takes the same values
        assert twin == warm and twin._logs is None and twin._qdets == {}
        assert pickle.dumps(twin) == before[-1]
        assert [twin.qdet(q) for q in QDET_QS] == [warm.qdet(q) for q in QDET_QS]
        assert spectrum_to_csv(twin) == text and action_variation(twin, values, 0.5) == variation
    assert warm._qdets is not copy.copy(warm)._qdets


def test_the_qdet_memo_keeps_its_bound():
    spec = Spectrum(np.random.default_rng(31).uniform(0.1, 10.0, 700))
    qs = np.linspace(-2.0, 3.0, 3 * spectrum._QDETS + 5).tolist()
    for q in qs + qs[::-1]:
        assert spec.qdet(q).hex() == _cold_qdet(spec, q).hex()
        assert 1 <= len(spec._qdets) <= spectrum._QDETS


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

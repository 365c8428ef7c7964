"""Property tests of the shared argument and result checks.

Every probability vector, simplex point, perturbation, partition and
deformation index goes through one check per argument kind. Valid input
must come out bit for bit as float() or int() reads it; text,
non-finite, empty and nested input must be refused with DomainError. A numeric result either is a finite
float or is refused with DomainError or PoleError.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qspectra import combinatorics as comb
from qspectra import errors
from qspectra import geometry as geom
from qspectra import qalgebra as qa
from qspectra import spectrum as spc
from qspectra import zeta as zt
from qspectra.combinatorics import Partition, tsallis_entropy
from qspectra.errors import DomainError, PoleError, finite, finite_vector
from qspectra.geometry import potential, volume_element
from qspectra.qalgebra import ClampedValue, q_prod
from qspectra.spectrum import FiniteDiag, Spectrum, action_variation, q_logdet
from qspectra.zeta import (
    PowerSpectrum,
    ShiftedLinear,
    qdet_zeta,
    relative_qdet_zeta,
    zeta_deriv0,
    zeta_value,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
finite_vectors = st.lists(finite_floats, min_size=1, max_size=12)
weights = st.lists(
    st.floats(min_value=1e-150, max_value=1e150), min_size=1, max_size=12
)
containers = st.sampled_from((list, tuple, np.array, iter))


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _normalised(ws: list[float]) -> list[float]:
    total = math.fsum(ws)
    p = [w / total for w in ws]
    assume(abs(math.fsum(p) - 1.0) <= 1e-12)
    return p


@settings(deadline=None)
@given(finite_vectors, containers)
def test_finite_vectors_pass_unchanged(values, container):
    want = _bits(values)
    assert _bits(finite_vector("v", container(values))) == want


@settings(deadline=None)
@given(weights, containers)
def test_normalised_vectors_pass_unchanged(ws, container):
    # every container gives the value of the list itself; a small q keeps
    # the volume of points with entries near 1e-300 inside float64
    p = _normalised(ws)
    assert tsallis_entropy(container(p), 2.0) == tsallis_entropy(p, 2.0)
    if len(p) >= 2:
        assert volume_element(container(p), 0.01) == volume_element(p, 0.01)


@settings(deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=8))
def test_positive_int_tuples_pass_unchanged(parts):
    part = Partition.from_parts(tuple(parts))
    assert part.parts == tuple(parts)
    assert part.n == sum(parts)
    assert all(type(v) is int for v in part.parts)


def _vector_checks():
    spec = Spectrum((1.0, 2.0))
    return (
        lambda v: finite_vector("v", v),
        lambda v: action_variation(spec, v, 0.5),
        lambda v: tsallis_entropy(v, 2.0),
        lambda v: potential(v, 1.0),
        Partition.from_parts,
    )


@settings(deadline=None)
@given(st.one_of(st.text(), st.binary()))
def test_text_is_refused(text):
    for check in _vector_checks():
        with pytest.raises(DomainError):
            check(text)


@settings(deadline=None)
@given(
    weights,
    st.sampled_from((math.nan, math.inf, -math.inf)),
    st.integers(min_value=0),
)
def test_non_finite_entries_are_refused(ws, bad, where):
    p = _normalised(ws)
    p[where % len(p)] = bad
    for check in _vector_checks():
        with pytest.raises(DomainError):
            check(p)


@settings(deadline=None)
@given(st.lists(finite_vectors, min_size=1, max_size=4))
def test_nested_input_is_refused(rows):
    for check in _vector_checks():
        with pytest.raises(DomainError):
            check(rows)


def test_empty_input_is_refused():
    for empty in ([], (), np.array([]), iter(())):
        for check in _vector_checks():
            with pytest.raises(DomainError):
                check(empty)


# ---------------------------------------------------------------------------
# the deformation index: a finite float, or refused

_SPEC, _PART, _P = Spectrum((1.0, 2.0)), Partition.from_parts((2, 1)), (0.25, 0.75)
# every public function that takes q, called with q alone varying
Q_CALLS = {
    "q_log": lambda q: qa.q_log(2.0, q),
    "q_exp": lambda q: qa.q_exp(0.5, q),
    "q_mul": lambda q: qa.q_mul(2.0, 3.0, q),
    "q_div": lambda q: qa.q_div(2.0, 3.0, q),
    "q_prod": lambda q: qa.q_prod((2.0, 3.0), q),
    "theta_reparam": lambda q: qa.theta_reparam(q, 2.0),
    "spectral_weight": lambda q: qa.spectral_weight(2.0, q),
    "q_logdet": lambda q: spc.q_logdet(_SPEC, q),
    "q_det": lambda q: spc.q_det(_SPEC, q),
    "relative_q_logdet": lambda q: spc.relative_q_logdet(_SPEC, _SPEC, q),
    "action_variation": lambda q: spc.action_variation(_SPEC, (1.0, 0.0), q),
    "theta_covariance_residual": lambda q: spc.theta_covariance_residual(_SPEC, q, 2.0),
    "q_factorial_log": lambda q: comb.q_factorial_log(5, q),
    "q_factorial": lambda q: comb.q_factorial(5, q),
    "q_multinomial_log": lambda q: comb.q_multinomial_log(_PART, q),
    "tsallis_entropy": lambda q: comb.tsallis_entropy(_P, q),
    "asymptotic_leading": lambda q: comb.asymptotic_leading(8, _P, q),
    "asymptotic_remainder": lambda q: comb.asymptotic_remainder(_PART, q),
    "potential": lambda q: geom.potential(_P, q),
    "potential_hessian": lambda q: geom.potential_hessian(_P, q),
    "induced_metric": lambda q: geom.induced_metric(_P, q),
    "volume_element": lambda q: geom.volume_element(_P, q),
    "grid_field": lambda q: geom.grid_field(3, q, 1e-3),
    "qdet_zeta": lambda q: zt.qdet_zeta(ShiftedLinear(1.5), q),
    "relative_qdet_zeta": lambda q: zt.relative_qdet_zeta(ShiftedLinear(1.5), PowerSpectrum(2.0), q),
    "theta_covariance_zeta": lambda q: zt.theta_covariance_zeta(PowerSpectrum(2.0), q, 2.0),
}


@pytest.mark.parametrize(
    "bad", (math.nan, math.inf, -math.inf, None, "x", 10**400),
    ids=("nan", "inf", "-inf", "None", "text", "int-beyond-float64"),
)
@pytest.mark.parametrize("name", Q_CALLS)
def test_q_that_is_not_a_finite_real_is_refused(name, bad):
    with pytest.raises(DomainError, match="^deformation index must be finite, got "):
        Q_CALLS[name](bad)
    # with a finite q the same call succeeds, so the refusal was q's
    assert isinstance(Q_CALLS[name](0.5), (float, tuple, np.ndarray, geom.MetricField))


@pytest.mark.parametrize(
    "bad", (math.nan, math.inf, -math.inf, None, "x", 10**400),
    ids=("nan", "inf", "-inf", "None", "text", "int-beyond-float64"),
)
@pytest.mark.parametrize(
    "model", (zt.finite_diag((2.0, 3.0)), ShiftedLinear(1.5), PowerSpectrum(2.0)),
    ids=("finite_diag", "shifted_linear", "power_spectrum"),
)
def test_zeta_value_refuses_s_that_is_not_a_finite_real(model, bad):
    # float(s) raised TypeError, ValueError or OverflowError, and a
    # finite_diag took inf to 0 and called nan an overflow
    with pytest.raises(DomainError, match="^s must be finite, got "):
        zeta_value(model, bad)
    assert math.isfinite(zeta_value(model, 2.5))


def _message(call, *args) -> str:
    with pytest.raises(DomainError) as info:
        call(*args)
    return str(info.value)


def test_long_refused_values_are_quoted_by_head_and_tail():
    # a repr of up to 64 characters is quoted in full, a longer one keeps
    # its first and last 30 around "..."
    assert _message(qa.q_log, 2.0, 10**400) == (
        "deformation index must be finite, got 1%s...%s" % ("0" * 29, "0" * 30)
    )
    assert _message(Spectrum, "1" * 100_000) == (
        "eigenvalues must be a sequence of numbers, got '%s...%s'" % ("1" * 29, "1" * 29)
    )
    assert _message(errors.positive_real, "x", "a" * 62) == (
        "x must be a finite positive number, got '%s'" % ("a" * 62)
    )
    assert _message(errors.positive_int, "n", "a" * 63) == (
        "n must be a positive integer, got '%s...%s'" % ("a" * 29, "a" * 29)
    )
    # an int too long for repr is named by its size
    assert _message(errors.nonzero_real, "x", 10**5000) == (
        "x must be finite and nonzero, got <int of 16610 bits>"
    )


def test_numpy_conversion_text_is_clipped_above_200_characters():
    # numpy quotes the string it could not convert in full
    assert _message(Spectrum, ["x" * 100_000]) == (
        "eigenvalues must be a sequence of numbers: could not convert string to fl...%s'" % ("x" * 29)
    )
    # its inhomogeneous-shape text, 157 characters, stays whole
    with pytest.raises(ValueError) as numpy_error:
        np.asarray([[1.0, 2.0], [3.0]], dtype=float)
    text = str(numpy_error.value)
    assert 150 < len(text) <= 200
    assert _message(Spectrum, [[1.0, 2.0], [3.0]]) == f"eigenvalues must be a sequence of numbers: {text}"


# ---------------------------------------------------------------------------
# the scalar argument of q_log, q_exp and spectral_weight: what float()
# reads, or refused

X_CALLS = {
    "q_log": (lambda x: qa.q_log(x, 0.5), "x"),
    "q_exp": (lambda u: qa.q_exp(u, 0.5), "u"),
    "spectral_weight": (lambda lam: qa.spectral_weight(lam, 0.5), "lambda"),
}


@pytest.mark.parametrize(
    "bad", (None, "x", [2.0], 10**400, 10**5000),
    ids=("None", "text", "list", "int-beyond-float64", "int-beyond-repr"),
)
@pytest.mark.parametrize("name", X_CALLS)
def test_argument_that_float_cannot_read_is_refused(name, bad):
    call, arg = X_CALLS[name]
    assert _message(call, bad) == f"{arg} must be a real number within float64, got {errors._quote(bad)}"


def test_argument_that_float_reads_keeps_its_messages():
    assert _message(qa.q_log, -1.0, 0.5) == "q_log requires x > 0, got -1.0"
    assert _message(qa.q_log, "-2", 0.5) == "q_log requires x > 0, got -2.0"
    assert _message(qa.q_log, math.nan, 0.5) == "q_log requires x > 0, got nan"
    assert _message(qa.q_log, math.inf, 0.5) == "q_log overflows float64 at x = inf, q = 0.5"
    assert _message(qa.spectral_weight, 0, 0.5) == "spectral_weight requires lambda > 0, got 0.0"
    assert qa.q_log("4", 0.5) == 2.0
    assert qa.q_exp("3", 0.0) == (4.0, False)


# ---------------------------------------------------------------------------
# results: finite in float64, or refused


def test_finite_returns_its_argument_or_refuses():
    assert "finite" not in errors.__all__  # the package namespace is unchanged
    arr = np.array([1.0, -2.0])
    assert finite(arr, "unused") is arr
    assert finite(3.5, "unused {}", object()) == 3.5
    for value in (math.inf, -math.inf, math.nan, np.array([1.0, math.nan])):
        with pytest.raises(DomainError, match=r"^x = 2.0 at q = 'a'$"):
            finite(value, "x = {!r} at q = {!r}", 2.0, "a")
    # the message is formatted only on failure
    assert finite(1.0, "{} {}") == 1.0


# log-uniform on [1e-300, 1e308]
magnitudes = st.floats(min_value=-300.0, max_value=308.0).map(lambda e: 10.0**e)
eigenvalue_lists = st.lists(magnitudes, min_size=1, max_size=6)
zeta_models = st.one_of(
    st.builds(ShiftedLinear, magnitudes, magnitudes),
    st.builds(PowerSpectrum, magnitudes, magnitudes),
    st.builds(FiniteDiag, eigenvalue_lists, magnitudes),
)
scaled_spectra = st.builds(Spectrum, eigenvalue_lists, magnitudes.filter(lambda s: s != 1.0))
q_values = st.one_of(
    st.floats(min_value=-60.0, max_value=60.0),
    st.sampled_from((1.0, 1.0 + 1e-8, 1.0 - 1e-8)),
)


def _finite_or_refused(call) -> None:
    try:
        value = call()
    except (DomainError, PoleError):
        return
    assert isinstance(value, float) and math.isfinite(value), value


@settings(deadline=None, max_examples=300)
@given(zeta_models, zeta_models, scaled_spectra, eigenvalue_lists, q_values)
# each was inf, -inf, nan, a RuntimeWarning or a raw OverflowError
@example(ShiftedLinear(1e305), ShiftedLinear(1.0), Spectrum((1e308, 2.0), 0.5), [2.0], 1.0)
@example(ShiftedLinear(1e305), ShiftedLinear(1.0), Spectrum((2.0,), 0.5), [2.0], 1.000000001)
@example(ShiftedLinear(1e307), ShiftedLinear(1.0), Spectrum((2.0,), 0.5), [1e154] * 4, -1.0)
# math.lgamma raised OverflowError in zeta'(0) = ln Gamma(a) - ln(2 pi)/2
@example(ShiftedLinear(1e307), ShiftedLinear(1.0), Spectrum((2.0,), 0.5), [2.0], 1.0)
def test_results_are_finite_or_refused(model, reference, spec, factors, q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _finite_or_refused(lambda: qdet_zeta(model, q))
        _finite_or_refused(lambda: relative_qdet_zeta(model, reference, q))
        _finite_or_refused(lambda: zeta_value(model, q - 1.0))
        _finite_or_refused(lambda: zeta_deriv0(model))
        _finite_or_refused(lambda: q_logdet(spec, q))
        _finite_or_refused(lambda: action_variation(spec, spec.eigenvalues, q))
        # the product is exp_q of a finite sum; exp_q itself returns inf on
        # its divergent branch by design, so only the sum is held finite here
        try:
            value = q_prod(factors, q)
        except DomainError:
            return
        assert isinstance(value, ClampedValue) and not math.isnan(value.value)

"""Property tests of the shared argument checks.

Every probability vector, simplex point, perturbation and partition goes
through one check per argument kind. Valid input must come out bit for bit
as float() or int() reads it; text, non-finite, empty and nested input
must be refused with DomainError.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qspectra.combinatorics import Distribution, Partition, tsallis_entropy
from qspectra.errors import DomainError, finite_vector
from qspectra.geometry import SimplexPoint, potential
from qspectra.spectrum import Spectrum, SpectrumVariation, action_variation

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
    assert _bits(SpectrumVariation(container(values)).deltas) == want


@settings(deadline=None)
@given(weights, containers)
def test_normalised_vectors_pass_unchanged(ws, container):
    p = _normalised(ws)
    want = _bits(p)
    assert _bits(Distribution(container(p)).p) == want
    assert _bits(SimplexPoint(container(p)).p) == want


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
        SpectrumVariation,
        lambda v: action_variation(spec, v, 0.5),
        Distribution,
        lambda v: tsallis_entropy(v, 2.0),
        SimplexPoint,
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

"""The value classes that load without numpy, the shifted_linear and
power_spectrum models, behave as frozen records (equality, hash, repr,
immutability, copy and pickle), and every model kind keeps its JSON form."""

import copy
import dataclasses
import json
import pickle

import pytest

from qspectra.errors import DomainError
from qspectra.spectrum import FiniteDiag
from qspectra.zeta import (
    PowerSpectrum,
    ShiftedLinear,
    finite_diag,
    model_from_dict,
    model_from_json,
    model_to_json,
    power_spectrum,
    shifted_linear,
)

# (record, its repr, the same record built by keyword, its field values)
RECORDS = (
    (shifted_linear(3, 2), "ShiftedLinear(a=3.0, scale=2.0)", shifted_linear(a=3.0, scale=2.0), (3.0, 2.0)),
    (shifted_linear(1.5), "ShiftedLinear(a=1.5, scale=1.0)", shifted_linear(a=1.5, scale=1.0), (1.5, 1.0)),
    (power_spectrum(2, 1.5), "PowerSpectrum(alpha=2.0, scale=1.5)", power_spectrum(alpha=2.0, scale=1.5), (2.0, 1.5)),
)
FIRST_FIELD = {ShiftedLinear: "a", PowerSpectrum: "alpha"}


@pytest.mark.parametrize("record, text, keyword, values", RECORDS)
def test_records_compare_and_hash_by_their_fields(record, text, keyword, values):
    assert record == keyword and hash(record) == hash(keyword)
    assert hash(record) == hash(values)
    assert record != values and record != copy.copy(values)
    assert len({record, keyword}) == 1


def test_records_of_different_kinds_are_not_equal():
    a, alpha = shifted_linear(2.0, 3.0), power_spectrum(2.0, 3.0)
    assert a != alpha and alpha != a
    assert len({a, alpha}) == 2


@pytest.mark.parametrize("record, text, keyword, values", RECORDS)
def test_records_keep_their_repr(record, text, keyword, values):
    assert repr(record) == repr(keyword) == text
    # the models store each field as a float
    assert repr(shifted_linear(2, scale=3)) == "ShiftedLinear(a=2.0, scale=3.0)"


@pytest.mark.parametrize("record, text, keyword, values", RECORDS)
def test_records_refuse_assignment(record, text, keyword, values):
    name = FIRST_FIELD[type(record)]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, 7.0)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert record == keyword


@pytest.mark.parametrize("record, text, keyword, values", RECORDS)
@pytest.mark.parametrize("clone", (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))))
def test_records_copy_and_pickle(record, text, keyword, values, clone):
    back = clone(record)
    assert type(back) is type(record) and back == record and repr(back) == text
    with pytest.raises(AttributeError):
        setattr(back, FIRST_FIELD[type(record)], 7.0)


@pytest.mark.parametrize(
    "model, text, first",
    (
        (shifted_linear(0.7, scale=2.0), '{"kind": "shifted_linear", "a": 0.7, "scale": 2.0}', "a"),
        (power_spectrum(2.5), '{"kind": "power_spectrum", "alpha": 2.5, "scale": 1.0}', "alpha"),
        (
            finite_diag((2.0, 3.0), scale=1.5),
            '{"kind": "finite_diag", "eigenvalues": [2.0, 3.0], "scale": 1.5}',
            "eigenvalues",
        ),
    ),
)
def test_every_model_kind_round_trips_through_json(model, text, first):
    assert model_to_json(model) == text
    back = model_from_json(text)
    assert type(back) is type(model) and back == model
    # scale may be left out; the other field may not
    obj = json.loads(text)
    del obj["scale"]
    assert model_from_dict(obj) == type(model)(obj[first])


@pytest.mark.parametrize(
    "obj, message",
    (
        ({"kind": "shifted_linear", "scale": 2.0}, "shifted_linear model needs a"),
        ({"kind": "power_spectrum"}, "power_spectrum model needs alpha"),
        ({"kind": "finite_diag", "scale": 2.0}, "finite_diag model needs eigenvalues"),
        ({"kind": "shifted_linear", "a": 1.0, "eigenvalues": [1.0]}, "shifted_linear model has unknown field 'eigenvalues'"),
        ({"kind": "power_spectrum", "alpha": 2.0, "a": 1.0}, "power_spectrum model has unknown field 'a'"),
        ({"kind": "finite_diag", "eigenvalues": [1.0], "a": 1.0}, "finite_diag model has unknown field 'a'"),
    ),
)
def test_model_from_dict_names_missing_and_unknown_fields(obj, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        model_from_dict(obj)


def test_finite_diag_declares_its_dataclass_fields():
    # model_from_dict and model_to_json read _fields of every model class
    assert FiniteDiag._fields == tuple(f.name for f in dataclasses.fields(FiniteDiag))

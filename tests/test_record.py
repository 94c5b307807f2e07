"""The record form shared by every result type of the package."""

import importlib
import inspect
import pkgutil

import pytest

import modpoints
from modpoints.checks import encode
from modpoints.record import Record
from modpoints.stability import PointConfig, StabilityVerdict


def record_classes():
    found = []
    for info in pkgutil.iter_modules(modpoints.__path__):
        module = importlib.import_module(f"modpoints.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, Record) and obj is not Record and obj.__module__ == module.__name__:
                found.append(obj)
    return found


def bare(cls, values):
    # Equality, hashing, immutability and encoding read only the fields, so
    # the record is built without its validation, from values any field takes.
    record = object.__new__(cls)
    record.__dict__.update(zip(cls.__record_fields__, values))
    return record


def test_every_module_with_results_defines_records():
    modules = {cls.__module__.rsplit(".", 1)[1] for cls in record_classes()}
    assert {"stability", "betti", "blowup", "picard", "checks"} <= modules


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__name__)
def test_record_form(cls):
    names = cls.__record_fields__
    assert names == tuple(cls.__annotations__) and names
    values = tuple(range(len(names)))
    record, twin = bare(cls, values), bare(cls, values)

    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values

    assert record == twin and hash(record) == hash(twin)
    assert record != values and values != record
    if len(names) == 1:
        assert record != values[0]
    assert record != bare(cls, values[:-1] + (-1,))

    assert list(encode(record).items()) == list(zip(names, values))


def test_construction_by_position_and_keyword():
    by_position = PointConfig(8, (1, 4, 3))
    assert by_position == PointConfig(parts=(3, 1, 4), n=8)
    assert by_position.parts == (4, 3, 1)  # normalised in __post_init__
    assert repr(by_position) == "PointConfig(n=8, parts=(4, 3, 1))"
    assert list(encode(by_position)) == ["n", "parts"]


@pytest.mark.parametrize(
    "args, kwargs",
    [((8,), {}), ((8, (4, 4), 0), {}), ((8,), {"n": 8}), ((), {"n": 8, "parts": (4, 4), "m": 1})],
)
def test_wrong_fields_are_type_errors(args, kwargs):
    with pytest.raises(TypeError):
        PointConfig(*args, **kwargs)


def test_a_type_error_names_the_record_and_what_is_wrong():
    for args, kwargs, message in [
        ((8,), {}, "PointConfig: missing fields ['parts']"),
        ((8, (4, 4), 0), {}, "PointConfig takes 2 fields, got 3"),
        ((8,), {"n": 8}, "PointConfig: unexpected or repeated field 'n'"),
        ((), {"parts": (4, 4), "m": 1}, "PointConfig: unexpected or repeated field 'm'"),
    ]:
        with pytest.raises(TypeError) as info:
            PointConfig(*args, **kwargs)
        assert str(info.value) == message


def test_records_of_different_classes_are_never_equal():
    class Verdict(Record):
        status: str
        polystable: bool

    assert Verdict("stable", True) != StabilityVerdict("stable", True)
    assert Verdict("stable", True) == Verdict(status="stable", polystable=True)

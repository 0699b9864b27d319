"""The package's value types: every class made by `linalg._value` behaves as
the standard library's `dataclasses.dataclass` made it, which the package
itself no longer imports."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isometry_lab
from isometry_lab import cli, figures, linalg, planar, spherical
from isometry_lab.linalg import Vec2, Vec3
from isometry_lab.spherical import UnitVector3
from value_samples import SAMPLES, bits, round_trip_faults


def _value_types() -> set:
    """Every class the package's modules define with `__match_args__`, named tuples aside."""
    return {c for m in (cli, figures, linalg, planar, spherical) for c in vars(m).values()
            if isinstance(c, type) and c.__module__ == m.__name__
            and "__match_args__" in vars(c) and not issubclass(c, tuple)}


def _twin(cls):
    """`cls` rebuilt by `dataclasses.dataclass`: a subclass of the same name that
    inherits its methods and `__post_init__` and declares the same fields,
    base fields first, with the same defaults. A class with `_canonical` gets
    the stdlib idiom for it: a `__post_init__` that re-stores the row it returns."""
    names = list(dict.fromkeys(n for c in reversed(cls.__mro__)
                               for n in vars(c).get("__annotations__", ())))
    defaults = cls.__init__.__defaults__ or ()  # a field is a slot, not a class attribute
    body = {"__annotations__": dict.fromkeys(names, "object"),
            **dict(zip(names[len(names) - len(defaults):], defaults))}
    if hasattr(cls, "_canonical"):
        def __post_init__(self):
            for name, v in zip(names, cls._canonical(*[getattr(self, n) for n in names])):
                object.__setattr__(self, name, v)

        body["__post_init__"] = __post_init__
    frozen = cls.__hash__ is not None
    return dataclasses.dataclass(frozen=frozen)(type(cls.__name__, (cls,), body))


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a mutable class, or a dict among the fields
        return TypeError


def test_every_value_type_has_samples():
    assert _value_types() == set(SAMPLES)
    assert len(SAMPLES) == 20


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_a_value_type_matches_its_dataclass_twin(cls):
    twin = _twin(cls)
    assert cls.__match_args__ == twin.__match_args__
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    for args in filter(None, SAMPLES[cls]):
        ours, theirs = cls(*args), twin(*args)
        assert repr(ours) == repr(theirs)
        assert _hash(ours) == _hash(theirs)
        keywords = dict(zip(cls.__match_args__, args))
        assert (ours == cls(**keywords), ours != cls(**keywords)) == (True, False)
        assert (theirs == twin(**keywords), theirs != twin(**keywords)) == (True, False)
        assert ours != theirs  # of different classes
    first, second = SAMPLES[cls]
    if second is not None:
        pairs = [(c(*first), c(*second)) for c in (cls, twin)]
        assert [(a == b, a != b) for a, b in pairs] == [(False, True)] * 2


def test_a_vector_never_equals_a_unit_vector():
    assert Vec3(1.0, 0.0, 0.0) != UnitVector3(1.0, 0.0, 0.0)
    assert UnitVector3(1.0, 0.0, 0.0) != Vec3(1.0, 0.0, 0.0)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_a_frozen_value_refuses_assignment_and_deletion(cls):
    value = cls(*SAMPLES[cls][0])
    assert cls.__hash__ is not None
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(value, name, 0.0)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(value, name)
    assert value == cls(*SAMPLES[cls][0])


def test_only_init_is_compiled_and_the_refusals_are_shared():
    for cls in SAMPLES:
        assert cls.__init__.__code__.co_filename == "<string>"
        for name in ("__eq__", "__repr__", "__hash__", "__setattr__", "__delattr__"):
            assert getattr(cls, name).__code__.co_filename != "<string>", (cls, name)
    assert len({c.__setattr__ for c in SAMPLES}) == len({c.__delattr__ for c in SAMPLES}) == 1


@pytest.mark.parametrize("cls", [c for c in SAMPLES if hasattr(c, "__post_init__")],
                         ids=lambda c: c.__name__)
def test_post_init_runs_once_after_every_field_is_set(monkeypatch, cls):
    calls = []
    real = cls.__post_init__

    def post_init(self):  # set on the class after decoration: looked up per call
        calls.append([hasattr(self, name) for name in cls.__match_args__])
        real(self)

    monkeypatch.setattr(cls, "__post_init__", post_init)
    cls(*SAMPLES[cls][0])
    assert calls == [[True] * len(cls.__match_args__)]


# Each class that reshapes its arguments, with arguments it reshapes
CANONICAL = {
    planar.Rotation2: (Vec2(1.0, 2.0), 7.0),
    planar.Line2: (Vec2(0.0, 0.0), Vec2(3.0, 4.0)),
    spherical.Rotation3: (Vec3(0.0, 0.0, 1.0), -0.5),
    spherical.SphereSegment: (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0)),
}


def test_the_canonical_classes_are_the_ones_that_reshape_their_arguments():
    assert {c for c in SAMPLES if "_canonical" in vars(c)} == set(CANONICAL)


@pytest.mark.parametrize("cls", CANONICAL, ids=lambda c: c.__name__)
def test_init_stores_exactly_the_row_canonical_returns(monkeypatch, cls):
    assert not hasattr(cls, "__post_init__")  # _canonical checks and decides what is stored
    real, rows = cls._canonical, []

    def canonical(*args):  # bound in the compiled __init__'s namespace, not looked up per call
        rows.append(real(*args))
        return rows[-1]

    monkeypatch.setitem(cls.__init__.__globals__, "_canonical", canonical)
    for args in (*filter(None, SAMPLES[cls]), CANONICAL[cls]):
        value = cls(*args)
        (row,) = rows
        rows.clear()
        stored = [getattr(value, n) for n in cls.__match_args__]
        assert len(row) == len(stored)
        assert all(s is r for s, r in zip(stored, row))
        assert bits(stored) == bits(list(real(*args)))  # a fresh call gives the same bits
    assert bits(list(row)) != bits(list(CANONICAL[cls]))


def test_object_setattr_is_left_only_in_the_unit_vector_post_init():
    # perfbench/tracing.py counts UnitVector3 constructions by wrapping its
    # __post_init__, so that method, and its re-store of a renormalized vector, stays
    def sites(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            yield where
        for child in ast.iter_child_nodes(node):
            yield from sites(child, where)

    found = [site for path in sorted(Path(isometry_lab.__file__).parent.glob("*.py"))
             for site in sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert found == ["spherical.UnitVector3.__post_init__"] * 3


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_a_value_survives_copy_pickle_and_weakref_bit_for_bit(cls):
    assert round_trip_faults(cls) == []


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_no_value_has_an_instance_dict(cls):
    value = cls(*SAMPLES[cls][0])
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        vars(value)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(Path(isometry_lab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, isometry_lab.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "[]"

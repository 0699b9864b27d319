"""The package's value types: every class made by `linalg._value` behaves as
the standard library's `dataclasses.dataclass` made it, which the package
itself no longer imports."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isometry_lab
from isometry_lab import cli, figures, linalg, planar, spherical
from isometry_lab.cli import ProblemInstance, SolutionRecord
from isometry_lab.figures import (
    ArcElement,
    FigureSpec,
    GreatCircleElement,
    LineElement,
    Marker,
    SegmentElement,
)
from isometry_lab.linalg import Eig3Result, Mat2, Mat3, Vec2, Vec3
from isometry_lab.planar import Identity2, Line2, Reflection2, Rotation2, Segment2, Translation2
from isometry_lab.spherical import (
    GreatCircle,
    Rotation3,
    RotationMatrix3,
    SphereSegment,
    UnitVector3,
)

_I3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_QUARTER_TURN = ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))  # about z
_Z = UnitVector3(0.0, 0.0, 1.0)
_LINE = Line2(Vec2(0.0, 0.0), Vec2(0.0, 1.0))

# Two argument lists per value type, the first leaving every default out; the
# second builds a different value (Identity2 has only one).
_SAMPLES = {
    Vec2: ((1.0, 2.0), (1.0, -2.0)),
    Vec3: ((1.0, 0.0, 0.0), (0.0, 1.0, -0.0)),
    Mat2: ((1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 5.0)),
    Mat3: ((_I3,), (_QUARTER_TURN,)),
    Eig3Result: ((1.0, Vec3(0.0, 0.0, 1.0), (0.6, 0.8)), (1.0, Vec3(0.0, 0.0, 1.0), (0.8, 0.6))),
    Rotation2: ((Vec2(1.0, 2.0), 7.0), (Vec2(1.0, 2.0), 0.5)),
    Translation2: ((Vec2(1.0, 2.0),), (Vec2(2.0, 1.0),)),
    Line2: ((Vec2(0.0, 0.0), Vec2(3.0, 4.0)), (Vec2(0.0, 0.0), Vec2(0.0, 1.0))),
    Reflection2: ((_LINE,), (Line2(Vec2(1.0, 0.0), Vec2(0.0, 1.0)),)),
    Identity2: ((), None),
    Segment2: ((Vec2(0.0, 0.0), Vec2(1.0, 0.0)), (Vec2(0.0, 0.0), Vec2(0.0, 1.0))),
    UnitVector3: ((0.6, 0.0, 0.8000001), (0.0, 1.0, 0.0)),
    Rotation3: ((Vec3(0.0, 0.0, 1.0), -0.5), (_Z, 0.5)),
    RotationMatrix3: ((Mat3(_I3),), (Mat3(_QUARTER_TURN),)),
    GreatCircle: ((Vec3(0.0, 1.0, 0.0),), (_Z,)),
    SphereSegment: ((UnitVector3(1.0, 0.0, 0.0), _Z), (UnitVector3(0.0, 1.0, 0.0), _Z)),
    Marker: ((Vec2(0.0, 0.0),), (Vec2(0.0, 0.0), "P", "pivot")),
    SegmentElement: ((Vec2(0.0, 0.0), Vec2(1.0, 0.0)),
                     (Vec2(0.0, 0.0), Vec2(1.0, 0.0), "faint", "s")),
    LineElement: ((_LINE,), (_LINE, "solid", "m")),
    ArcElement: ((Vec2(0.0, 0.0), 1.0, 0.0, 1.0), (Vec2(0.0, 0.0), 1.0, 0.0, 1.0, "t")),
    GreatCircleElement: ((Vec3(0.0, 0.0, 1.0),), (Vec3(0.0, 0.0, 1.0), "c")),
    FigureSpec: (("planar", (Marker(Vec2(0.0, 0.0)),)), ("orthographic_sphere", (), 100, 200)),
    ProblemInstance: (("plane_reflections", {"pivot": Vec2(0.0, 0.0), "theta": 0.5}),
                      ("plane_compose", {})),
    SolutionRecord: (({"type": "identity"}, "both", 0.0, []),
                     ({"type": "identity"}, "both", 1.0, ["n"], {"type": "identity"}, 0.5)),
}


def _value_types() -> set:
    """Every class the package's modules define with `__match_args__`, named tuples aside."""
    return {c for m in (cli, figures, linalg, planar, spherical) for c in vars(m).values()
            if isinstance(c, type) and c.__module__ == m.__name__
            and "__match_args__" in vars(c) and not issubclass(c, tuple)}


def _twin(cls):
    """`cls` rebuilt by `dataclasses.dataclass`: a subclass of the same name that
    inherits its methods and `__post_init__` and declares the same fields,
    base fields first, with the same defaults."""
    names = list(dict.fromkeys(n for c in reversed(cls.__mro__)
                               for n in vars(c).get("__annotations__", ())))
    body = {"__annotations__": dict.fromkeys(names, "object"),
            **{n: getattr(cls, n) for n in names if hasattr(cls, n)}}
    frozen = cls.__hash__ is not None
    return dataclasses.dataclass(frozen=frozen)(type(cls.__name__, (cls,), body))


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a mutable class, or a dict among the fields
        return TypeError


def test_every_value_type_has_samples():
    assert _value_types() == set(_SAMPLES)
    assert len(_SAMPLES) == 24


@pytest.mark.parametrize("cls", list(_SAMPLES), ids=lambda c: c.__name__)
def test_a_value_type_matches_its_dataclass_twin(cls):
    twin = _twin(cls)
    assert cls.__match_args__ == twin.__match_args__
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    for args in filter(None, _SAMPLES[cls]):
        ours, theirs = cls(*args), twin(*args)
        assert repr(ours) == repr(theirs)
        assert _hash(ours) == _hash(theirs)
        keywords = dict(zip(cls.__match_args__, args))
        assert (ours == cls(**keywords), ours != cls(**keywords)) == (True, False)
        assert (theirs == twin(**keywords), theirs != twin(**keywords)) == (True, False)
        assert ours != theirs  # of different classes
    first, second = _SAMPLES[cls]
    if second is not None:
        pairs = [(c(*first), c(*second)) for c in (cls, twin)]
        assert [(a == b, a != b) for a, b in pairs] == [(False, True)] * 2


def test_a_vector_never_equals_a_unit_vector():
    assert Vec3(1.0, 0.0, 0.0) != UnitVector3(1.0, 0.0, 0.0)
    assert UnitVector3(1.0, 0.0, 0.0) != Vec3(1.0, 0.0, 0.0)


@pytest.mark.parametrize("cls", list(_SAMPLES), ids=lambda c: c.__name__)
def test_a_frozen_value_refuses_assignment_and_deletion(cls):
    value = cls(*_SAMPLES[cls][0])
    assert cls.__hash__ is not None
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(value, name, 0.0)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(value, name)
    assert value == cls(*_SAMPLES[cls][0])


def test_only_init_is_compiled_and_the_refusals_are_shared():
    for cls in _SAMPLES:
        assert cls.__init__.__code__.co_filename == "<string>"
        for name in ("__eq__", "__repr__", "__hash__", "__setattr__", "__delattr__"):
            assert getattr(cls, name).__code__.co_filename != "<string>", (cls, name)
    assert len({c.__setattr__ for c in _SAMPLES}) == len({c.__delattr__ for c in _SAMPLES}) == 1


@pytest.mark.parametrize("cls", [c for c in _SAMPLES if hasattr(c, "__post_init__")],
                         ids=lambda c: c.__name__)
def test_post_init_runs_once_after_every_field_is_set(monkeypatch, cls):
    calls = []
    real = cls.__post_init__

    def post_init(self):  # set on the class after decoration: looked up per call
        calls.append([name in vars(self) for name in cls.__match_args__])
        real(self)

    monkeypatch.setattr(cls, "__post_init__", post_init)
    cls(*_SAMPLES[cls][0])
    assert calls == [[True] * len(cls.__match_args__)]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(Path(isometry_lab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, isometry_lab.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "[]"

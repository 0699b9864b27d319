"""Sample arguments for every value type, and a standard-library check that
each sample value survives `copy.copy`, `copy.deepcopy`, `pickle` (every
protocol) and `weakref.ref`.

Run as a script, it checks every sample and exits 1 on a fault; it needs
nothing beyond the standard library:

    PYTHONPATH=src python tests/value_samples.py
"""

import copy
import pickle
import struct
import sys
import weakref

from isometry_lab.cli import ProblemInstance, SolutionRecord
from isometry_lab.figures import (
    ArcElement,
    FigureSpec,
    GreatCircleElement,
    LineElement,
    Marker,
    SegmentElement,
)
from isometry_lab.linalg import Mat3, Vec2, Vec3
from isometry_lab.planar import Identity2, Line2, Reflection2, Rotation2, Segment2, Translation2
from isometry_lab.spherical import Rotation3, SphereSegment, UnitVector3

_I3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_QUARTER_TURN = ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))  # about z
_Z = UnitVector3(0.0, 0.0, 1.0)
_LINE = Line2(Vec2(0.0, 0.0), Vec2(0.0, 1.0))

# Two argument lists per value type, the first leaving every default out; the
# second builds a different value (Identity2 has only one).
SAMPLES = {
    Vec2: ((1.0, 2.0), (1.0, -2.0)),
    Vec3: ((1.0, 0.0, 0.0), (0.0, 1.0, -0.0)),
    Mat3: ((_I3,), (_QUARTER_TURN,)),
    Rotation2: ((Vec2(1.0, 2.0), 7.0), (Vec2(1.0, 2.0), 0.5)),
    Translation2: ((Vec2(1.0, 2.0),), (Vec2(2.0, 1.0),)),
    Line2: ((Vec2(0.0, 0.0), Vec2(3.0, 4.0)), (Vec2(0.0, 0.0), Vec2(0.0, 1.0))),
    Reflection2: ((_LINE,), (Line2(Vec2(1.0, 0.0), Vec2(0.0, 1.0)),)),
    Identity2: ((), None),
    Segment2: ((Vec2(0.0, 0.0), Vec2(1.0, 0.0)), (Vec2(0.0, 0.0), Vec2(0.0, 1.0))),
    UnitVector3: ((0.6, 0.0, 0.8000001), (0.0, 1.0, 0.0)),
    Rotation3: ((Vec3(0.0, 0.0, 1.0), -0.5), (_Z, 0.5)),
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

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle protocol {p}": (lambda v, p=p: pickle.loads(pickle.dumps(v, p)))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}


def bits(obj):
    """`obj` field by field, down to the bytes of each float (so -0.0 is not
    0.0) and the class of each value and container."""
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    if isinstance(obj, (tuple, list)):
        return (type(obj), *map(bits, obj))
    if isinstance(obj, dict):
        return (dict, *[(k, bits(v)) for k, v in obj.items()])
    if hasattr(type(obj), "__match_args__"):
        return (type(obj), *[bits(getattr(obj, n)) for n in type(obj).__match_args__])
    return obj


def round_trip_faults(cls) -> list[str]:
    """What goes wrong when the sample values of `cls` are copied, pickled
    and weakly referenced: one line per fault, none when all hold."""
    faults = []
    for args in filter(None, SAMPLES[cls]):
        value = cls(*args)
        for way, make in COPIES.items():
            try:
                twin = make(value)
            except Exception as exc:  # reported, not raised
                faults.append(f"{way} of {value!r} raised {exc!r}")
                continue
            if bits(twin) != bits(value):
                faults.append(f"{way} of {value!r} gave {twin!r}")
        try:
            if weakref.ref(value)() is not value:
                faults.append(f"a weak reference to {value!r} lost it")
        except TypeError as exc:
            faults.append(f"weakref.ref({value!r}) raised {exc!r}")
    return faults


if __name__ == "__main__":
    found = [fault for cls in SAMPLES for fault in round_trip_faults(cls)]
    for fault in found:
        print(fault)
    print(f"{len(SAMPLES)} value types: {len(found)} copy, pickle or weakref faults")
    sys.exit(1 if found else 0)

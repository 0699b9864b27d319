"""Small fixed-size vectors and matrices, and the rotation eigensolver.

Everything is plain arithmetic on immutable values sized for 2D and 3D
geometry; no external numerics are involved. The eigensolver handles only
proper rotation matrices, whose structure makes the characteristic cubic
unnecessary: the real eigenvalue is known to be +1, the complex pair is
read from the trace and the skew part, and the eigenvector comes from the
null space of (M - I).

The hot kernels (`apply_planar`, `a.dist(b)` for `(a - b).norm()`, the
plane and sphere constructions, the sphere solve's rotation check and
eigensolve, the cross-check, and the sphere samplers and planar renderer
of `figures`) work on floats and build no intermediate vectors, in the
operation order of the vector expression each replaces, so every result
keeps its bits; the full-precision digests and the golden corpus of the
test suite hold them to that. The plane's are `planar._unit_xy`,
`_bisector_xy`, `_crossing_xy` on `_solve2`, and `_compose_mirrors`,
wrapped by `Line2`, `perpendicular_bisector`, `solve2` and
`compose_reflections`; a geometric plane route builds only its answer and
its `Vec2`, and one `Vec2` more where the bisectors coincide. The
cross-check maps its probes through one image kernel per space,
`planar._images_xy` and `spherical._images_xyz`, each taking cos and sin
once per turn. The plane's algebraic route is not one of them: it computes
in closed form on `complex` numbers, and a 50-digit error bound in the
test suite holds its answers.
"""

from __future__ import annotations

import math

from .errors import IdentityRotation, NotARotation, SingularMatrix

__all__ = [
    "Mat3", "Vec2", "Vec3", "cross", "cross2", "eig3_rotation", "solve2", "wrap_angle",
]

TWO_PI = 2.0 * math.pi

# Every numeric threshold, one name per decision. A "scaled" name is relative:
# a distance is compared with it times max(1, |p|, ...) over the points involved
# (1 on the unit sphere). The rest are compared as they stand.
DEFAULT_TOL = 1e-9  # default `tol`: length, residual and route-agreement slack
MAX_COORD = 1e150  # largest plane input coordinate: squares of sums stay finite
COINCIDENT_RTOL = 1e-12  # scaled: plane points this close coincide
SOLVE2_RTOL = 1e-12  # scaled by the squared larger row norm: |det| this small is singular
SAME_LINE_RTOL = 1e-9  # scaled: a bisector this close to the other is the same line
ANGLE_MIN = 1e-9  # composite angles below this: a plane translation, the sphere identity
UNIT_TOL = 1e-6  # sphere vectors this close to unit length are renormalized
NORMALIZE_MIN = 1e-150  # a shorter Vec3 is divided by its largest |component| before normalizing
SPHERE_CHORD_MIN = 1e-9  # |a - b| this short: coincident (a fixed point); |a + b|: antipodal
PARALLEL_TOL = 1e-12  # |n x m| <= this |n| |m|: n, m parallel (unit-scale ones: as it stands)
ON_AXIS_TOL = 1e-9  # a point this close to a rotation axis has no turn angle
ROTATION_TOL = 1e-9  # orthogonality and determinant slack of a rotation matrix
IDENTITY_TOL = 1e-9  # max |M - I| below this is the identity: no single axis
AXIS_SIGN_TOL = 1e-9  # the first axis component above this is made positive
SKEW_TOL = 1e-12  # a shorter skew part (sin of the angle) gives no turn direction
SKEW_CHECK_TOL = 1e-9  # the skew part's length must match sin(angle) this closely
ACOS_SINE_MIN = 1e-5  # a shorter skew part reads the angle by atan2: acos(a) loses digits
ARCSIN_NOTE_TOL = 1e-9  # a chord-arcsin angle off by more gets a note
FIGURE_MIN_SPAN = 1e-6  # least span of a planar figure's window
FIGURE_CLIP_TOL = 1e-15  # a direction component below this is parallel to a window edge
FIGURE_MIN_ARC = 1e-9  # a shorter geodesic arc (rad) is drawn as its endpoints


def check_tol(tol: float) -> float:
    """Return a caller's `tol` if it is positive and finite, else raise ValueError."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be a positive finite number, got {tol!r}")
    return tol


def check_coords(*points: "Vec2") -> None:
    """Raise ValueError if a plane point has a coordinate beyond MAX_COORD."""
    for p in points:
        if abs(p.x) > MAX_COORD or abs(p.y) > MAX_COORD:
            raise ValueError(f"coordinates beyond {MAX_COORD:g} are not accepted")


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    a = math.fmod(theta, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


def clamp(x: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, x))


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _value(cls):
    """Rebuild `cls` as an immutable, slotted standard-library data class,
    without importing that module (and the `inspect` it loads).

    The fields are the names annotated in `cls` and its bases, base fields
    first; a class attribute of the same name is a field's default, and
    moves to the defaults of `__init__`. Each field the bases do not already
    hold gets a slot, and the class gets a `__weakref__` slot unless a base
    has one, so instances have no `__dict__`. Only `__init__`, a hot path, is
    compiled per class: it swaps its arguments for the row `_canonical(*fields)`
    returns if the class has that, stores each field once through its slot's
    `__set__`, then calls `self.__post_init__()` if the class has one. `==`,
    `repr` and `hash` go by the fields, copy and pickle carry the field row,
    and setting or deleting an attribute raises.
    """
    names = tuple(dict.fromkeys(
        n for c in reversed(cls.__mro__) for n in c.__dict__.get("__annotations__", ())))
    held = {n for c in cls.__mro__[1:] for n in c.__dict__.get("__slots__", ())}
    ns = dict(cls.__dict__)
    defaults = {n: ns.pop(n) for n in names if n in ns}
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    weak = () if any(hasattr(b, "__weakref__") for b in cls.__bases__) else ("__weakref__",)
    ns["__slots__"] = tuple(n for n in names if n not in held) + weak
    ns["__qualname__"] = cls.__qualname__
    cls = type(cls)(cls.__name__, cls.__bases__, ns)

    # each slot's own setter, not object.__setattr__ (a generic lookup per field), nor
    # self.__dict__ (writing it makes CPython 3.11 drop its inline attribute values)
    setters = tuple(getattr(cls, n).__set__ for n in names)
    made = {f"_set_{n}": put for n, put in zip(names, setters)}
    made.update((f"_d_{n}", v) for n, v in defaults.items())
    params = "".join(f", {n}=_d_{n}" if n in defaults else f", {n}" for n in names)
    body = [f"_set_{n}(self, {n})" for n in names]
    if hasattr(cls, "_canonical"):
        made["_canonical"] = cls._canonical
        body.insert(0, f"{', '.join(names)}, = _canonical({', '.join(names)})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self{params}):\n    " + ("\n    ".join(body) or "pass"), made)

    def row(self):
        return tuple([getattr(self, n) for n in names])

    def __setstate__(self, state):
        for put, v in zip(setters, state):
            put(self, v)

    def __eq__(self, other):
        return row(self) == row(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        shown = ", ".join([f"{n}={getattr(self, n)!r}" for n in names])
        return f"{self.__class__.__qualname__}({shown})"

    def __hash__(self):
        return hash(row(self))

    for method in (made["__init__"], __eq__, __repr__, __hash__, __setstate__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__getstate__ = row
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    cls.__match_args__ = names
    return cls


@_value
class Vec2:
    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Vec2") -> float:
        """(self - other).norm(), bit for bit, without building the difference."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def perp(self) -> "Vec2":
        """Counterclockwise quarter turn."""
        return Vec2(-self.y, self.x)


def cross2(u: Vec2, v: Vec2) -> float:
    """Scalar cross product (signed parallelogram area)."""
    return u.x * v.y - u.y * v.x


@_value
class Vec3:
    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        # type(self) keeps unit-vector subclasses closed under negation
        return type(self)(-self.x, -self.y, -self.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def dist(self, other: "Vec3") -> float:
        """(self - other).norm(), bit for bit, without building the difference."""
        dx, dy, dz = self.x - other.x, self.y - other.y, self.z - other.z
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def normalized(self) -> "Vec3":
        n = self.norm()
        if not NORMALIZE_MIN <= n < math.inf:  # zero, non-finite, or squares over- or underflowing
            if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
                raise ValueError("cannot normalize a non-finite vector")
            m = max(abs(self.x), abs(self.y), abs(self.z))
            if m == 0.0:
                raise ValueError("cannot normalize a zero vector")
            return Vec3(self.x / m, self.y / m, self.z / m).normalized()
        return Vec3(self.x / n, self.y / n, self.z / n)


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Cross product: orthogonal to both inputs, |a||b| sin(angle) long."""
    return Vec3(
        a.y * b.z - a.z * b.y,
        a.z * b.x - a.x * b.z,
        a.x * b.y - a.y * b.x,
    )


def solve2(m00: float, m01: float, m10: float, m11: float, b0: float, b1: float) -> Vec2:
    """Solve [[m00, m01], [m10, m11]] x = (b0, b1) by Cramer's rule.

    Raises SingularMatrix when |det| <= SOLVE2_RTOL * (max row norm)^2; the
    squared row norm makes the test invariant under uniform scaling of the matrix.
    """
    return Vec2(*_solve2(m00, m01, m10, m11, b0, b1))


def _solve2(m00: float, m01: float, m10: float, m11: float, b0: float, b1: float) -> tuple[float, float]:
    """solve2 on floats: the solution as an (x, y) pair."""
    det = m00 * m11 - m01 * m10
    row = max(math.hypot(m00, m01), math.hypot(m10, m11))
    if abs(det) <= SOLVE2_RTOL * row * row:
        raise SingularMatrix(f"2x2 system is singular (det={det:.3g})")
    return (b0 * m11 - m01 * b1) / det, (m00 * b1 - b0 * m10) / det


Xyz = tuple[float, float, float]
Rows3 = tuple[Xyz, Xyz, Xyz]


@_value
class Mat3:
    """3x3 matrix, row major."""

    rows: Rows3

    def __matmul__(self, other: "Mat3") -> "Mat3":
        # Each entry adds left to right from 0.0, so one whose products are
        # all -0.0 comes out as 0.0
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = other.rows
        return Mat3(tuple([
            (0.0 + a0 * b00 + a1 * b10 + a2 * b20,
             0.0 + a0 * b01 + a1 * b11 + a2 * b21,
             0.0 + a0 * b02 + a1 * b12 + a2 * b22)
            for a0, a1, a2 in self.rows
        ]))

    def trace(self) -> float:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def det(self) -> float:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )


def require_rotation(m: Mat3) -> None:
    """Raise NotARotation unless m is orthogonal with determinant +1."""
    # MtM's entries (i, j) = (j, i), each summed from 0.0 as Mat3.__matmul__ sums it
    (a, b, c), (d, e, f), (g, h, i) = m.rows
    xx = 0.0 + a * a + d * d + g * g
    xy = 0.0 + a * b + d * e + g * h
    xz = 0.0 + a * c + d * f + g * i
    yy = 0.0 + b * b + e * e + h * h
    yz = 0.0 + b * c + e * f + h * i
    zz = 0.0 + c * c + f * f + i * i
    dev = max(abs(xx - 1.0), abs(xy), abs(xz), abs(yy - 1.0), abs(yz), abs(zz - 1.0))
    if dev > ROTATION_TOL:
        raise NotARotation(f"matrix is not orthogonal (max |MtM - I| = {dev:.3g})")
    det = m.det()
    if abs(det - 1.0) > ROTATION_TOL:
        raise NotARotation(f"matrix determinant {det:.9g} is not +1")


def eig3_rotation(m: Mat3) -> tuple[Vec3, tuple[float, float]]:
    """Eigenstructure of a proper rotation matrix: its +1 eigenvector, as a
    unit Vec3, and (a, b) of its complex pair a +/- b i, with b >= 0.

    The real eigenvalue of any such matrix is +1 (the complex pair
    contributes a^2 + b^2 > 0 to the determinant, which equals +1), so no
    cubic is solved. The complex pair is a = (trace - 1) / 2 with b the
    length of the skew part (m - m^T) / 2, which keeps the digits that
    sqrt(1 - a^2) loses near a turn of 0 or pi. The +1 eigenvector is
    taken from the null space of (m - I) as the largest cross product
    among its row pairs, which avoids conditioning problems when one row
    is nearly degenerate.

    Raises NotARotation for inputs failing the orthogonality/determinant
    check, and IdentityRotation when m is the identity, where every
    direction is an eigenvector and the caller must handle angle zero.
    """
    require_rotation(m)
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = m.rows
    d0, d1, d2 = a0 - 1.0, b1 - 1.0, c2 - 1.0  # m - I is (d0, a1, a2), (b0, d1, b2), (c0, c1, d2)
    if max(map(abs, (d0, a1, a2, b0, d1, b2, c0, c1, d2))) < IDENTITY_TOL:
        raise IdentityRotation("matrix is the identity; every direction is fixed")

    a = clamp((a0 + b1 + c2 - 1.0) / 2.0, -1.0, 1.0)
    sx, sy, sz = (c1 - b2) / 2.0, (a2 - c0) / 2.0, (b0 - a1) / 2.0
    b = math.sqrt(sx * sx + sy * sy + sz * sz)

    # the longest cross product of two rows, the first of equal ones: rows 0 x 1, 0 x 2, 1 x 2
    x, y, z = a1 * b2 - a2 * d1, a2 * b0 - d0 * b2, d0 * d1 - a1 * b0
    nn = x * x + y * y + z * z
    for u, v, w in ((a1 * d2 - a2 * c1, a2 * c0 - d0 * d2, d0 * c1 - a1 * c0),
                    (d1 * d2 - b2 * c1, b2 * c0 - b0 * d2, b0 * c1 - d1 * c0)):
        if (uu := u * u + v * v + w * w) > nn:
            x, y, z, nn = u, v, w, uu
    n = math.sqrt(nn)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    x, y, z = x / n, y / n, z / n
    # flip so the first component above AXIS_SIGN_TOL in magnitude is positive
    t = AXIS_SIGN_TOL
    if (x if abs(x) > t else y if abs(y) > t else z if abs(z) > t else 0.0) < 0.0:
        x, y, z = -x, -y, -z
    return Vec3(x, y, z), (a, b)

"""Small fixed-size vectors and matrices, and the rotation eigensolver.

Everything is plain arithmetic on immutable values sized for 2D and 3D
geometry; no external numerics are involved. The eigensolver handles only
proper rotation matrices, whose structure makes the characteristic cubic
unnecessary: the real eigenvalue is known to be +1, the complex pair is
read from the trace, and the eigenvector comes from the null space of
(M - I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IdentityRotation, NotARotation, SingularMatrix

TWO_PI = 2.0 * math.pi

# |det| <= SOLVE2_RTOL * (max row norm)^2 counts as singular.
SOLVE2_RTOL = 1e-12
# Orthogonality / determinant slack accepted by eig3_rotation.
ROTATION_TOL = 1e-8
# ||M - I||_max below this means the identity, where (M - I) has a
# three-dimensional null space and no single axis exists.
IDENTITY_TOL = 1e-9


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


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def perp(self) -> "Vec2":
        """Counterclockwise quarter turn."""
        return Vec2(-self.y, self.x)

    def normalized(self) -> "Vec2":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return Vec2(self.x / n, self.y / n)


def cross2(u: Vec2, v: Vec2) -> float:
    """Scalar cross product (signed parallelogram area)."""
    return u.x * v.y - u.y * v.x


@dataclass(frozen=True)
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

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Cross product: orthogonal to both inputs, |a||b| sin(angle) long."""
    return Vec3(
        a.y * b.z - a.z * b.y,
        a.z * b.x - a.x * b.z,
        a.x * b.y - a.y * b.x,
    )


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix, row major."""

    m00: float
    m01: float
    m10: float
    m11: float

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def rotation(theta: float) -> "Mat2":
        """Counterclockwise rotation about the origin."""
        c, s = math.cos(theta), math.sin(theta)
        return Mat2(c, -s, s, c)

    def mv(self, v: Vec2) -> Vec2:
        return Vec2(self.m00 * v.x + self.m01 * v.y, self.m10 * v.x + self.m11 * v.y)

    def det(self) -> float:
        return self.m00 * self.m11 - self.m01 * self.m10


def solve2(m: Mat2, b: Vec2) -> Vec2:
    """Solve m x = b by Cramer's rule.

    Raises SingularMatrix when |det| <= SOLVE2_RTOL * (max row norm)^2; the
    squared row norm makes the test invariant under uniform scaling of m.
    """
    det = m.det()
    row = max(math.hypot(m.m00, m.m01), math.hypot(m.m10, m.m11))
    if abs(det) <= SOLVE2_RTOL * row * row:
        raise SingularMatrix(f"2x2 system is singular (det={det:.3g})")
    return Vec2(
        (b.x * m.m11 - m.m01 * b.y) / det,
        (m.m00 * b.y - b.x * m.m10) / det,
    )


Rows3 = tuple[
    tuple[float, float, float],
    tuple[float, float, float],
    tuple[float, float, float],
]


@dataclass(frozen=True)
class Mat3:
    """3x3 matrix, row major."""

    rows: Rows3

    @staticmethod
    def identity() -> "Mat3":
        return Mat3(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    def mv(self, v: Vec3) -> Vec3:
        r = self.rows
        return Vec3(
            r[0][0] * v.x + r[0][1] * v.y + r[0][2] * v.z,
            r[1][0] * v.x + r[1][1] * v.y + r[1][2] * v.z,
            r[2][0] * v.x + r[2][1] * v.y + r[2][2] * v.z,
        )

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

    def transpose(self) -> "Mat3":
        r = self.rows
        return Mat3(
            (
                (r[0][0], r[1][0], r[2][0]),
                (r[0][1], r[1][1], r[2][1]),
                (r[0][2], r[1][2], r[2][2]),
            )
        )

    def trace(self) -> float:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def det(self) -> float:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def row(self, i: int) -> Vec3:
        return Vec3(*self.rows[i])


@dataclass(frozen=True)
class Eig3Result:
    """Eigenstructure of a proper rotation matrix.

    lambda_real is always +1 for such matrices; complex_pair holds (a, b)
    of the conjugate eigenvalues a +/- b i with b >= 0.
    """

    lambda_real: float
    axis: Vec3
    complex_pair: tuple[float, float]


def _identity_gap(m: Mat3) -> float:
    """Largest |m - I| entry, taken row by row."""
    (a, b, c), (d, e, f), (g, h, i) = m.rows
    return max(abs(a - 1.0), abs(b), abs(c), abs(d), abs(e - 1.0), abs(f),
               abs(g), abs(h), abs(i - 1.0))


def require_rotation(m: Mat3, tol: float = ROTATION_TOL) -> None:
    """Raise NotARotation unless m is orthogonal with determinant +1."""
    dev = _identity_gap(m.transpose() @ m)
    if dev > tol:
        raise NotARotation(f"matrix is not orthogonal (max |MtM - I| = {dev:.3g})")
    det = m.det()
    if abs(det - 1.0) > tol:
        raise NotARotation(f"matrix determinant {det:.9g} is not +1")


def _canonical_axis_sign(v: Vec3) -> Vec3:
    """Flip so the first component larger than 1e-9 in magnitude is positive."""
    for c in (v.x, v.y, v.z):
        if abs(c) > 1e-9:
            return v if c > 0.0 else -v
    return v


def eig3_rotation(m: Mat3) -> Eig3Result:
    """Eigenstructure of a proper rotation matrix.

    The real eigenvalue of any such matrix is +1 (the complex pair
    contributes a^2 + b^2 > 0 to the determinant, which equals +1), so no
    cubic is solved. The complex pair is a = (trace - 1) / 2 with
    b = sqrt(1 - a^2), and the +1 eigenvector is taken from the null space
    of (m - I) as the largest cross product among its row pairs, which
    avoids conditioning problems when one row is nearly degenerate.

    Raises NotARotation for inputs failing the orthogonality/determinant
    check, and IdentityRotation when m is the identity, where every
    direction is an eigenvector and the caller must handle angle zero.
    """
    require_rotation(m)
    if _identity_gap(m) < IDENTITY_TOL:
        raise IdentityRotation("matrix is the identity; every direction is fixed")

    a = clamp((m.trace() - 1.0) / 2.0, -1.0, 1.0)
    b = math.sqrt(max(0.0, 1.0 - a * a))

    r0 = m.row(0) - Vec3(1.0, 0.0, 0.0)
    r1 = m.row(1) - Vec3(0.0, 1.0, 0.0)
    r2 = m.row(2) - Vec3(0.0, 0.0, 1.0)
    candidates = (cross(r0, r1), cross(r0, r2), cross(r1, r2))
    best = max(candidates, key=lambda v: v.dot(v))
    axis = _canonical_axis_sign(best.normalized())
    return Eig3Result(1.0, axis, (a, b))

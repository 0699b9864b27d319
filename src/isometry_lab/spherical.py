"""Orientation-preserving isometries of the unit sphere.

Every such isometry is a rotation about an axis through the origin, held
here as a unit axis plus an angle in [0, pi] (the axis sign carries the
turn direction, since a turn of -t about p equals +t about -p). Axis
recovery from a two-point correspondence runs either through the cross
product of the displacement chords or through intersecting two
perpendicular-bisector great circles; composition either through the
matrix product and its +1 eigenvector or through two mirror reflections.
"""

from __future__ import annotations

import math

from .errors import (
    AntipodalPoints,
    CoincidentPoints,
    DegenerateAxis,
    IdenticalCircles,
    IdentityCorrespondence,
    IdentityRotation,
    InternalCheckError,
    LengthMismatch,
    NonUnitVector,
    NotIsometric,
    PointOnAxis,
)
from .linalg import (
    ACOS_SINE_MIN, ANGLE_MIN, DEFAULT_TOL, ON_AXIS_TOL, PARALLEL_TOL,
    SKEW_CHECK_TOL, SKEW_TOL, SPHERE_CHORD_MIN, UNIT_TOL, Mat3, Vec3, Xyz, check_tol, clamp,
    _value, eig3_rotation, wrap_angle,
)

__all__ = [
    "Rotation3", "SphereSegment", "UnitVector3",
    "angular_distance", "apply_sphere", "axis_angle_from_matrix", "bisector_great_circle",
    "chord_arcsin_angle", "compose_sphere_rotations", "intersect_great_circles",
    "recover_axis_cross", "recover_axis_geometric", "recover_sphere_rotation",
    "rotation_angle_about_axis", "rotation_matrix",
]


def _unit_xyz(x: float, y: float, z: float) -> Xyz:
    """The coordinates UnitVector3(x, y, z) holds: divided once by their norm unless it is 1.0."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise NonUnitVector("components must be finite")
    n = math.sqrt(x * x + y * y + z * z)
    if abs(n - 1.0) > UNIT_TOL:
        raise NonUnitVector(f"|v| = {n:.9g} is not within {UNIT_TOL:g} of 1")
    return (x / n, y / n, z / n) if n != 1.0 else (x, y, z)


@_value
class UnitVector3(Vec3):
    """Point on the unit sphere; renormalized on construction."""

    def __post_init__(self):
        x, y, z = _unit_xyz(self.x, self.y, self.z)
        if x is not self.x:  # divided: _unit_xyz hands back the same floats otherwise
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "z", z)


def _as_unit(v: Vec3) -> UnitVector3:
    return v if isinstance(v, UnitVector3) else UnitVector3(v.x, v.y, v.z)


@_value
class Rotation3:
    """Rotation about `axis` by `angle` radians (right-hand rule).

    Construction folds the angle into [0, pi], flipping the axis when the
    given angle reduces to a negative value.
    """

    axis: UnitVector3
    angle: float

    @staticmethod
    def _canonical(axis, angle):
        if not math.isfinite(angle):
            raise ValueError("rotation angle must be finite")
        axis, a = _as_unit(axis), wrap_angle(angle)
        return (-axis, -a) if a < 0.0 else (axis, a)


@_value
class SphereSegment:
    """Geodesic segment between two sphere points.

    The endpoints must be neither coincident nor antipodal, so exactly one
    great circle passes through both.
    """

    a: UnitVector3
    b: UnitVector3

    @staticmethod
    def _canonical(a, b):
        a, b = _as_unit(a), _as_unit(b)
        if a.dist(b) <= SPHERE_CHORD_MIN:
            raise CoincidentPoints("segment endpoints coincide")
        if _antipodal(a, b):
            raise AntipodalPoints("antipodal endpoints lie on infinitely many great circles")
        return a, b


def _antipodal(a: Vec3, b: Vec3) -> bool:
    """(a + b).norm() <= SPHERE_CHORD_MIN, on floats."""
    sx, sy, sz = a.x + b.x, a.y + b.y, a.z + b.z
    return math.sqrt(sx * sx + sy * sy + sz * sz) <= SPHERE_CHORD_MIN


def angular_distance(p: Vec3, q: Vec3) -> float:
    """Great-circle distance between two unit vectors, in [0, pi], as
    atan2(|p x q|, p . q): unlike acos(p . q), accurate on short arcs (W. Kahan, 2006)."""
    return _arc((p.x, p.y, p.z), (q.x, q.y, q.z))


def _arc(p: Xyz, q: Xyz) -> float:
    """angular_distance on (x, y, z) floats."""
    (px, py, pz), (qx, qy, qz) = p, q
    cx, cy, cz = py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), px * qx + py * qy + pz * qz)


def _dist_xyz(a: Xyz, b: Xyz) -> float:
    """Vec3.dist on (x, y, z) floats."""
    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def rotation_matrix(rot: Rotation3) -> Mat3:
    """Matrix form as a Mat3: cos t I + sin t [axis]_x + (1 - cos t) axis axis^T. It is not
    checked here; eig3_rotation decides what is a rotation and raises NotARotation."""
    a = rot.axis
    c = math.cos(rot.angle)
    s = math.sin(rot.angle)
    k = 1.0 - c
    return Mat3((
        (c + k * a.x * a.x, k * a.x * a.y - s * a.z, k * a.x * a.z + s * a.y),
        (k * a.y * a.x + s * a.z, c + k * a.y * a.y, k * a.y * a.z - s * a.x),
        (k * a.z * a.x - s * a.y, k * a.z * a.y + s * a.x, c + k * a.z * a.z),
    ))


def apply_sphere(rot: Rotation3, p: Vec3) -> UnitVector3:
    """Rotate a sphere point. Both poles +/- axis stay fixed."""
    p, a = _as_unit(p), rot.axis
    return UnitVector3(*_turned((a.x, a.y, a.z), rot.angle, (p.x, p.y, p.z)))


def _images_xyz(rot: Rotation3, points) -> list[Xyz]:
    """The coordinates of apply_sphere(rot, p) for each unit vector p of `points`, without
    building it: _turned's terms, cos and sin taken once, then renormalized as UnitVector3 does."""
    a = rot.axis
    ax, ay, az = a.x, a.y, a.z
    c, s = math.cos(rot.angle), math.sin(rot.angle)
    images = []
    for p in points:
        px, py, pz = p.x, p.y, p.z
        k = (ax * px + ay * py + az * pz) * (1.0 - c)
        images.append(_unit_xyz(px * c + (ay * pz - az * py) * s + ax * k,
                                py * c + (az * px - ax * pz) * s + ay * k,
                                pz * c + (ax * py - ay * px) * s + az * k))
    return images


def _turned(axis: Xyz, angle: float, p: Xyz) -> Xyz:
    """p c + (a x p) s + a (a . p)(1 - c), term by term on floats, not renormalized."""
    (ax, ay, az), (px, py, pz) = axis, p
    c = math.cos(angle)
    s = math.sin(angle)
    k = (ax * px + ay * py + az * pz) * (1.0 - c)
    return (
        px * c + (ay * pz - az * py) * s + ax * k,
        py * c + (az * px - ax * pz) * s + ay * k,
        pz * c + (ax * py - ay * px) * s + az * k,
    )


def _require_isometric(x: Vec3, xp: Vec3, y: Vec3, yp: Vec3, tol: float) -> None:
    check_tol(tol)
    before = angular_distance(x, y)
    after = angular_distance(xp, yp)
    dl = abs(before - after)
    if dl > tol:
        raise LengthMismatch(
            f"marked segments have angular lengths {before:.9g} and {after:.9g}; "
            f"a rigid motion cannot change them (difference {dl:.3g} > tolerance {tol:g})"
        )


def recover_axis_cross(
    x: Vec3, xp: Vec3, y: Vec3, yp: Vec3, *, tol: float = DEFAULT_TOL
) -> UnitVector3:
    """Rotation axis from the two displacement chords.

    Each chord x - xp is normal to the plane of the perpendicular-bisector
    great circle of (x, xp); the axis lies in both planes, hence along the
    cross product of the chords. A point that moves by at most SPHERE_CHORD_MIN
    has no chord direction, so it raises DegenerateAxis.
    """
    x, xp, y, yp = _as_unit(x), _as_unit(xp), _as_unit(y), _as_unit(yp)
    _require_isometric(x, xp, y, yp, tol)
    move_x, move_y = x.dist(xp), y.dist(yp)
    if any(_fixed_points(move_x, move_y)):
        raise DegenerateAxis("a marked point stays put; its chord has no direction")
    return _axis_cross(x, xp, y, yp, move_x * move_y)


def _axis_cross(x: UnitVector3, xp: UnitVector3, y: UnitVector3, yp: UnitVector3,
                lengths: float) -> UnitVector3:
    """recover_axis_cross's construction, on arc lengths already checked: the _pole
    of the chords x - xp and y - yp, whose lengths multiply to `lengths`. Against
    them it refuses the chords the bisector construction refuses, short or long."""
    try:
        return UnitVector3(*_pole((x.x - xp.x, x.y - xp.y, x.z - xp.z),
                                  (y.x - yp.x, y.y - yp.y, y.z - yp.z), lengths))
    except IdenticalCircles as exc:
        raise DegenerateAxis(
            "displacement chords are parallel or zero; no unique axis from the cross product"
        ) from exc


def recover_axis_geometric(
    x: Vec3, xp: Vec3, y: Vec3, yp: Vec3, *, tol: float = DEFAULT_TOL
) -> UnitVector3:
    """Rotation axis by construction: intersect the two perpendicular
    bisector great circles.

    A point that moves by at most SPHERE_CHORD_MIN, too little for its
    bisector circle to be built, is fixed: it is itself a pole of the
    rotation and is returned directly. If both points are fixed the
    correspondence is the identity and no axis exists.
    """
    x, xp, y, yp = _as_unit(x), _as_unit(xp), _as_unit(y), _as_unit(yp)
    _require_isometric(x, xp, y, yp, tol)
    return _axis_geometric(x, xp, y, yp, _fixed_points(x.dist(xp), y.dist(yp)))


def _fixed_points(move_x: float, move_y: float) -> tuple[bool, bool]:
    """Whether x and y, moved by move_x and move_y, stay put: by at most SPHERE_CHORD_MIN,
    too little for a bisector circle or a chord direction. Both routes and the figure ask."""
    return move_x <= SPHERE_CHORD_MIN, move_y <= SPHERE_CHORD_MIN


def _axis_geometric(x: UnitVector3, xp: UnitVector3, y: UnitVector3, yp: UnitVector3,
                    fixed: tuple[bool, bool]) -> UnitVector3:
    """recover_axis_geometric's construction, on checked arc lengths and x, y's _fixed_points."""
    fixed_x, fixed_y = fixed
    if fixed_x and fixed_y:
        raise IdentityCorrespondence("both points are fixed; every axis works")
    if fixed_x or fixed_y:
        return x if fixed_x else y
    # the bisector circles' normals, as bisector_great_circle gives them, and their intersection
    nx = _unit_xyz(*_bisector_normal(x, xp))
    ny = _unit_xyz(*_bisector_normal(y, yp))
    try:
        return UnitVector3(*_pole(nx, ny))
    except IdenticalCircles as exc:
        raise DegenerateAxis(
            "bisector circles coincide; pick a second point off the shared bisector"
        ) from exc


def rotation_angle_about_axis(axis: Vec3, x: Vec3, xp: Vec3) -> float:
    """Signed angle (right-hand rule about axis) turning x to xp.

    Both points are projected onto the plane orthogonal to the axis first,
    so the result is the turn angle even when the points sit off the
    rotation's equator.
    """
    axis = _as_unit(axis)
    ax, ay, az = axis.x, axis.y, axis.z
    # u = x - axis (x . axis) and v likewise, in the vector expression's operation order
    k, j = x.dot(axis), xp.dot(axis)
    ux, uy, uz = x.x - ax * k, x.y - ay * k, x.z - az * k
    vx, vy, vz = xp.x - ax * j, xp.y - ay * j, xp.z - az * j
    if (math.sqrt(ux * ux + uy * uy + uz * uz) < ON_AXIS_TOL
            or math.sqrt(vx * vx + vy * vy + vz * vz) < ON_AXIS_TOL):
        raise PointOnAxis("point lies on the rotation axis; its turn angle is undefined")
    # atan2(axis . (u x v), u . v)
    angle = math.atan2(
        ax * (uy * vz - uz * vy) + ay * (uz * vx - ux * vz) + az * (ux * vy - uy * vx),
        ux * vx + uy * vy + uz * vz,
    )
    return math.pi if angle <= -math.pi else angle


def chord_arcsin_angle(x: Vec3, xp: Vec3) -> float:
    """Arcsine of the normalized cross product of a point and its image.

    This measures the separation of x and xp themselves, not the turn
    about the axis: the two agree only when x lies on the rotation's
    equator and the turn is at most a quarter circle. Kept as the
    restricted shortcut; use rotation_angle_about_axis for the general
    case (a half turn on the equator comes out as 0 here instead of pi).
    """
    cx, cy, cz = x.y * xp.z - x.z * xp.y, x.z * xp.x - x.x * xp.z, x.x * xp.y - x.y * xp.x
    s = math.sqrt(cx * cx + cy * cy + cz * cz) / (x.norm() * xp.norm())
    return math.asin(clamp(s, 0.0, 1.0))


def bisector_great_circle(a: Vec3, b: Vec3) -> UnitVector3:
    """Great circle of points angularly equidistant from a and b, as its unit normal.

    Its plane is normal to the chord a - b: a point z has z . a = z . b
    exactly when z . (a - b) = 0. For a and -a that is a's equator.
    """
    return UnitVector3(*_bisector_normal(_as_unit(a), _as_unit(b)))


def _bisector_normal(a: UnitVector3, b: UnitVector3) -> Xyz:
    """The chord a - b over its length, on floats, before UnitVector3 renormalizes it."""
    cx, cy, cz = a.x - b.x, a.y - b.y, a.z - b.z
    n = math.sqrt(cx * cx + cy * cy + cz * cz)
    if n <= SPHERE_CHORD_MIN:
        raise CoincidentPoints("coincident points have no unique bisector circle")
    return cx / n, cy / n, cz / n


def intersect_great_circles(n: Vec3, m: Vec3) -> tuple[UnitVector3, UnitVector3]:
    """The two (antipodal) intersection points of distinct great circles,
    given by their unit normals n and m."""
    n, m = _as_unit(n), _as_unit(m)
    p = UnitVector3(*_pole((n.x, n.y, n.z), (m.x, m.y, m.z)))
    return p, -p


def _pole(n: Xyz, m: Xyz, lengths: float = 1.0) -> Xyz:
    """n x m over its length, on floats, before UnitVector3 renormalizes it. n and m
    are parallel when that length is at most PARALLEL_TOL times `lengths`, the
    product of theirs: 1 for unit vectors."""
    (nx, ny, nz), (mx, my, mz) = n, m
    ux, uy, uz = ny * mz - nz * my, nz * mx - nx * mz, nx * my - ny * mx
    s = math.sqrt(ux * ux + uy * uy + uz * uz)
    if s <= PARALLEL_TOL * lengths:
        raise IdenticalCircles("great circles coincide")
    return ux / s, uy / s, uz / s


def recover_sphere_rotation(
    x: Vec3, xp: Vec3, y: Vec3, yp: Vec3, *, method: str = "algebraic", tol: float = DEFAULT_TOL
) -> Rotation3:
    """Recover the rotation mapping x to xp and y to yp.

    A point that moves by at most SPHERE_CHORD_MIN is fixed and is the axis under
    either method. Otherwise method picks the axis construction: "algebraic" crosses
    the displacement chords, "geometric" intersects the bisector great circles. The
    angle is the signed turn about the axis of the point that moves more, and the
    result is verified against both point pairs to within tol. Either method raises
    LengthMismatch for unequal arcs, IdentityCorrespondence for two fixed points and
    DegenerateAxis for chords parallel to within PARALLEL_TOL.
    """
    x, xp, y, yp = _as_unit(x), _as_unit(xp), _as_unit(y), _as_unit(yp)
    if method not in ("algebraic", "geometric"):
        raise ValueError(f"unknown method {method!r}; use 'algebraic' or 'geometric'")
    return _recover_sphere(x, xp, y, yp, (method,), tol)[0][0]


def _recover_sphere(x: UnitVector3, xp: UnitVector3, y: UnitVector3, yp: UnitVector3,
                    methods: tuple[str, ...], tol: float) -> list:
    """recover_sphere_rotation on unit vectors under each of `methods` in turn, after one
    check of the arc lengths: per method, (rotation, residual, images of x and y)."""
    _require_isometric(x, xp, y, yp, tol)
    move_x, move_y = x.dist(xp), y.dist(yp)
    fixed = _fixed_points(move_x, move_y)
    p, q = (x, xp) if move_x >= move_y else (y, yp)
    answers = []
    for method in methods:
        if method == "geometric" or any(fixed):
            axis = _axis_geometric(x, xp, y, yp, fixed)
        else:
            axis = _axis_cross(x, xp, y, yp, move_x * move_y)
        rot = Rotation3(axis, rotation_angle_about_axis(axis, p, q))
        images = _images_xyz(rot, (x, y))
        residual = max(_dist_xyz(images[0], (xp.x, xp.y, xp.z)),
                       _dist_xyz(images[1], (yp.x, yp.y, yp.z)))
        if residual > tol:
            raise NotIsometric(
                f"no single rotation maps both points (residual {residual:.3g} > {tol:g})"
            )
        answers.append((rot, residual, images))
    return answers


def compose_sphere_rotations(outer: Rotation3, inner: Rotation3) -> Rotation3:
    """Compose two rotations, inner first, via the matrix product."""
    return axis_angle_from_matrix(rotation_matrix(outer) @ rotation_matrix(inner))


def _compose_sphere_geometric(outer: Rotation3, inner: Rotation3) -> Rotation3:
    """compose_sphere_rotations(outer, inner) from two reflections in planes
    through the origin, held by their normals: with c a great circle through
    both axes, inner is n then c and outer c then m, for n = c turned by
    -inner.angle/2 about inner's axis and m = c turned by +outer.angle/2
    about outer's. Below ANGLE_MIN it is the identity, angle 0 about z."""
    g, h = outer.axis, inner.axis
    gx, gy, gz, hx, hy, hz = g.x, g.y, g.z, h.x, h.y, h.z
    # c = g x d for d = h - g (h + g when g . h < 0): g x h, accurate for h near +-g
    if gx * hx + gy * hy + gz * hz >= 0.0:
        dx, dy, dz = hx - gx, hy - gy, hz - gz
    else:
        dx, dy, dz = hx + gx, hy + gy, hz + gz
    cx, cy, cz = gy * dz - gz * dy, gz * dx - gx * dz, gx * dy - gy * dx
    cn = math.sqrt(cx * cx + cy * cy + cz * cz)
    if cn < PARALLEL_TOL:  # one axis: any circle through it, the longer of g x x and g x y
        cx, cy, cz = gy * 0.0 - gz * 0.0, gz - gx * 0.0, gx * 0.0 - gy
        ex, ey, ez = gy * 0.0 - gz, gz * 0.0 - gx * 0.0, gx - gy * 0.0
        cn, en = math.sqrt(cx * cx + cy * cy + cz * cz), math.sqrt(ex * ex + ey * ey + ez * ez)
        if en > cn:
            cx, cy, cz, cn = ex, ey, ez, en
    c = _unit_xyz(cx / cn, cy / cn, cz / cn)  # as apply_sphere makes c a UnitVector3
    # n and m as apply_sphere gives them; Rotation3(h, -half) folds to half about -h for half > 0
    half = inner.angle / 2.0
    inner_turn = (_unit_xyz(-hx, -hy, -hz), half) if half > 0.0 else ((hx, hy, hz), -half)
    n = _unit_xyz(*_turned(*inner_turn, c))
    m = _unit_xyz(*_turned((gx, gy, gz), outer.angle / 2.0, c))
    angle = 2.0 * _arc(n, m)
    if abs(wrap_angle(angle)) < ANGLE_MIN:
        return Rotation3(UnitVector3(0.0, 0.0, 1.0), 0.0)
    return Rotation3(UnitVector3(*_pole(n, m)), angle)


def axis_angle_from_matrix(m: Mat3) -> Rotation3:
    """Axis and angle of a rotation matrix, given as a Mat3.

    The axis is the +1 eigenvector; its sign is oriented so the
    skew-symmetric part equals sin(angle) [axis]_x with sin(angle) >= 0,
    which pins the angle into [0, pi]. For a half turn the skew part
    vanishes and the eigenvector's canonical sign is kept. The identity
    reports angle 0 about the conventional axis (0, 0, 1). A matrix that is
    not a rotation raises NotARotation, from eig3_rotation, whose axis and
    complex pair (a, b) give the axis and the angle.
    """
    try:
        axis, (a, sn) = eig3_rotation(m)  # a clamped to [-1, 1]; sn the skew part's length
    except IdentityRotation:
        return Rotation3(UnitVector3(0.0, 0.0, 1.0), 0.0)
    r = m.rows
    sx, sy, sz = (r[2][1] - r[1][2]) / 2.0, (r[0][2] - r[2][0]) / 2.0, (r[1][0] - r[0][1]) / 2.0
    # Near a turn of 0 or pi, a one ulp from +-1 moves acos(a) by 1.5e-8
    angle = math.acos(a) if sn >= ACOS_SINE_MIN else math.atan2(sn, a)
    if abs(sn - math.sin(angle)) > SKEW_CHECK_TOL:
        raise InternalCheckError(
            f"skew magnitude {sn:.12g} disagrees with sin(angle) {math.sin(angle):.12g}"
        )
    ax, ay, az = axis.x, axis.y, axis.z
    if sn > SKEW_TOL and ax * sx + ay * sy + az * sz < 0.0:
        ax, ay, az = -ax, -ay, -az
    return Rotation3(UnitVector3(ax, ay, az), angle)

"""Orientation-preserving isometries of the plane.

Rotations carry a pivot point and a counterclockwise angle in (-pi, pi].
Recovery from a segment correspondence is implemented twice: as a linear
solve for (cos t, sin t) followed by a pivot solve, and as a
straightedge-style construction intersecting perpendicular bisectors. The
two routes check each other.
"""

from __future__ import annotations

import math

from .errors import (
    DegenerateBisector,
    DegenerateSegment,
    LengthMismatch,
    ParallelBisectors,
    SingularMatrix,
    ZeroAngle,
)
from .linalg import ANGLE_MIN, COINCIDENT_RTOL, DEFAULT_TOL, SAME_LINE_RTOL
from .linalg import Mat2, Vec2, _value, check_coords, check_tol, cross2, solve2, wrap_angle

__all__ = [
    "Identity2", "Line2", "PlanarIsometry", "Reflection2", "Rotation2", "Segment2", "Translation2",
    "apply_planar", "compose_planar", "compose_reflections", "compose_rotations_planar",
    "orientation_sign", "perpendicular_bisector", "recover_pivot_geometric", "recover_planar",
    "recover_planar_geometric", "reflect", "reflections_for_rotation", "signed_angle",
]


def _finite2(v: Vec2) -> bool:
    return math.isfinite(v.x) and math.isfinite(v.y)


@_value
class Rotation2:
    """Rotation by `angle` radians (counterclockwise) about `pivot`."""

    pivot: Vec2
    angle: float

    def __post_init__(self):
        if not (_finite2(self.pivot) and math.isfinite(self.angle)):
            raise ValueError("rotation parameters must be finite")
        object.__setattr__(self, "angle", wrap_angle(self.angle))


@_value
class Translation2:
    """Translation by the vector `v`."""

    v: Vec2

    def __post_init__(self):
        if not _finite2(self.v):
            raise ValueError("translation vector must be finite")


@_value
class Line2:
    """Line through `point` along the unit vector `direction`."""

    point: Vec2
    direction: Vec2

    def __post_init__(self):
        if not (_finite2(self.point) and _finite2(self.direction)):
            raise ValueError("line parameters must be finite")
        n = self.direction.norm()
        if n == 0.0:
            raise ValueError("line direction must be nonzero")
        if n != 1.0:
            x, y = self.direction.x, self.direction.y
            if n == math.inf:  # the squares overflowed: shrink by the larger component first
                m = max(abs(x), abs(y))
                x, y = x / m, y / m
                n = math.hypot(x, y)
            object.__setattr__(self, "direction", Vec2(x / n, y / n))


@_value
class Reflection2:
    """Mirror across a line."""

    line: Line2


@_value
class Identity2:
    """The do-nothing isometry."""


PlanarIsometry = Rotation2 | Translation2 | Reflection2 | Identity2


@_value
class Segment2:
    """Directed segment with distinct endpoints."""

    a: Vec2
    b: Vec2

    def __post_init__(self):
        if not (_finite2(self.a) and _finite2(self.b)):
            raise ValueError("segment endpoints must be finite")
        scale = max(1.0, self.a.norm(), self.b.norm())
        if self.a.dist(self.b) <= COINCIDENT_RTOL * scale:
            raise DegenerateSegment("segment endpoints coincide")

    def length(self) -> float:
        return self.a.dist(self.b)


def signed_angle(u: Vec2, v: Vec2) -> float:
    """Counterclockwise angle from u to v, in (-pi, pi]."""
    return math.atan2(cross2(u, v), u.dot(v))


def apply_planar(iso: PlanarIsometry, p: Vec2) -> Vec2:
    """Evaluate an isometry at a point."""
    if isinstance(iso, Rotation2):
        # pivot + Mat2.rotation(angle).mv(p - pivot), in its operation order
        q = iso.pivot
        c, s = math.cos(iso.angle), math.sin(iso.angle)
        dx, dy = p.x - q.x, p.y - q.y
        return Vec2(q.x + (c * dx - s * dy), q.y + (s * dx + c * dy))
    if isinstance(iso, Translation2):
        return Vec2(p.x + iso.v.x, p.y + iso.v.y)
    if isinstance(iso, Reflection2):
        return reflect(iso.line, p)
    if isinstance(iso, Identity2):
        return p
    raise TypeError(f"not a planar isometry: {iso!r}")


def reflect(line: Line2, p: Vec2) -> Vec2:
    """Mirror image of p across the line."""
    w = p - line.point
    foot = line.point + line.direction * w.dot(line.direction)
    return foot * 2.0 - p


def orientation_sign(a: Vec2, b: Vec2, c: Vec2) -> int:
    """+1 when a, b, c wind counterclockwise, -1 clockwise, 0 collinear."""
    area2 = cross2(b - a, c - a)
    if area2 > 0.0:
        return 1
    if area2 < 0.0:
        return -1
    return 0


def perpendicular_bisector(a: Vec2, b: Vec2) -> Line2:
    """Locus of points equidistant from a and b."""
    cx, cy = b.x - a.x, b.y - a.y
    if cx == 0.0 and cy == 0.0:
        raise DegenerateBisector("coincident points have no perpendicular bisector")
    return Line2(Vec2((a.x + b.x) * 0.5, (a.y + b.y) * 0.5), Vec2(-cy, cx))


def _intersect_lines(l1: Line2, l2: Line2) -> Vec2 | None:
    """Intersection point, or None when the lines are parallel."""
    p, d, q, e = l1.point, l1.direction, l2.point, l2.direction
    try:
        t = solve2(Mat2(d.x, -e.x, d.y, -e.y), Vec2(q.x - p.x, q.y - p.y)).x
    except SingularMatrix:
        return None
    return Vec2(p.x + d.x * t, p.y + d.y * t)


def _point_scale(*points: Vec2) -> float:
    return max(1.0, *(p.norm() for p in points))


def _translation(v: Vec2, scale: float) -> Translation2 | Identity2:
    """The translation by v, or the identity when v is negligible against `scale`."""
    return Identity2() if v.norm() <= COINCIDENT_RTOL * scale else Translation2(v)


def _isometry(theta: float, translation, pivot_rhs, points: tuple[Vec2, ...]) -> PlanarIsometry:
    """The orientation-preserving isometry with angle `theta`.

    Angles below ANGLE_MIN give the translation by `translation()`, or the
    identity when that vector is negligible against the scale of `points`.
    Any other angle gives the rotation whose pivot p solves
    (I - R) p = pivot_rhs(c, s), R = Mat2.rotation(theta) = [[c, -s], [s, c]];
    pivot_rhs applies R on floats, in the operation order of Mat2.mv.
    """
    if abs(theta) < ANGLE_MIN:
        return _translation(translation(), _point_scale(*points))
    c, s = math.cos(theta), math.sin(theta)
    return Rotation2(solve2(Mat2(1.0 - c, s, -s, 1.0 - c), pivot_rhs(c, s)), theta)


def _check_lengths(src: Segment2, dst: Segment2, tol: float) -> None:
    check_tol(tol)
    check_coords(src.a, src.b, dst.a, dst.b)
    ls, ld = src.length(), dst.length()
    if abs(ls - ld) > tol * max(ls, ld):
        raise LengthMismatch(
            f"segment lengths differ: {ls:.12g} vs {ld:.12g}; no isometry maps one to the other"
        )


def recover_planar(src: Segment2, dst: Segment2, *, tol: float = DEFAULT_TOL) -> PlanarIsometry:
    """Find the orientation-preserving isometry taking src onto dst.

    The chord equation R(src.a - src.b) = dst.a - dst.b is solved for
    (cos t, sin t); segments of equal length make that solution land on
    the unit circle automatically. Angles below ANGLE_MIN yield a
    translation (the identity when the translation vector is negligible),
    anything else a rotation with pivot solved from
    (I - R) p = dst.a - R src.a.
    """
    _check_lengths(src, dst, tol)
    d = src.a - src.b
    try:
        cs = solve2(Mat2(d.x, -d.y, d.y, d.x), dst.a - dst.b)
    except SingularMatrix as exc:
        raise DegenerateSegment("source segment endpoints coincide") from exc
    theta = math.atan2(cs.y, cs.x)
    p, q = src.a, dst.a
    return _isometry(
        theta,
        lambda: q - p,
        lambda c, s: Vec2(q.x - (c * p.x - s * p.y), q.y - (s * p.x + c * p.y)),  # q - R p
        (src.a, src.b, dst.a, dst.b),
    )


def _fixed_endpoints(src: Segment2, dst: Segment2, scale: float) -> tuple[bool, bool]:
    """Whether src.a and src.b stay put, to COINCIDENT_RTOL of `scale`, the
    _point_scale of the four points."""
    cut = COINCIDENT_RTOL * scale
    return dst.a.dist(src.a) <= cut, dst.b.dist(src.b) <= cut


def recover_pivot_geometric(src: Segment2, dst: Segment2) -> Vec2:
    """Pivot of the rotation taking src onto dst, by construction.

    The pivot is equidistant from every point and its image, so it lies on
    the perpendicular bisector of (src.a, dst.a) and on that of
    (src.b, dst.b); their intersection is returned. A fixed endpoint is
    its own pivot. Coincident bisectors (a segment collinear with the pivot,
    as in half turns) are a mirror taking src onto dst; the rotation is that
    reflection then the one in line dst, so the two lines cross at the pivot.
    Parallel bisectors mean a translation and raise ParallelBisectors.
    """
    return _pivot_geometric(src, dst, _point_scale(src.a, src.b, dst.a, dst.b))


def _pivot_geometric(src: Segment2, dst: Segment2, scale: float) -> Vec2:
    """recover_pivot_geometric, given the _point_scale of the four points."""
    fixed_a, fixed_b = _fixed_endpoints(src, dst, scale)
    if fixed_a and fixed_b:
        raise DegenerateBisector("both endpoints are fixed; any point is a candidate pivot")
    if fixed_a:
        return src.a
    if fixed_b:
        return src.b

    la = perpendicular_bisector(src.a, dst.a)
    lb = perpendicular_bisector(src.b, dst.b)
    point = _intersect_lines(la, lb)
    if point is None:
        offset = abs(cross2(la.direction, lb.point - la.point))
        if offset <= SAME_LINE_RTOL * scale:
            iso = compose_reflections(Reflection2(la), Reflection2(Line2(dst.a, dst.b - dst.a)))
            if isinstance(iso, Rotation2):
                return iso.pivot
            raise ParallelBisectors("correspondence is a translation; no pivot exists")
        raise ParallelBisectors("bisectors are parallel; the correspondence is a translation")
    return point


def recover_planar_geometric(src: Segment2, dst: Segment2, *, tol: float = DEFAULT_TOL) -> PlanarIsometry:
    """Geometric sibling of recover_planar.

    Equal displacement chords identify a translation; otherwise the pivot
    comes from recover_pivot_geometric and the angle is read at the pivot
    off the endpoint that moves more, the one farther from it.
    """
    _check_lengths(src, dst, tol)
    da = dst.a - src.a
    db = dst.b - src.b
    scale = _point_scale(src.a, src.b, dst.a, dst.b)
    if da.dist(db) <= ANGLE_MIN * src.length():
        return _translation(da, scale)
    pivot = _pivot_geometric(src, dst, scale)
    p, q = (src.a, dst.a) if da.norm() >= db.norm() else (src.b, dst.b)
    # signed_angle(p - pivot, q - pivot), in its operation order
    ux, uy, vx, vy = p.x - pivot.x, p.y - pivot.y, q.x - pivot.x, q.y - pivot.y
    cross, dot = ux * vy - uy * vx, ux * vx + uy * vy
    if not (math.isfinite(cross) and math.isfinite(dot)):
        raise ParallelBisectors(f"the pivot {pivot} is too far away to read the angle at it")
    return Rotation2(pivot, math.atan2(cross, dot))


def _anchored_form(iso: PlanarIsometry) -> tuple[float, Vec2, Vec2]:
    """Write an orientation-preserving isometry as x -> q + R_theta (x - p).

    A rotation is anchored at its pivot (p = q = pivot), a translation by v at
    the origin (p = 0, q = v), the identity at p = q = 0; a reflection has none.
    """
    if isinstance(iso, Rotation2):
        return iso.angle, iso.pivot, iso.pivot
    origin = Vec2(0.0, 0.0)
    if isinstance(iso, Translation2):
        return 0.0, origin, iso.v
    if isinstance(iso, Identity2):
        return 0.0, origin, origin
    if isinstance(iso, Reflection2):
        raise ValueError("mixed reflection composites are orientation-reversing")
    raise TypeError(f"not a planar isometry: {iso!r}")


def compose_planar(outer: PlanarIsometry, inner: PlanarIsometry) -> PlanarIsometry:
    """Compose two isometries (inner first) within the orientation-preserving
    subgroup; two reflections are also accepted since their composite is
    orientation-preserving again.

    With outer x -> q1 + R1 (x - p1) and inner x -> q2 + R2 (x - p2), the
    composite is x -> R x + c with R = R1 R2 and c = q1 + R1 q2 - R p2 - R1 p1;
    a composite translation is the displacement (q1 - p2) - R1 (p1 - q2)
    of the inner anchor. The identity cut-off is relative to the anchors'
    scale. Rotations about G and H whose angles cancel compose to the
    translation by (I - R_alpha)(G - H): expand
    G + R_alpha(H + R_{-alpha}(x - H) - G). G = H gives the identity, as
    it must; the shortcut G + H is not a valid translation vector.
    """
    if isinstance(outer, Reflection2) and isinstance(inner, Reflection2):
        return compose_reflections(inner, outer)
    t1, p1, q1 = _anchored_form(outer)
    t2, p2, q2 = _anchored_form(inner)
    c1, s1 = math.cos(t1), math.sin(t1)
    return _isometry(
        wrap_angle(t1 + t2),
        lambda: (q1 - p2) - Mat2.rotation(t1).mv(p1 - q2),
        lambda c, s: Vec2(  # q1 + R1 q2 - R p2 - R1 p1
            q1.x + (c1 * q2.x - s1 * q2.y) - (c * p2.x - s * p2.y) - (c1 * p1.x - s1 * p1.y),
            q1.y + (s1 * q2.x + c1 * q2.y) - (s * p2.x + c * p2.y) - (s1 * p1.x + c1 * p1.y),
        ),
        (p1, q1, p2, q2),
    )


compose_rotations_planar = compose_planar


def _compose_planar_geometric(outer: Rotation2, inner: Rotation2) -> PlanarIsometry:
    """compose_planar(outer, inner) from two reflections (H. S. M. Coxeter,
    Introduction to Geometry, 1969, section 3.2): with l the line through
    both pivots, inner is n then l and outer l then m, for n through inner's
    pivot at -inner.angle/2 to l and m through outer's at +outer.angle/2."""
    g, h = outer.pivot, inner.pivot
    phi = math.atan2(g.y - h.y, g.x - h.x)  # 0, the x axis, when the pivots coincide
    a, b = phi - inner.angle / 2.0, phi + outer.angle / 2.0
    n = Line2(inner.pivot, Vec2(math.cos(a), math.sin(a)))
    m = Line2(outer.pivot, Vec2(math.cos(b), math.sin(b)))
    return compose_reflections(Reflection2(n), Reflection2(m))


def compose_reflections(first: Reflection2, second: Reflection2) -> PlanarIsometry:
    """Reflect across `first`, then across `second`.

    The composite turns by twice the signed angle from the first line to
    the second, about their crossing. Below ANGLE_MIN, as for every plane
    composite, it is the translation taking the first line's point to its
    image instead, or the identity when that translation is negligible.
    """
    angle = wrap_angle(2.0 * signed_angle(first.line.direction, second.line.direction))
    if abs(angle) < ANGLE_MIN:
        n = second.line.direction.perp()
        v = n * (2.0 * (second.line.point - first.line.point).dot(n))
        return _translation(v, _point_scale(first.line.point, second.line.point))
    return Rotation2(_intersect_lines(first.line, second.line), angle)


def reflections_for_rotation(rot: Rotation2) -> tuple[Reflection2, Reflection2]:
    """Split a rotation into two line reflections through its pivot.

    Any two lines through the pivot separated by half the angle work; for
    a deterministic answer the first is taken parallel to the x axis and
    the second at angle/2, so composing first-then-second restores rot.
    """
    if rot.angle == 0.0:
        raise ZeroAngle("a zero rotation has no meaningful reflection pair")
    half = rot.angle / 2.0
    first = Reflection2(Line2(rot.pivot, Vec2(1.0, 0.0)))
    second = Reflection2(Line2(rot.pivot, Vec2(math.cos(half), math.sin(half))))
    return first, second

"""Every float kernel against the vector expression it replaced.

The hot geometric primitives compute on floats instead of building
intermediate Vec2/Vec3 values or 2x2 matrices. Each keeps the operation
order of the expression it replaced, so its output must match that
expression bit for bit. The replaced expressions live on here as oracles,
with a test-local 2x2 matrix model for the plane's, and are compared
through their IEEE 754 bit patterns: `==` would let a -0.0 pass for 0.0.
"""

import itertools
import math
import struct
from typing import NamedTuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import isometry_lab.cli as cli
import isometry_lab.figures as figures
import isometry_lab.planar as planar
import isometry_lab.spherical as spherical
from isometry_lab import (
    AntipodalPoints,
    CoincidentPoints,
    DegenerateAxis,
    DegenerateBisector,
    GeometryError,
    IdenticalCircles,
    IdentityCorrespondence,
    IdentityRotation,
    InternalCheckError,
    Line2,
    Mat3,
    NonUnitVector,
    NotARotation,
    ParallelBisectors,
    PointOnAxis,
    Rotation2,
    Rotation3,
    Segment2,
    SingularMatrix,
    SphereSegment,
    Translation2,
    UnitVector3,
    Vec2,
    Vec3,
    apply_planar,
    apply_sphere,
    axis_angle_from_matrix,
    bisector_great_circle,
    chord_arcsin_angle,
    compose_planar,
    compose_reflections,
    cross,
    cross2,
    eig3_rotation,
    intersect_great_circles,
    perpendicular_bisector,
    recover_planar_geometric,
    recover_sphere_rotation,
    rotation_angle_about_axis,
    rotation_matrix,
    signed_angle,
    solve2,
    wrap_angle,
)
from isometry_lab.linalg import (
    ACOS_SINE_MIN, ANGLE_MIN, AXIS_SIGN_TOL, COINCIDENT_RTOL, FIGURE_CLIP_TOL, FIGURE_MIN_ARC,
    FIGURE_MIN_SPAN, IDENTITY_TOL,
    MAX_COORD, NORMALIZE_MIN, ON_AXIS_TOL, PARALLEL_TOL, ROTATION_TOL, SAME_LINE_RTOL,
    SKEW_CHECK_TOL, SKEW_TOL, SOLVE2_RTOL, SPHERE_CHORD_MIN, UNIT_TOL, _solve2, require_rotation,
)

_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-300, 1.0, -1.0,
          MAX_COORD, -MAX_COORD, 1e-150, 123456.789)


# Full 53-bit mantissas in [-2, 2]: sums of these round, so a changed
# operation order shows, where hypothesis's favoured simple floats add exactly
generic = st.integers(-(2**53), 2**53).map(lambda n: n * 2.0**-52)
exponents = st.integers(-320, 150)
coords = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(-MAX_COORD, MAX_COORD, allow_nan=False),
    generic,
    st.builds(lambda m, e: m * 10.0**e, generic, exponents),  # mixed magnitudes
)


def _vectors(cls, n):
    """Independent coordinates, or coordinates of one common magnitude."""
    return st.one_of(
        st.builds(cls, *[coords] * n),
        st.builds(lambda ms, e: cls(*(m * 10.0**e for m in ms)),
                  st.tuples(*[generic] * n), exponents),
    )


vec2s = _vectors(Vec2, 2)
vec3s = _vectors(Vec3, 3)
angles = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 1e-300, -5e-324, ANGLE_MIN]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


def _bits(value):
    """The exact bits of a float, of every float in a vector, line or sequence,
    or of an exception's type and message. A Vec3 and the tuple of its three
    floats have the same bits."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, (Vec2, Vec3)):
        return tuple(_bits(getattr(value, f)) for f in ("x", "y", "z") if hasattr(value, f))
    if isinstance(value, Line2):
        return _bits(value.point), _bits(value.direction)
    if isinstance(value, Rotation2):
        return "rotation", _bits(value.pivot), _bits(value.angle)
    if isinstance(value, Translation2):
        return "translation", _bits(value.v)
    if isinstance(value, BaseException):
        return type(value).__name__, str(value)
    return repr(value)


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except (GeometryError, InternalCheckError, ArithmeticError, ValueError) as exc:
        return _bits(exc)


# ---------------------------------------------------------------------------
# the replaced expressions


class _Mat2(NamedTuple):
    """2x2 matrix, row major, as the plane oracles multiply it."""

    m00: float
    m01: float
    m10: float
    m11: float

    @staticmethod
    def rotation(theta):
        """Counterclockwise rotation about the origin."""
        c, s = math.cos(theta), math.sin(theta)
        return _Mat2(c, -s, s, c)

    def mv(self, v):
        return Vec2(self.m00 * v.x + self.m01 * v.y, self.m10 * v.x + self.m11 * v.y)


def _apply_planar_oracle(iso, p):
    if isinstance(iso, Rotation2):
        return iso.pivot + _Mat2.rotation(iso.angle).mv(p - iso.pivot)
    return p + iso.v


class _Line(NamedTuple):
    """A line as the plane oracles build it: the bits of a Line2 of the same fields."""

    point: Vec2
    direction: Vec2


def _direction_oracle(direction):
    """Line2's direction, as it normalized a Vec2."""
    n = direction.norm()
    if n == 0.0:
        raise ValueError("line direction must be nonzero")
    if n != 1.0:
        x, y = direction.x, direction.y
        if not NORMALIZE_MIN <= n < math.inf:
            m = max(abs(x), abs(y))
            x, y = x / m, y / m
            n = math.hypot(x, y)
        direction = Vec2(x / n, y / n)
    return direction


def _solve2_oracle(m, b):
    det = m.m00 * m.m11 - m.m01 * m.m10
    row = max(math.hypot(m.m00, m.m01), math.hypot(m.m10, m.m11))
    if abs(det) <= SOLVE2_RTOL * row * row:
        raise SingularMatrix(f"2x2 system is singular (det={det:.3g})")
    return Vec2((b.x * m.m11 - m.m01 * b.y) / det, (m.m00 * b.y - b.x * m.m10) / det)


def _bisector_parts_oracle(a, b):
    chord = b - a
    if chord.norm() == 0.0:
        raise DegenerateBisector("coincident points have no perpendicular bisector")
    mid, d = (a + b) * 0.5, chord.perp()
    return mid.x, mid.y, d.x, d.y


def _bisector_oracle(a, b):
    mx, my, dx, dy = _bisector_parts_oracle(a, b)
    return _Line(Vec2(mx, my), _direction_oracle(Vec2(dx, dy)))


def _intersect_oracle(l1, l2):
    m = _Mat2(l1.direction.x, -l2.direction.x, l1.direction.y, -l2.direction.y)
    b = l2.point - l1.point
    try:
        ts = _solve2_oracle(m, b)
    except SingularMatrix:
        return None
    return l1.point + l1.direction * ts.x


def _compose_reflections_oracle(l1, l2):
    angle = wrap_angle(2.0 * signed_angle(l1.direction, l2.direction))
    if abs(angle) < ANGLE_MIN:
        n = l2.direction.perp()
        v = n * (2.0 * (l2.point - l1.point).dot(n))
        return planar._translation(v, planar._point_scale(l1.point, l2.point))
    return Rotation2(_intersect_oracle(l1, l2), angle)


def _pivot_oracle(src, dst, scale):
    fixed_a, fixed_b = planar._fixed_endpoints(src, dst, scale)
    if fixed_a and fixed_b:
        raise DegenerateBisector("both endpoints are fixed; any point is a candidate pivot")
    if fixed_a or fixed_b:
        return src.a if fixed_a else src.b
    la = _bisector_oracle(src.a, dst.a)
    lb = _bisector_oracle(src.b, dst.b)
    point = _intersect_oracle(la, lb)
    if point is None:
        if abs(cross2(la.direction, lb.point - la.point)) <= SAME_LINE_RTOL * scale:
            iso = _compose_reflections_oracle(la, _Line(dst.a, _direction_oracle(dst.b - dst.a)))
            if isinstance(iso, Rotation2):
                return iso.pivot
            raise ParallelBisectors("correspondence is a translation; no pivot exists")
        raise ParallelBisectors("bisectors are parallel; the correspondence is a translation")
    return point


def _recover_planar_geometric_oracle(src, dst):
    planar._check_lengths(src, dst, 1e-9)
    da = dst.a - src.a
    db = dst.b - src.b
    scale = planar._point_scale(src.a, src.b, dst.a, dst.b)
    if (da - db).norm() <= ANGLE_MIN * src.length():
        if da.norm() <= COINCIDENT_RTOL * scale:
            return planar.Identity2()
        return Translation2(da)
    pivot = _pivot_oracle(src, dst, scale)
    if da.norm() >= db.norm():
        theta = signed_angle(src.a - pivot, dst.a - pivot)
    else:
        theta = signed_angle(src.b - pivot, dst.b - pivot)
    return Rotation2(pivot, theta)


def _compose_planar_geometric_oracle(outer, inner):
    d = outer.pivot - inner.pivot
    phi = math.atan2(d.y, d.x)
    a, b = phi - inner.angle / 2.0, phi + outer.angle / 2.0
    n = _Line(inner.pivot, _direction_oracle(Vec2(math.cos(a), math.sin(a))))
    m = _Line(outer.pivot, _direction_oracle(Vec2(math.cos(b), math.sin(b))))
    return _compose_reflections_oracle(n, m)


def _rotation_angle_oracle(axis, x, xp):
    u = x - axis * x.dot(axis)
    v = xp - axis * xp.dot(axis)
    if u.norm() < ON_AXIS_TOL or v.norm() < ON_AXIS_TOL:
        raise PointOnAxis("point lies on the rotation axis; its turn angle is undefined")
    angle = math.atan2(axis.dot(cross(u, v)), u.dot(v))
    return math.pi if angle <= -math.pi else angle


def _reflection_probes_oracle(rot):
    return tuple(rot.pivot + d for d in (Vec2(1.0, 0.0), *cli._PLANE_PROBE))


def _circle_oracle(normal):
    n = normal.normalized()
    e1 = cross(n, Vec3(0.0, 0.0, 1.0) if abs(n.z) < 0.9 else Vec3(1.0, 0.0, 0.0))
    e1 = e1.normalized()
    e2 = cross(n, e1)
    return [
        e1 * math.cos(2.0 * math.pi * k / 96) + e2 * math.sin(2.0 * math.pi * k / 96)
        for k in range(96 + 1)
    ]


def _geodesic_oracle(a, b):
    a = a.normalized()
    b = b.normalized()
    omega = math.acos(max(-1.0, min(1.0, a.dot(b))))
    if omega < FIGURE_MIN_ARC:
        return [a, b]
    so = math.sin(omega)
    return [
        (a * math.sin((1.0 - t) * omega) + b * math.sin(t * omega)) * (1.0 / so)
        for t in (k / 32 for k in range(32 + 1))
    ]


# ---------------------------------------------------------------------------
# the kernels


@given(vec2s, vec2s)
@example(Vec2(0.0, -0.0), Vec2(-0.0, 0.0))
@example(Vec2(MAX_COORD, -MAX_COORD), Vec2(-MAX_COORD, MAX_COORD))
def test_vec2_dist_is_the_norm_of_the_difference(a, b):
    assert _bits(a.dist(b)) == _bits((a - b).norm())


@given(vec3s, vec3s)
@example(Vec3(0.0, -0.0, 5e-324), Vec3(-0.0, 0.0, -5e-324))
@example(Vec3(MAX_COORD, 1e-300, -MAX_COORD), Vec3(-MAX_COORD, 1.0, MAX_COORD))
def test_vec3_dist_is_the_norm_of_the_difference(a, b):
    assert _bits(a.dist(b)) == _bits((a - b).norm())
    unit = UnitVector3(0.6, 0.0, 0.8)
    assert _bits(unit.dist(a)) == _bits((unit - a).norm())


@given(vec2s, angles, vec2s)
@example(Vec2(-0.0, 0.0), -0.0, Vec2(0.0, -0.0))
@example(Vec2(MAX_COORD, 1e-300), math.pi, Vec2(-MAX_COORD, 5e-324))
def test_apply_planar_rotation_is_the_matrix_expression(pivot, angle, p):
    rot = Rotation2(pivot, angle)
    assert _outcome(apply_planar, rot, p) == _outcome(_apply_planar_oracle, rot, p)


@given(vec2s, vec2s)
@example(Vec2(-0.0, -0.0), Vec2(-0.0, 0.0))
def test_apply_planar_translation_is_the_sum(v, p):
    tr = Translation2(v)
    assert _bits(apply_planar(tr, p)) == _bits(_apply_planar_oracle(tr, p))


plane_isometries = st.one_of(
    st.builds(Rotation2, vec2s, angles), st.builds(Translation2, vec2s), st.just(planar.Identity2()))


@given(plane_isometries, st.lists(vec2s, max_size=4))
@example(Rotation2(Vec2(-0.0, 0.0), -0.0), [Vec2(0.0, -0.0), Vec2(-0.0, -0.0)])
@example(Rotation2(Vec2(MAX_COORD, -MAX_COORD), math.pi), [Vec2(-MAX_COORD, MAX_COORD)])
@example(Translation2(Vec2(-0.0, -0.0)), [Vec2(-0.0, 0.0), Vec2(MAX_COORD, -MAX_COORD)])
@example(planar.Identity2(), [Vec2(-0.0, 5e-324)])
def test_plane_images_are_apply_planar(iso, points):
    # the cross-check's targets, route images, residual and discrepancy: floats, not Vec2s
    got = planar._images_xy(iso, [(p.x, p.y) for p in points])
    assert _bits(got) == _bits([apply_planar(iso, p) for p in points])
    for p, q in zip(points, reversed(points)):
        assert _bits(math.dist((p.x, p.y), (q.x, q.y))) == _bits(p.dist(q))


def test_plane_images_refuse_a_reflection():
    mirror = Line2(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
    with pytest.raises(TypeError):
        planar._images_xy(mirror, [(1.0, 2.0)])


@given(vec2s)
@example(Vec2(1.0, -0.0))  # unit already
@example(Vec2(5e-324, -5e-324))  # subnormal
@example(Vec2(9e-151, 0.0))  # just short of NORMALIZE_MIN: rescaled
@example(Vec2(NORMALIZE_MIN, -0.0))  # at it: divided as it stands
@example(Vec2(MAX_COORD, -MAX_COORD))
@example(Vec2(-0.0, 0.0))  # no direction: both raise
def test_a_line_direction_is_the_vector_normalization(d):
    assert _outcome(planar._unit_xy, d.x, d.y) == _outcome(_direction_oracle, d)
    assert _outcome(lambda: Line2(Vec2(0.0, 0.0), d).direction) == _outcome(_direction_oracle, d)


def test_a_line_direction_of_edge_coordinates_is_the_vector_normalization():
    for x, y in itertools.product(_EDGES, repeat=2):
        d = Vec2(x, y)
        assert _outcome(planar._unit_xy, x, y) == _outcome(_direction_oracle, d), d
        assert _outcome(lambda: Line2(Vec2(0.0, 0.0), d).direction) == _outcome(_direction_oracle, d)


@given(st.tuples(*[coords] * 4), vec2s)
@example((1.0, 0.0, 0.0, SOLVE2_RTOL), Vec2(1.0, -0.0))  # |det| at the SOLVE2_RTOL cut: singular
@example((1.0, 0.0, 0.0, math.nextafter(SOLVE2_RTOL, 1.0)), Vec2(1.0, -0.0))  # just above it
@example((-0.0, 1.0, 1.0, 0.0), Vec2(-0.0, 5e-324))
@example((0.0, 0.0, 0.0, 0.0), Vec2(1.0, 1.0))
def test_the_2x2_solve_is_cramers_rule(m, b):
    m = _Mat2(*m)
    assert _outcome(_solve2, *m, b.x, b.y) == _outcome(_solve2_oracle, m, b)
    assert _outcome(solve2, *m, b.x, b.y) == _outcome(_solve2_oracle, m, b)


@given(vec2s, vec2s)
@example(Vec2(1.0, -0.0), Vec2(1.0, 0.0))  # coincident: both raise
@example(Vec2(MAX_COORD, -0.0), Vec2(MAX_COORD, -0.0))
@example(Vec2(5e-324, 0.0), Vec2(0.0, 0.0))
def test_perpendicular_bisector_is_the_vector_construction(a, b):
    assert _outcome(planar._bisector_xy, a.x, a.y, b.x, b.y) == _outcome(_bisector_parts_oracle, a, b)
    assert _outcome(perpendicular_bisector, a, b) == _outcome(_bisector_oracle, a, b)


def _parts(line):
    return line.point.x, line.point.y, line.direction.x, line.direction.y


@given(vec2s, vec2s, vec2s, vec2s)
@example(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(-0.0, 1.0), Vec2(1.0, 0.0))  # parallel
@example(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 0.0), Vec2(-1.0, -0.0))  # the same line
@example(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(1.0, 1e-12))  # nearly parallel
def test_intersect_lines_is_the_vector_construction(p, d, q, e):
    try:
        l1, l2 = Line2(p, d), Line2(q, e)
    except ValueError:  # a zero direction, or one whose norm overflows
        return
    assert _outcome(planar._crossing_xy, *_parts(l1), *_parts(l2)) == _outcome(_intersect_oracle, l1, l2)


@given(vec2s, vec2s, vec2s, st.one_of(vec2s, st.sampled_from([1.0, -1.0])))
@example(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 0.75e-12), Vec2(1.0, 0.0))  # the identity
@example(Vec2(0.0, 0.0), Vec2(1.0, -0.0), Vec2(0.0, 1.0), Vec2(-1.0, 0.0))  # a translation
@example(Vec2(0.1, 0.1), Vec2(3.0, 1.0), Vec2(1.9, 0.1), -1.0)  # one that rounds
@example(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(-0.0, 1.0), Vec2(1.0, 1.0))  # a quarter turn
def test_compose_reflections_is_the_vector_construction(p, d, q, e):
    # e as a sign: the second mirror parallel to the first, a translation
    try:
        l1, l2 = Line2(p, d), Line2(q, d * e if isinstance(e, float) else e)
    except ValueError:
        return
    assert _outcome(compose_reflections, l1, l2) == _outcome(_compose_reflections_oracle, l1, l2)


@given(vec2s, vec2s, vec2s, angles)
@example(Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-0.0, 0.0), 0.0)  # the identity
@example(Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(1.0, 0.0), 0.5)  # src.a is the pivot
@example(Vec2(1.0, 0.0), Vec2(2.0, 0.0), Vec2(0.0, 0.0), math.pi)  # collinear half turn
def test_recover_planar_geometric_is_its_vector_body(a, b, pivot, angle):
    try:
        src = Segment2(a, b)
        rot = Rotation2(pivot, angle)
        dst = Segment2(apply_planar(rot, a), apply_planar(rot, b))
    except (GeometryError, ArithmeticError, ValueError):
        return
    assert _outcome(recover_planar_geometric, src, dst) == _outcome(
        _recover_planar_geometric_oracle, src, dst
    )


@given(vec2s, angles, vec2s, angles)
@example(Vec2(0.0, -0.0), 1.0, Vec2(-0.0, 0.0), 0.5)
@example(Vec2(-1.0, -0.0), 1.0, Vec2(1.0, 0.0), 0.5)  # phi is -pi, not pi
def test_compose_planar_geometric_is_its_vector_body(g, alpha, h, beta):
    outer, inner = Rotation2(g, alpha), Rotation2(h, beta)
    assert _outcome(planar._compose_planar_geometric, outer, inner) == _outcome(
        _compose_planar_geometric_oracle, outer, inner
    )


units = st.tuples(generic, generic, generic).filter(lambda c: max(map(abs, c)) > 1e-3).map(
    lambda c: UnitVector3(*(x / math.sqrt(c[0] ** 2 + c[1] ** 2 + c[2] ** 2) for x in c))
)


@given(units, st.one_of(units, vec3s), st.one_of(units, vec3s))
@example(UnitVector3(0.0, 0.0, 1.0), Vec3(1.0, -0.0, 0.0), Vec3(-1.0, 0.0, -0.0))
@example(UnitVector3(0.0, 0.0, 1.0), Vec3(0.0, 0.0, 1.0), Vec3(1.0, 0.0, 0.0))
def test_rotation_angle_about_axis_is_the_vector_expression(axis, x, xp):
    assert _outcome(rotation_angle_about_axis, axis, x, xp) == _outcome(
        _rotation_angle_oracle, axis, x, xp
    )


@given(vec2s, angles)
@example(Vec2(-0.0, -0.0), 0.7)
@example(Vec2(MAX_COORD, -MAX_COORD), -1.0)
def test_reflection_probes_are_the_pivot_sums(pivot, theta):
    # the probes are the only inputs of the residual run() reports
    captured = []
    real = cli.apply_planar

    def spy(iso, p):
        captured.append(p)
        return real(iso, p)

    cli.apply_planar = spy
    try:
        cli._run_plane_reflections({"pivot": pivot, "theta": theta}, "both", 1e-9)
    except (GeometryError, ArithmeticError, ValueError):
        return
    finally:
        cli.apply_planar = real
    rot = Rotation2(pivot, theta)
    want = [_bits(p) for p in _reflection_probes_oracle(rot) for _ in range(2)]
    assert [_bits(p) for p in captured] == want


def test_compose_planar_of_signed_zero_pivots_turns_about_positive_zeros():
    # anchor + d / (1 - e^{it}) is (-0.0, 0.0) here; a -0.0 pivot would print as "-0.0"
    got = compose_planar(Rotation2(Vec2(0.0, -0.0), 1.0), Rotation2(Vec2(-0.0, 0.0), 0.5))
    assert _bits(got) == _bits(Rotation2(Vec2(0.0, 0.0), 1.5))


_signed = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5])
_mixed = st.one_of(_signed, generic)
signed_vec3s = st.one_of(  # +-0.0 components, axes and diagonals
    st.builds(Vec3, _signed, _signed, _signed),
    st.builds(Vec3, _mixed, _mixed, _mixed),
)


@given(st.one_of(signed_vec3s, units, vec3s))
@example(Vec3(-0.0, 0.0, 1.0))
@example(Vec3(0.0, -0.0, -1.0))
@example(Vec3(1.0, -0.0, 0.0))
@example(Vec3(0.0, 0.43588989435406733, 0.9))  # |n.z| at the 0.9 frame switch
@example(Vec3(0.0, -0.0, 0.0))  # no plane: both raise
def test_circle_samples_are_the_vec3_expression(normal):
    assert _outcome(figures._circle_samples, normal) == _outcome(_circle_oracle, normal)


def _turned(a, u, theta):
    """The unit vector theta radians from unit a, towards u."""
    w = u - a * a.dot(u)
    if w.norm() < 1e-3:
        w = cross(a, Vec3(0.0, 0.0, 1.0) if abs(a.z) < 0.9 else Vec3(1.0, 0.0, 0.0))
    w = w.normalized()
    return a * math.cos(theta) + w * math.sin(theta)


# arcs of 0.1 to 100 times FIGURE_MIN_ARC, and within 1e-7 of a half turn
arc_angles = st.one_of(
    st.floats(-1.0, 2.0).map(lambda e: FIGURE_MIN_ARC * 10.0**e),
    st.floats(1e-16, 1e-7).map(lambda d: math.pi - d),
    st.floats(0.0, math.pi),
)


@given(units, units, arc_angles)
def test_geodesic_samples_are_the_vec3_expression_on_short_and_antipodal_arcs(a, u, theta):
    b = _turned(a, u, theta)
    assert _outcome(figures._geodesic_samples, a, b) == _outcome(_geodesic_oracle, a, b)


@given(st.one_of(signed_vec3s, units, vec3s), st.one_of(signed_vec3s, units, vec3s))
@example(Vec3(1.0, -0.0, 0.0), Vec3(-1.0, 0.0, -0.0))  # antipodal
@example(Vec3(1.0, 0.0, 0.0), Vec3(1.0, 1e-10, -0.0))  # shorter than FIGURE_MIN_ARC
@example(Vec3(1.0, 0.0, 0.0), Vec3(math.cos(2e-8), math.sin(2e-8), 0.0))  # just above it
@example(Vec3(-0.0, 0.6, 0.8), Vec3(0.0, -0.6, -0.8 + 1e-12))  # nearly antipodal
@example(Vec3(0.0, -0.0, 0.0), Vec3(1.0, 0.0, 0.0))  # no direction: both raise
def test_geodesic_samples_are_the_vec3_expression(a, b):
    assert _outcome(figures._geodesic_samples, a, b) == _outcome(_geodesic_oracle, a, b)


# ---------------------------------------------------------------------------
# the planar renderer: the replaced Vec2 mapper and render body, then the kernels


class _Vec2MapperOracle:
    """World-to-pixel transform with uniform scale and a y flip."""

    def __init__(self, spec):
        pts = []
        for el in spec.elements:
            if isinstance(el, figures.Marker):
                pts.append(el.at)
            elif isinstance(el, figures.SegmentElement):
                pts.extend((el.a, el.b))
            elif isinstance(el, figures.ArcElement):
                r = el.radius
                pts.extend((el.center + Vec2(r, r), el.center - Vec2(r, r)))
        if not pts:
            pts = [Vec2(-1.0, -1.0), Vec2(1.0, 1.0)]
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        cx, cy = (min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0
        span = max(max(xs) - min(xs), max(ys) - min(ys), FIGURE_MIN_SPAN) * 1.25
        self.cx, self.cy, self.span = cx, cy, span
        self.scale = min(spec.width, spec.height) / span
        self.w, self.h = spec.width, spec.height
        half = span / 2.0
        self.window = (cx - half, cx + half, cy - half, cy + half)

    def to_px(self, p):
        return (
            self.w / 2.0 + (p.x - self.cx) * self.scale,
            self.h / 2.0 - (p.y - self.cy) * self.scale,
        )

    def clip_line(self, line):
        xmin, xmax, ymin, ymax = self.window
        p, d = line.point, line.direction
        tmin, tmax = -math.inf, math.inf
        for origin, direction, lo, hi in ((p.x, d.x, xmin, xmax), (p.y, d.y, ymin, ymax)):
            if abs(direction) < FIGURE_CLIP_TOL:
                if origin < lo or origin > hi:
                    return None
                continue
            t1 = (lo - origin) / direction
            t2 = (hi - origin) / direction
            if t1 > t2:
                t1, t2 = t2, t1
            tmin = max(tmin, t1)
            tmax = min(tmax, t2)
        if tmin >= tmax or not math.isfinite(tmin) or not math.isfinite(tmax):
            return None
        return p + d * tmin, p + d * tmax


def _render_planar_oracle(spec):
    fmt, label, mapper, out = figures._fmt, figures._label, _Vec2MapperOracle(spec), []
    for el in spec.elements:
        if isinstance(el, figures.Marker):
            out.extend(figures._marker_svg(*mapper.to_px(el.at), el))
        elif isinstance(el, figures.SegmentElement):
            (x1, y1), (x2, y2) = mapper.to_px(el.a), mapper.to_px(el.b)
            out.append(f'<line class="segment" x1="{fmt(x1)}" y1="{fmt(y1)}" '
                       f'x2="{fmt(x2)}" y2="{fmt(y2)}"{figures._STROKES[el.style]}/>')
            if el.label:
                out.append(label((x1 + x2) / 2 + 5, (y1 + y2) / 2 - 5, el.label))
        elif isinstance(el, figures.LineElement):
            clipped = mapper.clip_line(el.line)
            if clipped is None:
                continue
            (x1, y1), (x2, y2) = mapper.to_px(clipped[0]), mapper.to_px(clipped[1])
            out.append(f'<line class="line" x1="{fmt(x1)}" y1="{fmt(y1)}" '
                       f'x2="{fmt(x2)}" y2="{fmt(y2)}"{figures._STROKES[el.style]}/>')
            if el.label:
                out.append(label(x2 - 20, y2 - 6, el.label))
        elif isinstance(el, figures.ArcElement):
            a0, a1 = el.start, el.end
            if a1 < a0:
                a0, a1 = a1, a0
            p0 = el.center + Vec2(math.cos(a0), math.sin(a0)) * el.radius
            p1 = el.center + Vec2(math.cos(a1), math.sin(a1)) * el.radius
            (x0, y0), (x1, y1) = mapper.to_px(p0), mapper.to_px(p1)
            r = el.radius * mapper.scale
            large = 1 if (a1 - a0) > math.pi else 0
            out.append(f'<path class="arc" d="M {fmt(x0)} {fmt(y0)} '
                       f'A {fmt(r)} {fmt(r)} 0 {large} 0 {fmt(x1)} {fmt(y1)}" fill="none"/>')
            if el.label:
                mid = el.center + Vec2(math.cos((a0 + a1) / 2), math.sin((a0 + a1) / 2)) * (
                    el.radius * 1.25)
                out.append(label(*mapper.to_px(mid), el.label))
    return out


def _line(point, direction):
    try:
        return Line2(point, direction)
    except ValueError:  # a zero or non-finite direction
        return None


# directions on both sides of FIGURE_CLIP_TOL, axis-parallel with either zero,
# and any other
directions = st.one_of(
    st.sampled_from([Vec2(1.0, 0.0), Vec2(-1.0, -0.0), Vec2(0.0, 1.0), Vec2(-0.0, -1.0),
                     Vec2(1e-16, 1.0), Vec2(-9.9e-16, -1.0), Vec2(FIGURE_CLIP_TOL, 1.0),
                     Vec2(1.0, -1.1e-15), Vec2(1.0, 5e-324)]),
    st.floats(-4.0, 4.0).map(lambda t: Vec2(math.cos(t), math.sin(t))),
    vec2s,
)
lines = st.builds(_line, vec2s, directions).filter(lambda line: line is not None)
labels = st.sampled_from(["", "l"])
planar_elements = st.one_of(
    st.builds(figures.Marker, vec2s, labels, st.sampled_from(figures.Marker.STYLES)),
    st.builds(figures.SegmentElement, vec2s, vec2s, st.sampled_from(figures._Styled.STYLES),
              labels),
    st.builds(figures.LineElement, lines, st.sampled_from(figures._Styled.STYLES), labels),
    st.builds(figures.ArcElement, vec2s, coords.map(abs), angles, angles, labels),
)


def _tight(p, offsets):
    """Markers at p and offsets within FIGURE_MIN_SPAN of it: the span floor."""
    return tuple(figures.Marker(Vec2(p.x + dx, p.y + dy)) for dx, dy in ((0.0, 0.0), *offsets))


_offset = st.floats(-FIGURE_MIN_SPAN, FIGURE_MIN_SPAN)
planar_specs = st.builds(
    lambda els, size: figures.FigureSpec("planar", tuple(els), *size),
    st.one_of(st.lists(planar_elements, max_size=6),  # empty: the default window
              st.builds(_tight, vec2s, st.lists(st.tuples(_offset, _offset), max_size=3))),
    st.sampled_from([(480, 480), (300, 200), (1, 999)]),
)
_SIGNED_ZEROS = figures.FigureSpec("planar", (
    figures.Marker(Vec2(0.0, -0.0)),
    figures.SegmentElement(Vec2(-0.0, 0.0), Vec2(0.0, 0.0)),
    figures.ArcElement(Vec2(-0.0, -0.0), 0.0, -0.0, 0.0),
))


@given(planar_specs)
@example(figures.FigureSpec("planar", ()))
@example(_SIGNED_ZEROS)
# a zero-radius arc at -0.0: its box is (0.0, 0.0) then (-0.0, -0.0), and min
# and max keep the first of equal values
@example(figures.FigureSpec("planar", (figures.ArcElement(Vec2(-0.0, -0.0), 0.0, 0.0, 1.0),)))
@example(figures.FigureSpec("planar", _tight(Vec2(MAX_COORD, -MAX_COORD), [(0.0, 0.0)])))
def test_the_planar_window_is_the_mapper_window(spec):
    m = _Vec2MapperOracle(spec)
    assert _bits(figures._window(spec)) == _bits((m.cx, m.cy, m.span))


@given(planar_specs, lines)
@example(figures.FigureSpec("planar", ()), Line2(Vec2(0.0, 1.25), Vec2(1.0, 0.0)))  # on an edge
@example(figures.FigureSpec("planar", ()), Line2(Vec2(1.25, 1.25), Vec2(1.0, -1.0)))  # a corner
@example(figures.FigureSpec("planar", ()), Line2(Vec2(-0.0, 0.0), Vec2(1e-16, 1.0)))
# direction x at FIGURE_CLIP_TOL, from the window's right edge: the x range cuts t at 0
@example(figures.FigureSpec("planar", ()), Line2(Vec2(1.25, 0.0), Vec2(FIGURE_CLIP_TOL, 1.0)))
@example(_SIGNED_ZEROS, Line2(Vec2(0.0, -0.0), Vec2(-1.0, 1.0)))
@example(figures.FigureSpec("planar", _tight(Vec2(3.0, 4.0), [(1e-7, -2e-7)])),
         Line2(Vec2(3.0, 4.0), Vec2(FIGURE_CLIP_TOL, 1.0)))
def test_clip_line_is_the_mapper_clip(spec, line):
    window = figures._window(spec)
    assert (_outcome(figures._clip_line, line, *window)
            == _outcome(_Vec2MapperOracle(spec).clip_line, line))


@given(planar_specs)
@example(_SIGNED_ZEROS)
@example(figures.FigureSpec("planar", (figures.ArcElement(Vec2(0.5, -2.0), 1.5, 4.0, 0.5, "a"),)))
def test_a_planar_render_is_the_mapper_render(spec):
    # every float written in full, so the pixels compare bit for bit
    real = figures._fmt
    figures._fmt = float.hex
    try:
        assert figures._render_planar(spec) == _render_planar_oracle(spec)
    finally:
        figures._fmt = real


# ---------------------------------------------------------------------------
# the sphere solve: the replaced expressions, then the kernels


def _unit_oracle(x, y, z):
    """The fields UnitVector3.__post_init__ set."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise NonUnitVector("components must be finite")
    n = math.sqrt(x * x + y * y + z * z)
    if abs(n - 1.0) > UNIT_TOL:
        raise NonUnitVector(f"|v| = {n:.9g} is not within {UNIT_TOL:g} of 1")
    if n != 1.0:
        return x / n, y / n, z / n
    return x, y, z


def _as_unit(v):
    return v if isinstance(v, UnitVector3) else UnitVector3(v.x, v.y, v.z)


def _apply_sphere_oracle(rot, p):
    p = _as_unit(p)
    a, c, s = rot.axis, math.cos(rot.angle), math.sin(rot.angle)
    k = (a.x * p.x + a.y * p.y + a.z * p.z) * (1.0 - c)
    return UnitVector3(
        p.x * c + (a.y * p.z - a.z * p.y) * s + a.x * k,
        p.y * c + (a.z * p.x - a.x * p.z) * s + a.y * k,
        p.z * c + (a.x * p.y - a.y * p.x) * s + a.z * k,
    )


def _angular_distance_oracle(p, q):
    return math.atan2(cross(p, q).norm(), p.dot(q))


def _axis_cross_oracle(x, xp, y, yp):
    u = cross(x - xp, y - yp)
    n = u.norm()
    if n <= PARALLEL_TOL * ((x - xp).norm() * (y - yp).norm()):
        raise DegenerateAxis(
            "displacement chords are parallel or zero; no unique axis from the cross product"
        )
    return UnitVector3(u.x / n, u.y / n, u.z / n)


def _bisector_circle_oracle(a, b):
    a, b = _as_unit(a), _as_unit(b)
    chord = a - b
    n = chord.norm()
    if n <= SPHERE_CHORD_MIN:
        raise CoincidentPoints("coincident points have no unique bisector circle")
    # for antipodal a and b: a's equator, normal to the chord 2a
    return UnitVector3(chord.x / n, chord.y / n, chord.z / n)


def _intersect_circles_oracle(n, m):
    u = cross(_as_unit(n), _as_unit(m))
    n = u.norm()
    if n <= PARALLEL_TOL:  # times the unit normals' lengths
        raise IdenticalCircles("great circles coincide")
    p = UnitVector3(u.x / n, u.y / n, u.z / n)
    return p, -p


def _axis_geometric_oracle(x, xp, y, yp):
    dx, dy = (x - xp).norm(), (y - yp).norm()
    if dx <= SPHERE_CHORD_MIN and dy <= SPHERE_CHORD_MIN:
        raise IdentityCorrespondence("both points are fixed; every axis works")
    if dx <= SPHERE_CHORD_MIN:
        return x
    if dy <= SPHERE_CHORD_MIN:
        return y
    cx, cy = _bisector_circle_oracle(x, xp), _bisector_circle_oracle(y, yp)
    try:
        return _intersect_circles_oracle(cx, cy)[0]
    except IdenticalCircles as exc:
        raise DegenerateAxis(
            "bisector circles coincide; pick a second point off the shared bisector"
        ) from exc


def _segment_ends(a, b):
    segment = SphereSegment(a, b)
    return segment.a, segment.b


def _segment_oracle(a, b):
    a, b = _as_unit(a), _as_unit(b)
    if (a - b).norm() <= SPHERE_CHORD_MIN:
        raise CoincidentPoints("segment endpoints coincide")
    if (a + b).norm() <= SPHERE_CHORD_MIN:
        raise AntipodalPoints("antipodal endpoints lie on infinitely many great circles")
    return a, b


def _chord_arcsin_oracle(x, xp):
    s = cross(x, xp).norm() / (x.norm() * xp.norm())
    return math.asin(max(0.0, min(1.0, s)))


def _compose_sphere_geometric_oracle(outer, inner):
    g, h = outer.axis, inner.axis
    c = cross(g, h - g if g.dot(h) >= 0.0 else h + g)
    if c.norm() < PARALLEL_TOL:
        c = max(cross(g, Vec3(1.0, 0.0, 0.0)), cross(g, Vec3(0.0, 1.0, 0.0)), key=Vec3.norm)
    c = c.normalized()
    n = _apply_sphere_oracle(Rotation3(h, -inner.angle / 2.0), c)
    m = _apply_sphere_oracle(Rotation3(g, outer.angle / 2.0), c)
    angle = 2.0 * _angular_distance_oracle(n, m)
    if abs(wrap_angle(angle)) < ANGLE_MIN:
        return Rotation3(UnitVector3(0.0, 0.0, 1.0), 0.0)
    return Rotation3(_intersect_circles_oracle(n, m)[0], angle)


def _identity_gap_oracle(m):
    (a, b, c), (d, e, f), (g, h, i) = m.rows
    return max(abs(a - 1.0), abs(b), abs(c), abs(d), abs(e - 1.0), abs(f),
               abs(g), abs(h), abs(i - 1.0))


def _require_rotation_oracle(m):
    dev = _identity_gap_oracle(Mat3(tuple(zip(*m.rows))) @ m)
    if dev > ROTATION_TOL:
        raise NotARotation(f"matrix is not orthogonal (max |MtM - I| = {dev:.3g})")
    det = m.det()
    if abs(det - 1.0) > ROTATION_TOL:
        raise NotARotation(f"matrix determinant {det:.9g} is not +1")


def _eig3_oracle(m):
    _require_rotation_oracle(m)
    if _identity_gap_oracle(m) < IDENTITY_TOL:
        raise IdentityRotation("matrix is the identity; every direction is fixed")
    a = max(-1.0, min(1.0, (m.trace() - 1.0) / 2.0))
    r = m.rows
    skew = Vec3((r[2][1] - r[1][2]) / 2.0, (r[0][2] - r[2][0]) / 2.0, (r[1][0] - r[0][1]) / 2.0)
    r0 = Vec3(*r[0]) - Vec3(1.0, 0.0, 0.0)
    r1 = Vec3(*r[1]) - Vec3(0.0, 1.0, 0.0)
    r2 = Vec3(*r[2]) - Vec3(0.0, 0.0, 1.0)
    axis = max((cross(r0, r1), cross(r0, r2), cross(r1, r2)), key=lambda v: v.dot(v)).normalized()
    for c in (axis.x, axis.y, axis.z):
        if abs(c) > AXIS_SIGN_TOL:
            axis = axis if c > 0.0 else -axis
            break
    return axis, (a, skew.norm())


def _axis_angle_oracle(m):
    try:
        axis, (a, _) = _eig3_oracle(m)
    except IdentityRotation:
        return Rotation3(UnitVector3(0.0, 0.0, 1.0), 0.0)
    r = m.rows
    skew = Vec3((r[2][1] - r[1][2]) / 2.0, (r[0][2] - r[2][0]) / 2.0, (r[1][0] - r[0][1]) / 2.0)
    sn = skew.norm()
    angle = math.acos(max(-1.0, min(1.0, a))) if sn >= ACOS_SINE_MIN else math.atan2(sn, a)
    if abs(sn - math.sin(angle)) > SKEW_CHECK_TOL:
        raise InternalCheckError(
            f"skew magnitude {sn:.12g} disagrees with sin(angle) {math.sin(angle):.12g}"
        )
    if sn > SKEW_TOL and axis.dot(skew) < 0.0:
        axis = -axis
    return Rotation3(UnitVector3(axis.x, axis.y, axis.z), angle)


def _unit_of(v):
    n = v.norm()
    return UnitVector3(v.x / n, v.y / n, v.z / n) if 1e-3 < n < 1e3 else None


# sphere points with +-0.0 components, on the axes and the diagonals, or generic
sphere_points = st.one_of(units, signed_vec3s.map(_unit_of).filter(lambda u: u is not None))
# vectors off unit length, on both sides of UNIT_TOL
off_units = st.builds(lambda u, d: Vec3(u.x * (1.0 + d), u.y * (1.0 + d), u.z * (1.0 + d)),
                      sphere_points, st.floats(-1.5e-6, 1.5e-6))
turns = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 2.0 * math.pi / 3, 1e-9, 2e-9,
                     ACOS_SINE_MIN, math.pi - 1e-9]),
    st.floats(-10.0, 10.0, allow_nan=False),
)
sphere_rotations = st.builds(Rotation3, sphere_points, turns)


def _near(u, eps):
    return _unit_of(Vec3(u.x + eps[0], u.y + eps[1], u.z + eps[2])) or u


# axis pairs: independent, equal, opposite, or within 1e-12 of either
small = st.tuples(*[generic.map(lambda x: x * 1e-12)] * 3)
axis_pairs = st.one_of(
    st.tuples(sphere_points, sphere_points),
    sphere_points.map(lambda g: (g, g)),
    sphere_points.map(lambda g: (g, -g)),
    st.builds(lambda g, e, s: (g, _near(g if s else -g, e)), sphere_points, small, st.booleans()),
)

# rotation matrices: of sphere rotations; signed permutations, whose rows of
# m - I tie in their cross products; near the identity, across IDENTITY_TOL;
# and rotations moved off orthogonality across ROTATION_TOL
def _signed_permutations():
    """The 24 rotations that permute the axes, flipping signs."""
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = Mat3(tuple(tuple(signs[i] if j == perm[i] else 0.0 for j in range(3))
                           for i in range(3)))
            if m.det() == 1.0:
                yield m


_gaps = st.sampled_from([0.0, -0.0, 5e-10, -5e-10, IDENTITY_TOL, -IDENTITY_TOL,
                         math.nextafter(IDENTITY_TOL, 0.0), 2e-9])
matrices = st.one_of(
    st.builds(rotation_matrix, sphere_rotations),
    st.sampled_from(list(_signed_permutations())),
    st.builds(lambda a, b, c: Mat3(((1.0, a, b), (-a, 1.0, c), (-b, -c, 1.0))),
              _gaps, _gaps, _gaps),
    st.builds(lambda rot, d: Mat3(tuple(tuple(v + d * (i + j) for j, v in enumerate(row))
                                        for i, row in enumerate(rotation_matrix(rot).rows))),
              sphere_rotations, st.sampled_from([1e-10, 3e-10, 6e-10, 1e-9])),
)


@given(st.one_of(off_units, signed_vec3s, vec3s))
@example(Vec3(0.6, -0.0, 0.8))
@example(Vec3(1.0 + UNIT_TOL, 0.0, 0.0))
@example(Vec3(math.inf, 0.0, 0.0))
def test_a_unit_vector_divides_once_by_its_norm(v):
    want = _outcome(_unit_oracle, v.x, v.y, v.z)
    assert _outcome(spherical._unit_xyz, v.x, v.y, v.z) == want
    assert _outcome(UnitVector3, v.x, v.y, v.z) == want


@given(sphere_rotations, st.one_of(sphere_points, off_units), sphere_points)
@example(Rotation3(UnitVector3(0.0, -0.0, 1.0), -0.0), UnitVector3(-0.0, 1.0, 0.0),
         UnitVector3(0.0, 0.0, -1.0))
def test_a_sphere_image_is_apply_sphere(rot, p, q):
    want = _outcome(_apply_sphere_oracle, rot, p)
    assert _outcome(apply_sphere, rot, p) == want
    try:
        p = _as_unit(p)  # as apply_sphere takes it
    except NonUnitVector:
        return
    # one kernel call turns every point, each as apply_sphere would
    want_q = _outcome(_apply_sphere_oracle, rot, q)
    assert _outcome(spherical._images_xyz, rot, [p, q]) == (want, want_q)


@given(vec3s, vec3s)
@example(Vec3(0.0, -0.0, 5e-324), Vec3(-0.0, 0.0, -5e-324))
def test_dist_xyz_is_the_norm_of_the_difference(a, b):
    got = spherical._dist_xyz((a.x, a.y, a.z), (b.x, b.y, b.z))
    assert _bits(got) == _bits((a - b).norm())


@given(sphere_points, sphere_points, sphere_rotations)
def test_the_residual_and_discrepancy_are_the_vector_distances(x, y, rot):
    # the sphere residual and discrepancy run() reports, against apply_sphere and Vec3.dist
    try:
        before = SphereSegment(x, y)
        after = SphereSegment(apply_sphere(rot, x), apply_sphere(rot, y))
        record, _ = cli._run_sphere_recover({"before": before, "after": after}, "both", 1e-9)
        rot_a = recover_sphere_rotation(x, after.a, y, after.b, method="algebraic")
        rot_g = recover_sphere_rotation(x, after.a, y, after.b, method="geometric")
    except GeometryError:
        return
    pairs = ((x, after.a), (y, after.b))
    residual = max(apply_sphere(rot_a, p).dist(q) for p, q in pairs)
    disc = max(apply_sphere(rot_a, p).dist(apply_sphere(rot_g, p)) for p, _ in pairs)
    assert _bits((record.residual, record.discrepancy)) == _bits((residual, disc))


def _axis_angle(rot):
    return rot.axis, rot.angle


# (x, xp, y, yp): the images of x and y under a rotation, yp moved by about 1e-12 or not
correspondences = st.builds(
    lambda x, y, rot, eps: (x, apply_sphere(rot, x), y, _near(apply_sphere(rot, y), eps)),
    sphere_points, sphere_points, sphere_rotations, st.one_of(st.just((0.0, 0.0, 0.0)), small))
_X, _Y, _Z = UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0), UnitVector3(0.0, 0.0, 1.0)


@given(correspondences, st.sampled_from([1e-9, 1e-12]))
@example((_Z, _Z, _X, UnitVector3(0.6, 0.8, 0.0)), 1e-9)  # x fixed: it is the axis
@example((_X, _X, _Y, _Y), 1e-9)  # the identity
@example((_X, UnitVector3(-1.0, 0.0, 0.0), _Z, _Z), 1e-9)  # the equatorial half turn
@example((_X, _Y, _Y, UnitVector3(math.cos(0.1), math.sin(0.1), 0.0)), 1e-9)  # unequal arcs
@example((_X, _Z, _Y, _X), 1e-17)  # a third of a turn, checked past what floats resolve
# the algebraic route answers and the geometric one misses by 1.14e-9
@example((UnitVector3(-0.7854459318695479, -0.6186654365491168, -0.018104301396860784),
          UnitVector3(-0.1889425661500628, -0.9076950224067749, 0.3746871401510782),
          UnitVector3(0.7550118502907783, 0.6414404914642668, 0.136055877603929),
          UnitVector3(0.11511276530804396, 0.9514970125470669, -0.28531120969415513)), 1e-9)
def test_one_sphere_solve_for_both_routes_is_each_route_alone(points, tol):
    # what run() reads under "both": each route's rotation, residual and images, or the
    # first route's error, as recover_sphere_rotation gives them route by route
    x, xp, y, yp = points
    methods = ("algebraic", "geometric")
    alone = [_outcome(lambda m: _axis_angle(recover_sphere_rotation(
        x, xp, y, yp, method=m, tol=tol)), m) for m in methods]
    errors = [outcome for outcome in alone if isinstance(outcome[0], str)]
    try:
        answers = spherical._recover_sphere(x, xp, y, yp, methods, tol)
    except (GeometryError, ValueError) as exc:
        assert [_bits(exc)] == errors[:1]
        return
    assert [_bits(_axis_angle(rot)) for rot, _, _ in answers] == alone
    for rot, residual, images in answers:
        fresh = spherical._images_xyz(rot, (x, y))
        miss = max(spherical._dist_xyz(fresh[0], (xp.x, xp.y, xp.z)),
                   spherical._dist_xyz(fresh[1], (yp.x, yp.y, yp.z)))
        assert _bits((residual, images)) == _bits((miss, fresh))


@given(sphere_points, sphere_points, st.one_of(sphere_rotations, st.none()))
@example(UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0), None)
# a half turn that takes x to its antipode: x's bisector is its equator
@example(UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 0.0, 1.0),
         Rotation3(UnitVector3(0.0, 0.6, 0.8), math.pi))
def test_the_axis_constructions_are_their_vector_bodies(x, y, rot):
    # xp, yp the images under rot, or free points; x fixed when rot is None
    if rot:
        xp, yp = apply_sphere(rot, x), apply_sphere(rot, y)
    else:
        xp, yp = x, _near(y, (1e-3, 0.0, 0.0))
    moves = x.dist(xp), y.dist(yp)
    fixed = spherical._fixed_points(*moves)
    assert _outcome(spherical._axis_cross, x, xp, y, yp, moves[0] * moves[1]) == _outcome(
        _axis_cross_oracle, x, xp, y, yp)
    assert _outcome(spherical._axis_geometric, x, xp, y, yp, fixed) == _outcome(
        _axis_geometric_oracle, x, xp, y, yp)


@given(st.one_of(sphere_points, off_units), st.one_of(sphere_points, off_units), small)
@example(UnitVector3(0.6, -0.0, 0.8), UnitVector3(-0.6, 0.0, -0.8), (0.0, 0.0, 0.0))
@example(UnitVector3(0.0, 1.0, -0.0), UnitVector3(0.0, 1.0, 0.0), (0.0, 0.0, 0.0))
# |a + b| = 1e-9 exactly, at the antipodal cut
@example(UnitVector3(1.0, 0.0, 0.0), UnitVector3(-1.0, 1e-9, 0.0), (0.0, 0.0, 0.0))
# a normal that a second normalization would move by an ulp
@example(_unit_of(Vec3(1.0, -3.0, -2.0)), _unit_of(Vec3(-5.0, 5.0, -5.0)), (0.0, 0.0, 0.0))
def test_a_bisector_normal_and_a_segment_are_their_vector_bodies(a, b, eps):
    for b in (b, _near(Vec3(-a.x, -a.y, -a.z), eps)):  # and a nearly antipodal b
        assert _outcome(bisector_great_circle, a, b) == _outcome(_bisector_circle_oracle, a, b)
        assert _outcome(_segment_ends, a, b) == _outcome(_segment_oracle, a, b)


@given(st.one_of(sphere_points, off_units), st.one_of(sphere_points, off_units))
@example(UnitVector3(0.0, 0.0, 1.0), UnitVector3(-0.0, 0.0, 1.0))
@example(UnitVector3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 2.0))  # a far-off normal: NonUnitVector
def test_a_great_circle_intersection_is_the_vector_construction(n, m):
    assert _outcome(intersect_great_circles, n, m) == _outcome(_intersect_circles_oracle, n, m)


@given(st.one_of(sphere_points, vec3s), st.one_of(sphere_points, vec3s))
def test_chord_arcsin_angle_is_the_vector_expression(x, xp):
    assert _outcome(chord_arcsin_angle, x, xp) == _outcome(_chord_arcsin_oracle, x, xp)


@given(axis_pairs, turns, turns)
@example((UnitVector3(0.0, 0.0, 1.0), UnitVector3(0.0, 0.0, 1.0)), math.pi / 2, math.pi / 2)
@example((UnitVector3(1.0, -0.0, 0.0), UnitVector3(-1.0, 0.0, -0.0)), 0.0, -0.0)
@example((UnitVector3(0.0, 0.0, 1.0), UnitVector3(0.0, -1.0, 0.0)), 0.5, 0.0)  # inner angle 0
@example((UnitVector3(1.0, 0.0, 0.0), UnitVector3(1.0, 0.0, -0.0)), 0.0, 0.5)  # the g x y circle
def test_compose_sphere_geometric_is_its_vector_body(axes, alpha, beta):
    outer, inner = Rotation3(axes[0], alpha), Rotation3(axes[1], beta)
    assert _outcome(spherical._compose_sphere_geometric, outer, inner) == _outcome(
        _compose_sphere_geometric_oracle, outer, inner
    )


@given(matrices)
@example(Mat3(((1.0, 1e-9, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))))  # m - I of rank 1
@example(Mat3(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))))  # three tied cross products
# a quarter turn about (1, 1, 0): rows 0 x 2 and 1 x 2 tie, and give axes whose z differs in sign
@example(Mat3(((0.5000000000000001, 0.5, 0.7071067811865476),
               (0.5, 0.5000000000000001, -0.7071067811865476),
               (-0.7071067811865476, 0.7071067811865476, 6.123233995736766e-17))))
@example(Mat3(((-1.0, 0.0, 0.0), (0.0, 1.0, -0.0), (0.0, 0.0, -1.0))))  # a half turn about y
def test_the_rotation_check_and_eigensolve_are_their_matrix_bodies(m):
    assert _outcome(require_rotation, m) == _outcome(_require_rotation_oracle, m)
    assert _outcome(eig3_rotation, m) == _outcome(_eig3_oracle, m)
    assert _outcome(lambda: axis_angle_from_matrix(m)) == _outcome(
        _axis_angle_oracle, m)

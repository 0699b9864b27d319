"""Every float kernel against the vector expression it replaced.

The hot geometric primitives compute on floats instead of building
intermediate Vec2/Vec3/Mat2 values. Each keeps the operation order of the
expression it replaced, so its output must match that expression bit for
bit. The replaced expressions live on here as oracles and are compared
through their IEEE 754 bit patterns: `==` would let a -0.0 pass for 0.0.
"""

import math
import struct

from hypothesis import example, given
from hypothesis import strategies as st

import isometry_lab.cli as cli
import isometry_lab.figures as figures
import isometry_lab.planar as planar
from isometry_lab import (
    DegenerateBisector,
    DegenerateSegment,
    GeometryError,
    Line2,
    Mat2,
    PointOnAxis,
    Rotation2,
    Segment2,
    SingularMatrix,
    Translation2,
    UnitVector3,
    Vec2,
    Vec3,
    apply_planar,
    compose_planar,
    cross,
    perpendicular_bisector,
    recover_planar,
    recover_planar_geometric,
    rotation_angle_about_axis,
    signed_angle,
    solve2,
    wrap_angle,
)
from isometry_lab.linalg import (
    ANGLE_MIN, COINCIDENT_RTOL, FIGURE_MIN_ARC, MAX_COORD, ON_AXIS_TOL, PIVOT_ARM_RTOL,
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
    except (GeometryError, ArithmeticError, ValueError) as exc:
        return _bits(exc)


# ---------------------------------------------------------------------------
# the replaced expressions


def _apply_planar_oracle(iso, p):
    if isinstance(iso, Rotation2):
        return iso.pivot + Mat2.rotation(iso.angle).mv(p - iso.pivot)
    return p + iso.v


def _bisector_oracle(a, b):
    chord = b - a
    if chord.norm() == 0.0:
        raise DegenerateBisector("coincident points have no perpendicular bisector")
    return Line2((a + b) * 0.5, chord.perp())


def _intersect_oracle(l1, l2):
    m = Mat2(l1.direction.x, -l2.direction.x, l1.direction.y, -l2.direction.y)
    try:
        ts = solve2(m, l2.point - l1.point)
    except SingularMatrix:
        return None
    return l1.point + l1.direction * ts.x


def _recover_planar_geometric_oracle(src, dst):
    planar._check_lengths(src, dst, 1e-9)
    da = dst.a - src.a
    db = dst.b - src.b
    scale = planar._point_scale(src.a, src.b, dst.a, dst.b)
    if (da - db).norm() <= ANGLE_MIN * src.length():
        if da.norm() <= COINCIDENT_RTOL * scale:
            return planar.Identity2()
        return Translation2(da)
    pivot = planar._pivot_geometric(src, dst, scale)
    if (src.a - pivot).norm() > PIVOT_ARM_RTOL * scale:
        theta = signed_angle(src.a - pivot, dst.a - pivot)
    else:
        theta = signed_angle(src.b - pivot, dst.b - pivot)
    return Rotation2(pivot, theta)


def _compose_planar_geometric_oracle(outer, inner):
    d = outer.pivot - inner.pivot
    phi = math.atan2(d.y, d.x)
    a, b = phi - inner.angle / 2.0, phi + outer.angle / 2.0
    n = Line2(inner.pivot, Vec2(math.cos(a), math.sin(a)))
    m = Line2(outer.pivot, Vec2(math.cos(b), math.sin(b)))
    return planar.compose_reflections(planar.Reflection2(n), planar.Reflection2(m))


def _rotation_angle_oracle(axis, x, xp):
    u = x - axis * x.dot(axis)
    v = xp - axis * xp.dot(axis)
    if u.norm() < ON_AXIS_TOL or v.norm() < ON_AXIS_TOL:
        raise PointOnAxis("point lies on the rotation axis; its turn angle is undefined")
    angle = math.atan2(axis.dot(cross(u, v)), u.dot(v))
    return math.pi if angle <= -math.pi else angle


def _reflection_probes_oracle(rot):
    return tuple(rot.pivot + d for d in (Vec2(1.0, 0.0), *cli._PLANE_PROBE))


def _isometry_oracle(theta, translation, pivot_rhs, points):
    if abs(theta) < ANGLE_MIN:
        v = translation()
        if v.norm() <= COINCIDENT_RTOL * planar._point_scale(*points):
            return planar.Identity2()
        return Translation2(v)
    r = Mat2.rotation(theta)
    lhs = Mat2(1.0 - r.m00, -r.m01, -r.m10, 1.0 - r.m11)
    return Rotation2(solve2(lhs, pivot_rhs(r)), theta)


def _compose_planar_oracle(outer, inner):
    t1, p1, q1 = planar._anchored_form(outer)
    t2, p2, q2 = planar._anchored_form(inner)
    r1 = Mat2.rotation(t1)
    return _isometry_oracle(
        wrap_angle(t1 + t2),
        lambda: (q1 - p2) - r1.mv(p1 - q2),
        lambda r: q1 + r1.mv(q2) - r.mv(p2) - r1.mv(p1),
        (p1, q1, p2, q2),
    )


def _recover_planar_oracle(src, dst):
    planar._check_lengths(src, dst, 1e-9)
    d = src.a - src.b
    try:
        cs = solve2(Mat2(d.x, -d.y, d.y, d.x), dst.a - dst.b)
    except SingularMatrix as exc:
        raise DegenerateSegment("source segment endpoints coincide") from exc
    return _isometry_oracle(
        math.atan2(cs.y, cs.x),
        lambda: dst.a - src.a,
        lambda r: dst.a - r.mv(src.a),
        (src.a, src.b, dst.a, dst.b),
    )


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


@given(vec2s, vec2s)
@example(Vec2(1.0, -0.0), Vec2(1.0, 0.0))
@example(Vec2(5e-324, 0.0), Vec2(0.0, 0.0))
def test_perpendicular_bisector_is_the_vector_construction(a, b):
    assert _outcome(perpendicular_bisector, a, b) == _outcome(_bisector_oracle, a, b)


@given(vec2s, vec2s, vec2s, vec2s)
@example(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(-0.0, 1.0), Vec2(1.0, 0.0))
def test_intersect_lines_is_the_vector_construction(p, d, q, e):
    try:
        l1, l2 = Line2(p, d), Line2(q, e)
    except ValueError:  # a zero direction, or one whose norm overflows
        return
    assert _outcome(planar._intersect_lines, l1, l2) == _outcome(_intersect_oracle, l1, l2)


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


# Anchors of every orientation-preserving kind: rotations, translations and
# the identity
plane_isometries = st.one_of(
    st.builds(Rotation2, vec2s, angles),
    st.builds(Translation2, vec2s),
    st.just(planar.Identity2()),
)


@given(plane_isometries, plane_isometries)
@example(Rotation2(Vec2(0.0, -0.0), 1.0), Rotation2(Vec2(-0.0, 0.0), 0.5))
@example(Rotation2(Vec2(1.0, 2.0), 0.7), Rotation2(Vec2(-3.0, 0.5), -0.7))  # cancelled: a translation
@example(Translation2(Vec2(-0.0, 1.0)), Rotation2(Vec2(MAX_COORD, -MAX_COORD), math.pi))
@example(planar.Identity2(), Translation2(Vec2(5e-324, -0.0)))
def test_compose_planar_is_its_matrix_body(outer, inner):
    # the pivot right-hand side q1 + R1 q2 - R p2 - R1 p1 and the (I - R)
    # system compute on floats
    assert _outcome(compose_planar, outer, inner) == _outcome(_compose_planar_oracle, outer, inner)


@given(vec2s, vec2s, vec2s, angles)
@example(Vec2(1.0, -0.0), Vec2(2.0, 0.0), Vec2(-0.0, 0.0), 0.5)
@example(Vec2(1.0, 0.0), Vec2(2.0, 0.0), Vec2(0.0, 0.0), 0.0)  # the identity
@example(Vec2(1.0, 0.0), Vec2(2.0, 0.0), Vec2(0.0, 0.0), 1e-300)  # below ANGLE_MIN
def test_recover_planar_is_its_matrix_body(a, b, pivot, angle):
    try:
        src = Segment2(a, b)
        rot = Rotation2(pivot, angle)
        dst = Segment2(apply_planar(rot, a), apply_planar(rot, b))
    except (GeometryError, ArithmeticError, ValueError):
        return
    assert _outcome(recover_planar, src, dst) == _outcome(_recover_planar_oracle, src, dst)


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

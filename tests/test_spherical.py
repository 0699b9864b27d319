import math
import random

import pytest

from helpers import rand_rotation3, rand_sphere_pair, rand_unit3, refuse_algebraic_routes, unit3
from isometry_lab import (
    AntipodalPoints,
    CoincidentPoints,
    DegenerateAxis,
    IdenticalCircles,
    IdentityCorrespondence,
    InternalCheckError,
    LengthMismatch,
    Mat3,
    NonUnitVector,
    NotARotation,
    NotIsometric,
    PointOnAxis,
    Rotation3,
    SphereSegment,
    UnitVector3,
    Vec3,
    angular_distance,
    apply_sphere,
    axis_angle_from_matrix,
    bisector_great_circle,
    chord_arcsin_angle,
    compose_sphere_rotations,
    cross,
    intersect_great_circles,
    recover_axis_cross,
    recover_axis_geometric,
    recover_sphere_rotation,
    rotation_angle_about_axis,
    rotation_matrix,
)

Z = UnitVector3(0.0, 0.0, 1.0)
Y = UnitVector3(0.0, 1.0, 0.0)
X = UnitVector3(1.0, 0.0, 0.0)


def _mv(m: Mat3, v: Vec3) -> Vec3:
    """The matrix m times v."""
    return Vec3(*(Vec3(*row).dot(v) for row in m.rows))


def _close3(p: Vec3, q: Vec3, tol: float = 1e-9) -> bool:
    return (p - q).norm() <= tol


def _axis_match(a: Vec3, b: Vec3, tol: float = 1e-9) -> bool:
    return min((a - b).norm(), (a + b).norm()) <= tol


class TestUnitVector3:
    def test_renormalizes_small_drift(self):
        v = UnitVector3(1.0 + 5e-7, 0.0, 0.0)
        assert v.x == 1.0

    def test_rejects_large_drift(self):
        with pytest.raises(NonUnitVector):
            UnitVector3(1.1, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NonUnitVector):
            UnitVector3(math.nan, 0.0, 0.0)

    def test_negation_stays_unit(self):
        assert isinstance(-Z, UnitVector3)


class TestRotation3:
    def test_negative_angle_flips_axis(self):
        r = Rotation3(Z, -math.pi / 3)
        assert r.angle == pytest.approx(math.pi / 3, abs=1e-15)
        assert _close3(r.axis, -Z, 1e-15)

    def test_angle_wraps(self):
        r = Rotation3(Z, 2 * math.pi + 0.5)
        assert r.angle == pytest.approx(0.5, abs=1e-12)
        assert _close3(r.axis, Z, 1e-15)

    def test_a_negative_angle_stores_the_renormalized_negated_axis(self):
        # -axis is built as a UnitVector3, so it is renormalized once more: not the plain negation
        u = UnitVector3(0.6, 0.0, 0.8000001)
        axis = Rotation3(u, -0.5).axis
        flipped = UnitVector3(-u.x, -u.y, -u.z)
        assert [c.hex() for c in (axis.x, axis.y, axis.z)] == [
            c.hex() for c in (flipped.x, flipped.y, flipped.z)]
        assert (axis.x, -u.x) == (-0.5999999520000028, -0.5999999520000027)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_angle(self, angle):
        with pytest.raises(ValueError, match="rotation angle must be finite"):
            Rotation3(Z, angle)


class TestSphereSegment:
    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPoints):
            SphereSegment(Z, Z)

    def test_antipodal_rejected(self):
        with pytest.raises(AntipodalPoints):
            SphereSegment(Z, -Z)


class TestRotationMatrix:
    def test_z_axis_block(self):
        m = rotation_matrix(Rotation3(Z, math.pi / 6))
        assert abs(m.rows[0][0] - 0.8660) <= 1e-4
        assert abs(m.rows[0][1] + 0.5) <= 1e-4
        assert abs(m.rows[1][0] - 0.5) <= 1e-4
        assert abs(m.rows[1][1] - 0.8660) <= 1e-4
        assert m.rows[2] == (0.0, 0.0, 1.0)
        assert (m.rows[0][2], m.rows[1][2]) == (0.0, 0.0)

    def test_zero_angle_is_identity(self):
        m = rotation_matrix(Rotation3(rand_unit3(random.Random(1)), 0.0))
        dev = max(
            abs(m.rows[i][j] - float(i == j)) for i in range(3) for j in range(3)
        )
        assert dev <= 1e-15

    def test_half_turn_about_x(self):
        m = rotation_matrix(Rotation3(X, math.pi))
        expect = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
        dev = max(abs(m.rows[i][j] - expect[i][j]) for i in range(3) for j in range(3))
        assert dev <= 1e-12

    def test_always_proper_orthogonal(self):
        rng = random.Random(3)
        for _ in range(200):
            m = rotation_matrix(rand_rotation3(rng))
            # nothing checks the matrix on the way out, so measure it here
            mtm = Mat3(tuple(zip(*m.rows))) @ m
            assert max(abs(mtm.rows[i][j] - (i == j)) for i in range(3) for j in range(3)) <= 1e-14
            assert abs(m.det() - 1.0) <= 1e-14

    def test_validates_input(self):
        with pytest.raises(NotARotation):
            axis_angle_from_matrix(Mat3(((1, 0, 0), (0, 1, 0), (0, 0, -1))))


class TestApplySphere:
    def test_quarter_turn(self):
        assert _close3(apply_sphere(Rotation3(Z, math.pi / 2), X), Y, 1e-15)

    def test_axis_fixed(self):
        rng = random.Random(7)
        for _ in range(100):
            r = rand_rotation3(rng)
            assert _close3(apply_sphere(r, r.axis), r.axis, 1e-12)
            assert _close3(apply_sphere(r, -r.axis), -r.axis, 1e-12)

    def test_arbitrary_axis_fixed_point(self):
        r = Rotation3(Y, math.pi / 4)
        assert _close3(apply_sphere(r, Y), Y, 1e-15)

    def test_angular_distances_preserved(self):
        rng = random.Random(13)
        for _ in range(200):
            r = rand_rotation3(rng)
            p, q = rand_unit3(rng), rand_unit3(rng)
            d0 = angular_distance(p, q)
            d1 = angular_distance(apply_sphere(r, p), apply_sphere(r, q))
            assert abs(d0 - d1) <= 1e-9

    @pytest.mark.parametrize("t", [1e-7, 1e-8])
    def test_short_arcs_keep_their_length(self, t):
        # acos(p . q) reads the 1e-7 arc 0.04 % short and the 1e-8 arc as 0
        for p, q in ((X, UnitVector3(math.cos(t), math.sin(t), 0.0)),
                     (Z, UnitVector3(0.0, math.sin(t), math.cos(t)))):
            assert angular_distance(p, q) == pytest.approx(t, rel=1e-12)

    def test_matches_matrix_action(self):
        rng = random.Random(17)
        for _ in range(200):
            r = rand_rotation3(rng)
            p = rand_unit3(rng)
            assert _close3(apply_sphere(r, p), _mv(rotation_matrix(r), p), 1e-12)


class TestRotationAngleAboutAxis:
    def test_equatorial_quarter_turn(self):
        assert rotation_angle_about_axis(Z, X, Y) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_equatorial_half_turn(self):
        assert rotation_angle_about_axis(Z, X, -X) == pytest.approx(math.pi, abs=1e-12)

    def test_fixed_off_axis_point(self):
        p = unit3(Vec3(1.0, 0.0, 1.0))
        assert rotation_angle_about_axis(Z, p, p) == 0.0

    def test_point_on_axis_rejected(self):
        with pytest.raises(PointOnAxis):
            rotation_angle_about_axis(Z, Z, X)

    def test_off_equator_points(self):
        rng = random.Random(19)
        for _ in range(200):
            r = rand_rotation3(rng, min_angle=1e-3)
            p = rand_unit3(rng)
            if abs(p.dot(r.axis)) > 0.99:
                continue
            got = rotation_angle_about_axis(r.axis, p, apply_sphere(r, p))
            assert abs(got - r.angle) <= 1e-9


class TestChordArcsinShortcut:
    def test_agrees_on_equatorial_quarter_turn(self):
        assert chord_arcsin_angle(X, Y) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_fails_on_equatorial_half_turn(self):
        # the true turn is pi; the shortcut collapses to 0
        assert chord_arcsin_angle(X, -X) == 0.0
        assert rotation_angle_about_axis(Z, X, -X) == pytest.approx(math.pi, abs=1e-12)


class TestBisectorGreatCircle:
    def test_symmetry_plane_normal(self):
        n = bisector_great_circle(X, Y)
        expect = Vec3(1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)
        assert isinstance(n, UnitVector3)
        assert _close3(n, expect, 1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPoints):
            bisector_great_circle(Z, Z)

    def test_antipodal_pair_bisects_along_the_equator(self):
        # the points equidistant from Z and -Z are Z's equator
        n = bisector_great_circle(Z, -Z)
        assert (n.x, n.y, abs(n.z)) == (0.0, 0.0, 1.0)

    def test_sampled_points_equidistant(self):
        rng = random.Random(23)
        for _ in range(100):
            a, b = rand_sphere_pair(rng)
            n = bisector_great_circle(a, b)
            e1 = cross(n, Z if abs(n.z) < 0.9 else X).normalized()
            e2 = cross(n, e1)
            for k in range(8):
                t = 2 * math.pi * k / 8
                z = e1 * math.cos(t) + e2 * math.sin(t)
                assert abs(z.dot(a) - z.dot(b)) <= 1e-12


class TestIntersectGreatCircles:
    def test_coordinate_circles(self):
        p, q = intersect_great_circles(Z, Y)  # the xy and xz circles
        assert _axis_match(p, X, 1e-15)
        assert _close3(q, -p, 1e-15)

    def test_identical_rejected(self):
        n = unit3(Vec3(1, 2, 3))
        with pytest.raises(IdenticalCircles):
            intersect_great_circles(n, n)

    def test_intersections_lie_on_both(self):
        rng = random.Random(29)
        for _ in range(200):
            n, m = rand_unit3(rng), rand_unit3(rng)
            if cross(n, m).norm() < 1e-6:
                continue
            p, q = intersect_great_circles(n, m)
            for z in (p, q):
                assert abs(z.dot(n)) <= 1e-12
                assert abs(z.dot(m)) <= 1e-12


class TestRecoverAxisCross:
    def test_quarter_turn_instance(self):
        y = UnitVector3(0.6, 0.8, 0.0)
        rot = Rotation3(Z, math.pi / 2)
        axis = recover_axis_cross(X, apply_sphere(rot, X), y, apply_sphere(rot, y))
        assert _axis_match(axis, Z)

    def test_identity_correspondence_degenerate(self):
        y = UnitVector3(0.6, 0.8, 0.0)
        with pytest.raises(DegenerateAxis):
            recover_axis_cross(X, X, y, y)

    def test_a_point_moved_by_rounding_alone_has_no_chord_direction(self):
        # x turned about itself comes back 6e-17 off, by rounding only; the
        # cross product of that noise chord with y's passes a relative cut and
        # points 30 degrees away from x, the true axis
        x = unit3(Vec3(1.0, 2.0, 7.0))
        rot = Rotation3(x, 1.0)
        xp, yp = apply_sphere(rot, x), apply_sphere(rot, Y)
        assert 0.0 < x.dist(xp) <= 1e-16
        with pytest.raises(DegenerateAxis):
            recover_axis_cross(x, xp, Y, yp)

    def test_non_isometric_rejected(self):
        with pytest.raises(NotIsometric):
            recover_axis_cross(X, Y, Y, Y * (-1.0))

    def test_random_round_trips(self):
        rng = random.Random(31)
        for _ in range(300):
            rot = rand_rotation3(rng, min_angle=1e-3)
            x, y = rand_sphere_pair(rng)
            axis = recover_axis_cross(
                x, apply_sphere(rot, x), y, apply_sphere(rot, y)
            )
            assert _axis_match(axis, rot.axis)


class TestRecoverAxisGeometric:
    def test_fixed_point_is_a_pole(self):
        rot = Rotation3(Z, 1.0)
        y = UnitVector3(0.6, 0.8, 0.0)
        axis = recover_axis_geometric(Z, Z, y, apply_sphere(rot, y))
        assert _axis_match(axis, Z, 1e-15)

    def test_identity_raises(self):
        y = UnitVector3(0.6, 0.8, 0.0)
        with pytest.raises(IdentityCorrespondence):
            recover_axis_geometric(X, X, y, y)

    def test_agrees_with_cross_product_route(self):
        rng = random.Random(37)
        for _ in range(300):
            rot = rand_rotation3(rng, min_angle=1e-3)
            x, y = rand_sphere_pair(rng)
            xp, yp = apply_sphere(rot, x), apply_sphere(rot, y)
            a1 = recover_axis_cross(x, xp, y, yp)
            a2 = recover_axis_geometric(x, xp, y, yp)
            assert _axis_match(a1, a2)


def _near_coplanar(rng):
    """A Gaussian axis and X, a turn of 10**U(-6, 0), and Y a U(0.1, pi - 0.1) turn
    from X in the plane of X and the axis, moved 10**U(-16, -6) along its normal;
    returns X, its image, Y and its image."""
    axis, x = rand_unit3(rng), rand_unit3(rng)
    rot = Rotation3(axis, 10.0 ** rng.uniform(-6.0, 0.0))
    n = cross(x, axis).normalized()
    s = rng.uniform(0.1, math.pi - 0.1)
    y = x * math.cos(s) + cross(n, x) * math.sin(s) + n * 10.0 ** rng.uniform(-16.0, -6.0)
    y = unit3(y)
    return x, apply_sphere(rot, x), y, apply_sphere(rot, y)


def test_both_axis_constructions_refuse_the_same_nearly_coplanar_chords():
    # one cut, relative to the chords' lengths, for the raw chords and the unit ones
    rng = random.Random(5)
    refused = {recover_axis_cross: set(), recover_axis_geometric: set()}
    for i in range(2000):
        points = _near_coplanar(rng)
        for solver, seen in refused.items():
            try:
                solver(*points)
            except DegenerateAxis:
                seen.add(i)
    assert len(refused[recover_axis_geometric]) > 100
    assert refused[recover_axis_cross] == refused[recover_axis_geometric]


class TestRecoverSphereRotation:
    def test_round_trip_coordinate_axis(self):
        rot = Rotation3(Z, math.pi / 2)
        y = UnitVector3(0.6, 0.8, 0.0)
        got = recover_sphere_rotation(X, apply_sphere(rot, X), y, apply_sphere(rot, y))
        assert _axis_match(got.axis, Z)
        assert abs(got.angle - math.pi / 2) <= 1e-9

    def test_round_trip_oblique_axis(self):
        axis = unit3(Vec3(1, 1, 1))
        rot = Rotation3(axis, 2.0)
        x, y = X, Y
        got = recover_sphere_rotation(x, apply_sphere(rot, x), y, apply_sphere(rot, y))
        assert _close3(got.axis, rot.axis)
        assert abs(got.angle - 2.0) <= 1e-9

    def test_methods_agree(self):
        rng = random.Random(41)
        for _ in range(300):
            rot = rand_rotation3(rng, min_angle=1e-3)
            x, y = rand_sphere_pair(rng)
            xp, yp = apply_sphere(rot, x), apply_sphere(rot, y)
            alg = recover_sphere_rotation(x, xp, y, yp, method="algebraic")
            geo = recover_sphere_rotation(x, xp, y, yp, method="geometric")
            assert _axis_match(alg.axis, geo.axis)
            assert abs(alg.angle - geo.angle) <= 1e-9
            assert _axis_match(alg.axis, rot.axis)
            assert abs(alg.angle - rot.angle) <= 1e-9

    def test_fixed_point_falls_back_to_geometric(self):
        rot = Rotation3(Z, math.pi / 2)
        y = UnitVector3(0.6, 0.8, 0.0)
        got = recover_sphere_rotation(Z, Z, y, apply_sphere(rot, y))
        assert _axis_match(got.axis, Z, 1e-12)
        assert abs(got.angle - math.pi / 2) <= 1e-9

    def test_chords_that_cross_short_still_give_an_axis(self, monkeypatch):
        import isometry_lab.spherical as spherical

        def refuse(*args):
            raise AssertionError("the bisector construction ran")

        # y lies 1e-6 off the plane of x and the axis: the chords' cross product
        # is short, but not against the chords' lengths, so the chords give the
        # axis themselves, with no bisector construction to fall back on
        rot = Rotation3(Z, 1e-3)
        y = UnitVector3(0.6, 1e-6, 0.8)
        xp, yp = apply_sphere(rot, X), apply_sphere(rot, y)
        assert _axis_match(recover_axis_cross(X, xp, y, yp), Z, 1e-15)
        monkeypatch.setattr(spherical, "_axis_geometric", refuse)
        got = recover_sphere_rotation(X, xp, y, yp, method="algebraic")
        assert (got.axis.x, got.axis.y, got.axis.z, got.angle) == (0.0, 0.0, 1.0, 0.001)

    def test_parallel_chords_fail_explicitly(self):
        # y sits at the opposite longitude, so both displacement chords are
        # parallel and both bisector circles coincide
        rot = Rotation3(Z, math.pi / 2)
        x = X
        y = UnitVector3(-0.8, 0.0, 0.6)
        with pytest.raises(DegenerateAxis):
            recover_sphere_rotation(
                x, apply_sphere(rot, x), y, apply_sphere(rot, y)
            )

    def test_identity_correspondence(self):
        y = UnitVector3(0.6, 0.8, 0.0)
        with pytest.raises(IdentityCorrespondence):
            recover_sphere_rotation(X, X, y, y)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            recover_sphere_rotation(X, Y, Y, X, method="guess")

    def test_residual_check_rejects_what_the_length_check_passes(self):
        # the lengths agree to the last bit; the recovered rotation carries
        # rounding a 1e-17 tolerance does not forgive
        rot = Rotation3(unit3(Vec3(1.0, 2.0, 1.0)), 0.1)
        xp, yp = apply_sphere(rot, X), apply_sphere(rot, Y)
        assert angular_distance(X, Y) == angular_distance(xp, yp)
        for method in ("algebraic", "geometric"):
            with pytest.raises(NotIsometric, match="no single rotation") as info:
                recover_sphere_rotation(X, xp, Y, yp, method=method, tol=1e-17)
            assert not isinstance(info.value, LengthMismatch)


@pytest.mark.parametrize(
    "solver", [recover_axis_cross, recover_axis_geometric, recover_sphere_rotation]
)
def test_unequal_angular_lengths_raise_length_mismatch(solver):
    # X stays put while Y's arc from it shrinks from pi/2 to 0.927
    assert issubclass(LengthMismatch, NotIsometric)
    with pytest.raises(LengthMismatch, match="angular lengths 1.57079633 and 0.927295218"):
        solver(X, X, Y, UnitVector3(0.6, 0.8, 0.0))


class TestComposeSphereRotations:
    def test_two_axis_composite_angle(self):
        # composite of a quarter turn about y after a sixth turn about z;
        # the angle is far from the plain sum of the angles
        out = compose_sphere_rotations(
            Rotation3(Y, math.pi / 4), Rotation3(Z, math.pi / 6)
        )
        assert abs(out.angle - 0.9363243808091234) <= 1e-12
        expect_axis = Vec3(0.21949345483979876, 0.8191607253909539, 0.5299040755263686)
        assert _close3(out.axis, expect_axis, 1e-9)
        assert abs(out.angle - (math.pi / 4 + math.pi / 6)) > 0.3

    def test_inverse_composition_is_identity(self):
        r = Rotation3(unit3(Vec3(2, -1, 3)), 1.2)
        inv = Rotation3(r.axis, -r.angle)
        out = compose_sphere_rotations(r, inv)
        assert out.angle == 0.0
        assert _close3(out.axis, Z, 1e-15)

    def test_coaxial_angles_add(self):
        axis = unit3(Vec3(1, 2, -2))
        out = compose_sphere_rotations(Rotation3(axis, 0.7), Rotation3(axis, 0.9))
        assert _axis_match(out.axis, axis)
        assert abs(out.angle - 1.6) <= 1e-12

    def test_pointwise_consistency(self):
        rng = random.Random(43)
        for _ in range(1000):
            a, b = rand_rotation3(rng), rand_rotation3(rng)
            out = compose_sphere_rotations(a, b)
            p = rand_unit3(rng)
            seq = apply_sphere(a, apply_sphere(b, p))
            assert _close3(apply_sphere(out, p), seq, 1e-9)


class TestAxisAngleFromMatrix:
    def test_identity(self):
        out = axis_angle_from_matrix(Mat3(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))))
        assert out.angle == 0.0
        assert _close3(out.axis, Z, 1e-15)

    def test_coordinate_round_trip(self):
        r = Rotation3(Z, math.pi / 6)
        out = axis_angle_from_matrix(rotation_matrix(r))
        assert _close3(out.axis, Z, 1e-12)
        assert abs(out.angle - math.pi / 6) <= 1e-12

    def test_random_round_trips(self):
        rng = random.Random(47)
        for _ in range(300):
            r = rand_rotation3(rng, min_angle=1e-3)
            out = axis_angle_from_matrix(rotation_matrix(r))
            assert abs(out.angle - r.angle) <= 1e-9
            assert _close3(out.axis, r.axis)

    def test_half_turn_sign_convention(self):
        # skew part vanishes at a half turn; the first nonzero axis
        # component is made positive
        m = rotation_matrix(Rotation3(UnitVector3(0.0, 0.0, -1.0), math.pi))
        out = axis_angle_from_matrix(m)
        assert abs(out.angle - math.pi) <= 1e-12
        assert _close3(out.axis, Z, 1e-12)

    def test_trace_and_eigen_routes_agree(self):
        rng = random.Random(53)
        from isometry_lab import eig3_rotation

        for _ in range(200):
            r = rand_rotation3(rng, min_angle=1e-3)
            m = rotation_matrix(r)
            out = axis_angle_from_matrix(m)
            _, (a, _) = eig3_rotation(m)
            assert abs(out.angle - math.acos(max(-1.0, min(1.0, a)))) <= 1e-9


    @pytest.mark.parametrize("angle, a", [(math.pi / 2, 0.5), (1e-6, 0.5)])
    def test_a_trace_that_disagrees_with_the_skew_part_raises(self, angle, a, monkeypatch):
        # the angle is read by acos where the skew part is long, by atan2 where short;
        # the pair (a, b) is the trace's a and the skew length sin(angle) of m
        import isometry_lab.spherical as spherical

        m = rotation_matrix(Rotation3(Z, angle))
        monkeypatch.setattr(spherical, "eig3_rotation", lambda _: (Z, (a, math.sin(angle))))
        with pytest.raises(InternalCheckError, match="disagrees with sin"):
            axis_angle_from_matrix(m)


def test_fixed_point_algebraic_solve_checks_lengths_once(monkeypatch):
    import isometry_lab.spherical as spherical

    calls = []
    check = spherical._require_isometric
    monkeypatch.setattr(spherical, "_require_isometric", lambda *a: calls.append(a) or check(*a))
    # the fixed-point answer must not need the public solvers
    monkeypatch.setattr(spherical, "recover_axis_cross", None)
    monkeypatch.setattr(spherical, "recover_axis_geometric", None)
    rot = recover_sphere_rotation(Z, Z, X, UnitVector3(0.6, 0.8, 0.0), method="algebraic")
    assert _close3(rot.axis, Z, 1e-12)
    assert rot.angle == pytest.approx(math.atan2(0.8, 0.6), abs=1e-12)
    assert len(calls) == 1


# images: the points turned, by one _images_xyz call per route on x and y;
# _dist_xyz: each route's residual in _recover_sphere, which the record reuses,
# and with "both" the discrepancy between the two routes' images
@pytest.mark.parametrize("method, images, dists",
                         [("algebraic", 2, 2), ("geometric", 2, 2), ("both", 4, 6)])
def test_a_sphere_recover_run_checks_lengths_once_and_turns_each_point_once_per_route(
        method, images, dists, monkeypatch):
    import isometry_lab.cli as cli
    import isometry_lab.spherical as spherical
    from isometry_lab import parse_instance, run

    instance = parse_instance(
        '{"kind": "sphere_recover", "X": [1, 0, 0], "Y": [0, 1, 0],'
        ' "Xp": [0, 0, 1], "Yp": [1, 0, 0]}'
    )
    calls = {"_images_xyz": [], "_require_isometric": [], "_dist_xyz": []}
    for name, seen in calls.items():
        real = getattr(spherical, name)
        for module in (spherical, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    lambda *a, real=real, seen=seen: seen.append(a) or real(*a))
    run(instance, method=method)
    turned = calls.pop("_images_xyz")
    assert [tuple(points) for _, points in turned] == [(X, Y)] * (images // 2)
    assert [len(seen) for seen in calls.values()] == [1, dists]


def test_sphere_composite_is_constructed_without_the_algebraic_route(monkeypatch):
    import isometry_lab.spherical as spherical

    refuse_algebraic_routes(monkeypatch)
    outer, inner = Rotation3(UnitVector3(0.0, 1.0, 0.0), math.pi / 4), Rotation3(Z, math.pi / 6)
    rot = spherical._compose_sphere_geometric(outer, inner)
    # acceptance test_02's published values
    assert rot.angle == pytest.approx(0.9363, abs=1e-3)
    assert (math.cos(rot.angle), math.sin(rot.angle)) == pytest.approx((0.5927, 0.8054), abs=1e-3)
    for got, want in zip((rot.axis.x, rot.axis.y, rot.axis.z), (0.2195, 0.8192, 0.5299)):
        assert abs(abs(got) - want) <= 1e-3


def _count_rotation_checks(monkeypatch) -> list:
    """Count linalg.require_rotation calls, through every module that holds the name."""
    import isometry_lab.cli as cli
    import isometry_lab.linalg as linalg
    import isometry_lab.spherical as spherical

    calls = []
    check = linalg.require_rotation
    for module in (linalg, spherical, cli):
        if hasattr(module, "require_rotation"):
            monkeypatch.setattr(module, "require_rotation", lambda m: calls.append(m) or check(m))
    return calls


def test_a_sphere_composite_checks_its_matrix_once(monkeypatch):
    calls = _count_rotation_checks(monkeypatch)
    compose_sphere_rotations(Rotation3(Y, math.pi / 4), Rotation3(Z, math.pi / 6))
    assert len(calls) == 1


@pytest.mark.parametrize("method, checks", [("algebraic", 1), ("geometric", 0), ("both", 1)])
def test_a_sphere_compose_run_checks_a_matrix_once_per_algebraic_route(method, checks,
                                                                       monkeypatch):
    from isometry_lab import parse_instance, run

    instance = parse_instance(
        '{"kind": "sphere_compose", "G": [0, 1, 0], "alpha": 0.7, "H": [0, 0, 1], "beta": 0.5}'
    )
    calls = _count_rotation_checks(monkeypatch)
    run(instance, method=method)
    assert len(calls) == checks

import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import plane_accuracy
from helpers import (
    near_pivot_segments, rand_rotation2, rand_segment2, rand_vec2, refuse_algebraic_routes,
)
from isometry_lab import (
    DegenerateBisector,
    DegenerateSegment,
    Identity2,
    LengthMismatch,
    Line2,
    ParallelBisectors,
    Reflection2,
    Rotation2,
    Segment2,
    Translation2,
    Vec2,
    ZeroAngle,
    apply_planar,
    compose_planar,
    compose_reflections,
    compose_rotations_planar,
    orientation_sign,
    recover_pivot_geometric,
    recover_planar,
    recover_planar_geometric,
    reflect,
    reflections_for_rotation,
    signed_angle,
    solve2,
    wrap_angle,
)

coords = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
points = st.builds(Vec2, coords, coords)


def _close(p: Vec2, q: Vec2, tol: float = 1e-9) -> bool:
    return (p - q).norm() <= tol


class TestApplyPlanar:
    def test_pivot_is_fixed(self):
        rot = Rotation2(Vec2(2.0, -1.5), 1.1)
        assert apply_planar(rot, rot.pivot) == rot.pivot

    def test_quarter_turn_of_basis_vector(self):
        rot = Rotation2(Vec2(0, 0), math.pi / 2)
        assert _close(apply_planar(rot, Vec2(1, 0)), Vec2(0, 1), 1e-15)

    def test_offset_pivot_hand_computed(self):
        # P + R(X - P) for P=(1,0), X=(2,0), quarter turn -> (1,1)
        rot = Rotation2(Vec2(1, 0), math.pi / 2)
        assert _close(apply_planar(rot, Vec2(2, 0)), Vec2(1, 1), 1e-15)

    def test_distance_preservation(self):
        rng = random.Random(11)
        for _ in range(200):
            isos = (
                rand_rotation2(rng),
                Translation2(rand_vec2(rng)),
                Reflection2(Line2(rand_vec2(rng), rand_vec2(rng, 1.0) + Vec2(1.5, 0))),
                Identity2(),
            )
            p, q = rand_vec2(rng), rand_vec2(rng)
            d0 = (p - q).norm()
            for iso in isos:
                d1 = (apply_planar(iso, p) - apply_planar(iso, q)).norm()
                assert abs(d0 - d1) <= 1e-12 * max(1.0, d0)

    def test_rejects_a_non_isometry(self):
        with pytest.raises(TypeError, match="not a planar isometry: Segment2"):
            apply_planar(Segment2(Vec2(0, 0), Vec2(1, 0)), Vec2(0, 0))


class TestReflect:
    def test_x_axis(self):
        axis = Line2(Vec2(0, 0), Vec2(1, 0))
        assert reflect(axis, Vec2(3, 4)) == Vec2(3, -4)

    def test_diagonal_swap(self):
        diag = Line2(Vec2(0, 0), Vec2(1, 1))
        assert _close(reflect(diag, Vec2(1, 0)), Vec2(0, 1), 1e-15)

    def test_point_on_line_is_fixed(self):
        line = Line2(Vec2(1, 2), Vec2(3, -1))
        p = Vec2(1, 2) + Vec2(3, -1) * 0.7
        assert _close(reflect(line, p), p, 1e-15)

    @given(points, points, points)
    def test_involution(self, lp, ld, p):
        if ld.norm() < 1e-3:
            return
        line = Line2(lp, ld)
        assert _close(reflect(line, reflect(line, p)), p, 1e-12 * max(1.0, p.norm()))

    def test_mirror_geometry(self):
        rng = random.Random(5)
        for _ in range(200):
            line = Line2(rand_vec2(rng), rand_vec2(rng, 1.0) + Vec2(1.5, 0))
            p = rand_vec2(rng)
            q = reflect(line, p)
            mid = (p + q) * 0.5
            # midpoint on the line, displacement perpendicular to it
            assert abs((mid - line.point).dot(line.direction.perp())) <= 1e-9
            assert abs((q - p).dot(line.direction)) <= 1e-9


    def test_a_direction_too_long_to_square_is_still_a_unit_vector(self):
        line = Line2(Vec2(0.0, 0.0), Vec2(1.7e308, 1.7e308))
        assert _close(line.direction, Vec2(math.sqrt(0.5), math.sqrt(0.5)), 1e-15)
        assert _close(reflect(line, Vec2(1.0, 0.0)), Vec2(0.0, 1.0), 1e-15)
        x_axis = Reflection2(Line2(Vec2(0.0, 0.0), Vec2(1.0, 0.0)))
        quarter = compose_reflections(x_axis, Reflection2(line))
        assert isinstance(quarter, Rotation2)
        assert _close(quarter.pivot, Vec2(0.0, 0.0), 1e-15)
        assert math.isclose(quarter.angle, math.pi / 2, rel_tol=1e-15)

    @pytest.mark.parametrize("x, y", [(5e-324, 5e-324), (1e-320, 1e-320), (6 * 5e-324, 5e-324)])
    def test_a_direction_too_short_to_square_is_still_a_unit_vector(self, x, y):
        # subnormal components: their norm keeps too few digits to divide by
        d = Line2(Vec2(0.0, 0.0), Vec2(x, y)).direction
        k = x / y
        assert _close(d, Vec2(k / math.hypot(k, 1.0), 1.0 / math.hypot(k, 1.0)), 1e-15)


class TestOrientationSign:
    def test_ccw(self):
        assert orientation_sign(Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)) == 1

    def test_cw(self):
        assert orientation_sign(Vec2(0, 0), Vec2(0, 1), Vec2(1, 0)) == -1

    def test_collinear(self):
        assert orientation_sign(Vec2(0, 0), Vec2(1, 1), Vec2(2, 2)) == 0

    def test_preserved_by_rotations_and_translations_flipped_by_reflections(self):
        rng = random.Random(17)
        for _ in range(200):
            a, b, c = rand_vec2(rng), rand_vec2(rng), rand_vec2(rng)
            s = orientation_sign(a, b, c)
            if s == 0:
                continue
            rot = rand_rotation2(rng)
            tra = Translation2(rand_vec2(rng))
            ref = Reflection2(Line2(rand_vec2(rng), rand_vec2(rng, 1.0) + Vec2(1.5, 0)))
            for iso, expected in ((rot, s), (tra, s), (ref, -s)):
                images = [apply_planar(iso, p) for p in (a, b, c)]
                assert orientation_sign(*images) == expected


class TestRecoverPlanar:
    def test_translation_instance(self):
        iso = recover_planar(
            Segment2(Vec2(0, 0), Vec2(1, 0)), Segment2(Vec2(2, 3), Vec2(3, 3))
        )
        assert isinstance(iso, Translation2)
        assert _close(iso.v, Vec2(2, 3), 1e-12)

    def test_quarter_turn_about_origin(self):
        iso = recover_planar(
            Segment2(Vec2(1, 0), Vec2(2, 0)), Segment2(Vec2(0, 1), Vec2(0, 2))
        )
        assert isinstance(iso, Rotation2)
        assert _close(iso.pivot, Vec2(0, 0))
        assert math.isclose(iso.angle, math.pi / 2, abs_tol=1e-9)

    def test_fixed_segment_is_identity(self):
        seg = Segment2(Vec2(1, 0), Vec2(2, 0))
        assert isinstance(recover_planar(seg, seg), Identity2)

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatch):
            recover_planar(
                Segment2(Vec2(0, 0), Vec2(1, 0)), Segment2(Vec2(0, 0), Vec2(2, 0))
            )

    def test_degenerate_segment_rejected_at_construction(self):
        with pytest.raises(DegenerateSegment):
            Segment2(Vec2(1, 1), Vec2(1, 1))

    def test_far_apart_endpoints_are_refused_for_their_size_not_as_coincident(self):
        # the norms overflow, so a coincidence cut scaled by them would be inf
        with pytest.raises(ValueError, match=r"coordinates beyond 1e\+150"):
            Segment2(Vec2(1.5e308, 1.5e308), Vec2(0.0, 0.0))

    def test_solved_cosine_sine_lands_on_unit_circle(self):
        rng = random.Random(23)
        for _ in range(200):
            rot = rand_rotation2(rng)
            src = rand_segment2(rng)
            dst = Segment2(apply_planar(rot, src.a), apply_planar(rot, src.b))
            d, b = src.a - src.b, dst.a - dst.b
            cs = solve2(d.x, -d.y, d.y, d.x, b.x, b.y)
            assert abs(cs.norm() - 1.0) <= 1e-9

    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(300):
            rot = rand_rotation2(rng, min_angle=1e-6)
            src = rand_segment2(rng)
            dst = Segment2(apply_planar(rot, src.a), apply_planar(rot, src.b))
            got = recover_planar(src, dst)
            assert isinstance(got, Rotation2)
            assert _close(got.pivot, rot.pivot)
            assert abs(wrap_angle(got.angle - rot.angle)) <= 1e-9


class TestRecoverPivotGeometric:
    def test_collinear_instance_uses_algebraic_fallback(self):
        # both bisectors are the line y = x here, so the intersection
        # degenerates and the algebraic pivot must be returned
        pivot = recover_pivot_geometric(
            Segment2(Vec2(1, 0), Vec2(2, 0)), Segment2(Vec2(0, 1), Vec2(0, 2))
        )
        assert _close(pivot, Vec2(0, 0))

    def test_half_turn_with_coincident_bisectors(self):
        pivot = recover_pivot_geometric(
            Segment2(Vec2(1, 0), Vec2(2, 0)), Segment2(Vec2(-1, 0), Vec2(-2, 0))
        )
        assert _close(pivot, Vec2(0, 0))

    def test_translation_raises_parallel_bisectors(self):
        for src, dst, message in [
            # parallel bisectors
            (Segment2(Vec2(0, 0), Vec2(1, 0)), Segment2(Vec2(2, 3), Vec2(3, 3)),
             "bisectors are parallel; the correspondence is a translation"),
            # one bisector, x = 1/2, for both endpoints: its mirror then dst's is a translation
            (Segment2(Vec2(0, 0), Vec2(0, 1)), Segment2(Vec2(1, 0), Vec2(1, 1)),
             "correspondence is a translation; no pivot exists"),
        ]:
            with pytest.raises(ParallelBisectors, match=f"^{re.escape(message)}$"):
                recover_pivot_geometric(src, dst)

    def test_fixed_endpoint_is_the_pivot(self):
        rot = Rotation2(Vec2(1, 0), 0.8)
        src = Segment2(Vec2(1, 0), Vec2(3, 1))
        dst = Segment2(apply_planar(rot, src.a), apply_planar(rot, src.b))
        assert _close(recover_pivot_geometric(src, dst), Vec2(1, 0), 1e-12)

    def test_fixed_second_endpoint_is_the_pivot(self):
        src = Segment2(Vec2(3, 0), Vec2(1, 0))
        dst = Segment2(Vec2(1, 2), Vec2(1, 0))
        assert recover_pivot_geometric(src, dst) == Vec2(1, 0)

    def test_fully_fixed_correspondence_raises(self):
        seg = Segment2(Vec2(0, 0), Vec2(1, 0))
        with pytest.raises(DegenerateBisector):
            recover_pivot_geometric(seg, seg)

    def test_matches_inline_line_intersection_oracle(self):
        rng = random.Random(37)
        for _ in range(200):
            rot = rand_rotation2(rng, min_angle=1e-3)
            src = rand_segment2(rng)
            dst = Segment2(apply_planar(rot, src.a), apply_planar(rot, src.b))
            try:
                got = recover_pivot_geometric(src, dst)
            except DegenerateBisector:
                continue
            oracle = _bisector_intersection_oracle(src, dst)
            if oracle is not None:
                assert _close(got, oracle, 1e-8 * max(1.0, oracle.norm()))
            assert _close(got, rot.pivot)


def _bisector_intersection_oracle(src, dst):
    """Straight Cramer solve of the two bisector line equations."""
    # each bisector: points z with (z - mid) . chord = 0
    c1 = dst.a - src.a
    m1 = (src.a + dst.a) * 0.5
    c2 = dst.b - src.b
    m2 = (src.b + dst.b) * 0.5
    det = c1.x * c2.y - c1.y * c2.x
    if abs(det) < 1e-9:
        return None
    b1, b2 = m1.dot(c1), m2.dot(c2)
    return Vec2((b1 * c2.y - c1.y * b2) / det, (c1.x * b2 - b1 * c2.x) / det)


class TestRecoverPlanarGeometric:
    def test_agrees_with_algebraic_route(self):
        rng = random.Random(41)
        for _ in range(300):
            rot = rand_rotation2(rng, min_angle=1e-6)
            src = rand_segment2(rng)
            dst = Segment2(apply_planar(rot, src.a), apply_planar(rot, src.b))
            alg = recover_planar(src, dst)
            geo = recover_planar_geometric(src, dst)
            assert isinstance(alg, Rotation2) and isinstance(geo, Rotation2)
            assert _close(alg.pivot, geo.pivot)
            assert abs(wrap_angle(alg.angle - geo.angle)) <= 1e-9

    def test_translation_classification(self):
        iso = recover_planar_geometric(
            Segment2(Vec2(0, 0), Vec2(1, 0)), Segment2(Vec2(2, 3), Vec2(3, 3))
        )
        assert isinstance(iso, Translation2)
        assert _close(iso.v, Vec2(2, 3), 1e-12)

    @pytest.mark.parametrize("arm", [1e-8, 1e-7, 1e-6, 1e-5])
    def test_an_endpoint_next_to_the_pivot_does_not_set_the_angle(self, arm):
        # the angle comes off the endpoint that moves more, not off one `arm`
        # from the pivot, whose direction the pivot's rounding turns
        rng = random.Random(11)
        for _ in range(400):
            src, dst = near_pivot_segments(rng, arm)
            iso = recover_planar_geometric(src, dst)
            assert apply_planar(iso, src.a).dist(dst.a) <= 1e-9
            assert apply_planar(iso, src.b).dist(dst.b) <= 1e-9


class TestComposeRotations:
    def test_published_two_pivot_example(self):
        out = compose_rotations_planar(
            Rotation2(Vec2(0, 0), math.pi / 4), Rotation2(Vec2(1, 0), math.pi / 2)
        )
        assert isinstance(out, Rotation2)
        assert abs(out.pivot.x - 0.7071) <= 1e-4
        assert abs(out.pivot.y - 0.2929) <= 1e-4
        assert math.isclose(out.angle, 3 * math.pi / 4, abs_tol=1e-12)

    def test_shared_pivot_adds_angles(self):
        p = Vec2(2.0, -3.0)
        out = compose_rotations_planar(Rotation2(p, 0.7), Rotation2(p, 0.9))
        assert isinstance(out, Rotation2)
        assert _close(out.pivot, p, 1e-12)
        assert math.isclose(out.angle, 1.6, abs_tol=1e-12)

    def test_cancelled_angles_translation(self):
        # value frozen from direct sequential evaluation at (0,0) and (5,7)
        out = compose_rotations_planar(
            Rotation2(Vec2(0, 0), -math.pi / 2), Rotation2(Vec2(1, 0), math.pi / 2)
        )
        assert isinstance(out, Translation2)
        assert _close(out.v, Vec2(-1, -1), 1e-12)
        outer = Rotation2(Vec2(0, 0), -math.pi / 2)
        inner = Rotation2(Vec2(1, 0), math.pi / 2)
        for p in (Vec2(0, 0), Vec2(5, 7)):
            seq = apply_planar(outer, apply_planar(inner, p))
            assert _close(apply_planar(out, p), seq, 1e-12)

    def test_composite_angle_is_angle_sum(self):
        rng = random.Random(43)
        for _ in range(300):
            a, b = rand_rotation2(rng), rand_rotation2(rng)
            out = compose_rotations_planar(a, b)
            expect = wrap_angle(a.angle + b.angle)
            angle = out.angle if isinstance(out, Rotation2) else 0.0
            assert abs(wrap_angle(angle - expect)) <= 1e-12

    def test_pointwise_against_sequential_application(self):
        rng = random.Random(47)
        for _ in range(200):
            a, b = rand_rotation2(rng), rand_rotation2(rng)
            out = compose_rotations_planar(a, b)
            for _ in range(3):
                p = rand_vec2(rng)
                seq = apply_planar(a, apply_planar(b, p))
                assert _close(apply_planar(out, p), seq, 1e-9)

    def test_noncommutativity_witness(self):
        a = Rotation2(Vec2(0, 0), math.pi / 4)
        b = Rotation2(Vec2(1, 0), math.pi / 2)
        ab = compose_rotations_planar(a, b)
        ba = compose_rotations_planar(b, a)
        assert not _close(ab.pivot, ba.pivot, 1e-3)
        for p in (Vec2(0.5, 2.0), Vec2(-1.0, 0.25)):
            assert _close(apply_planar(ab, p), apply_planar(a, apply_planar(b, p)), 1e-12)
            assert _close(apply_planar(ba, p), apply_planar(b, apply_planar(a, p)), 1e-12)


class TestComposePlanar:
    def test_group_closure_pointwise(self):
        rng = random.Random(53)
        probes = (Vec2(0, 0), Vec2(1, 0), Vec2(0.3, 1.7))

        def pick(r):
            k = r.randrange(3)
            if k == 0:
                return rand_rotation2(r)
            if k == 1:
                return Translation2(rand_vec2(r))
            return Identity2()

        for _ in range(300):
            outer, inner = pick(rng), pick(rng)
            out = compose_planar(outer, inner)
            assert isinstance(out, (Rotation2, Translation2, Identity2))
            for p in probes:
                seq = apply_planar(outer, apply_planar(inner, p))
                assert _close(apply_planar(out, p), seq, 1e-9)

    def test_two_reflections_accepted(self):
        r1 = Reflection2(Line2(Vec2(0, 0), Vec2(1, 0)))
        r2 = Reflection2(Line2(Vec2(0, 0), Vec2(1, 1)))
        out = compose_planar(r2, r1)  # r1 first
        assert isinstance(out, Rotation2)
        assert math.isclose(out.angle, math.pi / 2, abs_tol=1e-12)

    def test_mixed_reflection_rejected(self):
        r = Reflection2(Line2(Vec2(0, 0), Vec2(1, 0)))
        with pytest.raises(ValueError):
            compose_planar(r, Rotation2(Vec2(0, 0), 1.0))

    def test_a_lone_reflection_is_orientation_reversing_on_either_side(self):
        r = Reflection2(Line2(Vec2(0, 0), Vec2(1, 0)))
        for outer, inner in ((r, Identity2()), (Translation2(Vec2(1, 2)), r)):
            with pytest.raises(ValueError, match="^mixed reflection composites are orientation-"):
                compose_planar(outer, inner)

    def test_a_non_isometry_is_a_type_error_as_in_apply_planar(self):
        # it used to be refused as a reflection
        with pytest.raises(TypeError, match="^not a planar isometry: Segment2"):
            compose_planar(Segment2(Vec2(0, 0), Vec2(1, 0)), Identity2())


class TestComposeReflections:
    def test_x_axis_then_diagonal(self):
        first = Reflection2(Line2(Vec2(0, 0), Vec2(1, 0)))
        second = Reflection2(Line2(Vec2(0, 0), Vec2(1, 1)))
        out = compose_reflections(first, second)
        assert isinstance(out, Rotation2)
        assert _close(out.pivot, Vec2(0, 0), 1e-12)
        assert math.isclose(out.angle, math.pi / 2, abs_tol=1e-12)

    def test_parallel_lines_translate_twice_the_gap(self):
        first = Reflection2(Line2(Vec2(0, 0), Vec2(1, 0)))
        second = Reflection2(Line2(Vec2(0, 1), Vec2(1, 0)))
        out = compose_reflections(first, second)
        assert isinstance(out, Translation2)
        assert _close(out.v, Vec2(0, 2), 1e-12)

    def test_same_line_twice_is_identity(self):
        r = Reflection2(Line2(Vec2(1, 2), Vec2(2, 1)))
        assert isinstance(compose_reflections(r, r), Identity2)

    def test_lines_crossing_below_angle_min_translate(self):
        # a 4e-10 rad turn about a crossing 5e9 away: below ANGLE_MIN, as for
        # every plane composite, that is a translation
        t = 2e-10
        first = Reflection2(Line2(Vec2(0.0, 0.0), Vec2(math.cos(t), -math.sin(t))))
        second = Reflection2(Line2(Vec2(0.0, 1.0), Vec2(1.0, 0.0)))
        assert compose_reflections(first, second) == Translation2(Vec2(0.0, 2.0))

    def test_parallel_lines_below_the_cut_translate_like_every_plane_composite(self):
        # a gap of 0.75e-12 translates by 1.5e-12, above the identity cut of
        # COINCIDENT_RTOL at unit scale, though the gap itself is below it
        first = Reflection2(Line2(Vec2(0.0, 0.0), Vec2(1.0, 0.0)))
        second = Reflection2(Line2(Vec2(0.0, 0.75e-12), Vec2(1.0, 0.0)))
        out = compose_reflections(first, second)
        assert isinstance(out, Translation2)
        assert (out.v.x, out.v.y) == (0.0, 1.5e-12)

    def test_matches_double_reflection_pointwise(self):
        rng = random.Random(59)
        for _ in range(200):
            l1 = Line2(rand_vec2(rng), rand_vec2(rng, 1.0) + Vec2(1.5, 0))
            l2 = Line2(rand_vec2(rng), rand_vec2(rng, 1.0) + Vec2(0, 1.5))
            out = compose_reflections(Reflection2(l1), Reflection2(l2))
            p = rand_vec2(rng)
            assert _close(apply_planar(out, p), reflect(l2, reflect(l1, p)), 1e-9)


class TestReflectionsForRotation:
    def test_canonical_lines_for_quarter_turn(self):
        first, second = reflections_for_rotation(Rotation2(Vec2(0, 0), math.pi / 2))
        assert first.line.point == Vec2(0, 0)
        assert _close(first.line.direction, Vec2(1, 0), 1e-15)
        assert math.isclose(
            signed_angle(first.line.direction, second.line.direction),
            math.pi / 4,
            abs_tol=1e-15,
        )

    def test_half_turn_gives_perpendicular_lines(self):
        first, second = reflections_for_rotation(Rotation2(Vec2(2, 5), math.pi))
        assert first.line.point == Vec2(2, 5)
        assert abs(first.line.direction.dot(second.line.direction)) <= 1e-12

    def test_zero_angle_rejected(self):
        with pytest.raises(ZeroAngle):
            reflections_for_rotation(Rotation2(Vec2(1, 1), 0.0))

    def test_round_trip(self):
        rng = random.Random(61)
        for _ in range(300):
            rot = rand_rotation2(rng, min_angle=1e-6)
            first, second = reflections_for_rotation(rot)
            back = compose_reflections(first, second)
            assert isinstance(back, Rotation2)
            assert _close(back.pivot, rot.pivot, 1e-12 * max(1.0, rot.pivot.norm()))
            assert abs(wrap_angle(back.angle - rot.angle)) <= 1e-12


# The half turn about the origin, collinear with both bisectors (the x axis);
# the image segment is 3e-9 longer than the source.
_LONGER_HALF_TURN = (
    Segment2(Vec2(1.0, 0.0), Vec2(2.0, 0.0)),
    Segment2(Vec2(-1.0, 0.0), Vec2(-2.0 - 3e-9, 0.0)),
)


@pytest.mark.parametrize("solver", [recover_planar, recover_planar_geometric])
def test_collinear_fallback_honours_the_callers_tolerance(solver):
    iso = solver(*_LONGER_HALF_TURN, tol=1e-5)
    assert isinstance(iso, Rotation2)
    assert iso.angle == pytest.approx(math.pi)
    assert _close(iso.pivot, Vec2(0.0, 0.0), 1e-12)
    with pytest.raises(LengthMismatch):
        solver(*_LONGER_HALF_TURN)


def test_collinear_geometric_solve_checks_lengths_once(monkeypatch):
    import isometry_lab.planar as planar

    calls = []
    check = planar._check_lengths
    monkeypatch.setattr(planar, "_check_lengths", lambda *a: calls.append(a) or check(*a))
    monkeypatch.setattr(planar, "recover_planar", None)  # the fallback must not need it
    src = Segment2(Vec2(1.0, 0.0), Vec2(2.0, 0.0))
    iso = recover_planar_geometric(src, Segment2(Vec2(-1.0, 0.0), Vec2(-2.0, 0.0)))
    assert isinstance(iso, Rotation2) and iso.angle == pytest.approx(math.pi)
    assert len(calls) == 1


def test_collinear_pivot_is_constructed_without_the_algebraic_route(monkeypatch):
    refuse_algebraic_routes(monkeypatch)
    src = Segment2(Vec2(1.0, 0.0), Vec2(2.0, 0.0))
    iso = recover_planar_geometric(src, Segment2(Vec2(-1.0, 0.0), Vec2(-2.0, 0.0)))
    assert isinstance(iso, Rotation2) and iso.angle == pytest.approx(math.pi)
    assert iso.pivot == Vec2(0.0, 0.0)


def test_plane_composite_is_constructed_without_the_algebraic_route(monkeypatch):
    import isometry_lab.planar as planar

    refuse_algebraic_routes(monkeypatch)
    outer, inner = Rotation2(Vec2(0.0, 0.0), math.pi / 4), Rotation2(Vec2(1.0, 0.0), math.pi / 2)
    iso = planar._compose_planar_geometric(outer, inner)
    # acceptance test_01's published values
    assert isinstance(iso, Rotation2)
    assert _close(iso.pivot, Vec2(0.7071, 0.2929), 1e-4)
    assert iso.angle == pytest.approx(3 * math.pi / 4, abs=1e-12)


_PLAIN_SRC = Segment2(Vec2(1.0, 0.0), Vec2(2.0, 0.5))
_TURN = Rotation2(Vec2(0.5, 0.2), math.pi / 3)


@pytest.mark.parametrize("src, dst", [
    (_PLAIN_SRC, Segment2(apply_planar(_TURN, _PLAIN_SRC.a), apply_planar(_TURN, _PLAIN_SRC.b))),
    (Segment2(Vec2(1.0, 0.0), Vec2(2.0, 0.0)), Segment2(Vec2(-1.0, 0.0), Vec2(-2.0, 0.0))),
], ids=["plain", "collinear"])
def test_geometric_plane_solve_scales_the_points_once(monkeypatch, src, dst):
    import isometry_lab.planar as planar

    calls = []
    scale = planar._point_scale
    monkeypatch.setattr(planar, "_point_scale", lambda *p: calls.append(p) or scale(*p))
    iso = recover_planar_geometric(src, dst)
    assert isinstance(iso, Rotation2)
    assert len(calls) == 1
    assert recover_pivot_geometric(src, dst) == iso.pivot
    assert len(calls) == 2


@pytest.mark.parametrize("cls, args, message", [
    (Rotation2, (Vec2(math.nan, 0.0), 1.0), "rotation parameters must be finite"),
    (Rotation2, (Vec2(0.0, 0.0), math.inf), "rotation parameters must be finite"),
    (Translation2, (Vec2(0.0, -math.inf),), "translation vector must be finite"),
    (Line2, (Vec2(0.0, 0.0), Vec2(math.nan, 1.0)), "line parameters must be finite"),
    (Segment2, (Vec2(0.0, 0.0), Vec2(math.inf, 1.0)), "segment endpoints must be finite"),
], ids=["Rotation2-pivot", "Rotation2-angle", "Translation2", "Line2", "Segment2"])
def test_a_plane_value_refuses_a_non_finite_parameter(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)


def test_compose_planar_misses_by_at_most_tol_times_scale():
    # at 50 digits, on each instance's own points; only the rotations just under
    # ANGLE_MIN that are answered as translations may miss
    found = {**plane_accuracy.faults(plane_accuracy.near_translations),
             **plane_accuracy.faults(plane_accuracy.edge_composes)}
    assert found.keys() <= plane_accuracy.KNOWN_FAULTS, found
    assert all(why.startswith("Translation2 ") for why in found.values()), found


def test_recover_planar_misses_by_at_most_tol_times_scale():
    found = {**plane_accuracy.faults(plane_accuracy.far_pivot),
             **plane_accuracy.faults(plane_accuracy.edge_recovers)}
    assert found == {}

"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them)."""

import json
import math
import random
import time

from helpers import (
    rand_rotation2,
    rand_rotation3,
    rand_segment2,
    rand_sphere_pair,
    rand_unit3,
    rand_vec2,
    unit3,
)
from isometry_lab import (
    Identity2,
    Line2,
    Mat3,
    Reflection2,
    Rotation2,
    Rotation3,
    Segment2,
    SphereSegment,
    Translation2,
    UnitVector3,
    Vec2,
    Vec3,
    apply_planar,
    apply_sphere,
    chord_arcsin_angle,
    compose_reflections,
    compose_rotations_planar,
    compose_sphere_rotations,
    cross,
    eig3_rotation,
    orientation_sign,
    recover_pivot_geometric,
    recover_planar,
    recover_sphere_rotation,
    reflections_for_rotation,
    rotation_angle_about_axis,
    rotation_matrix,
    run_baseball,
    wrap_angle,
)
from isometry_lab.cli import instance_from_obj, main, run


def _mv(m: Mat3, v: Vec3) -> Vec3:
    """The matrix m times v."""
    return Vec3(*(Vec3(*row).dot(v) for row in m.rows))


def _report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"acceptance {name}: {status}{suffix}")
    assert passed, f"{name} failed{suffix}"


def test_01_plane_compose_known_pivot_and_angle():
    obj = {
        "kind": "plane_compose",
        "G": [0.0, 0.0],
        "alpha": math.pi / 4,
        "H": [1.0, 0.0],
        "beta": math.pi / 2,
    }
    inst = instance_from_obj(obj)
    run(inst)  # warm-up
    t0 = time.perf_counter()
    record = run(inst)
    elapsed = time.perf_counter() - t0
    px, py = record.result["pivot"]
    ok = (
        abs(px - 0.7071) <= 1e-4
        and abs(py - 0.2929) <= 1e-4
        and abs(record.result["angle"] - 3 * math.pi / 4) <= 1e-12
        and elapsed < 0.010
    )
    _report(
        "01 plane-compose pivot/angle",
        ok,
        f"pivot=({px:.6f},{py:.6f}) angle={record.result['angle']:.9f} {elapsed * 1e3:.2f}ms",
    )


def test_02_sphere_compose_known_angle_axis_eigenpair():
    obj = {
        "kind": "sphere_compose",
        "G": [0.0, 1.0, 0.0],
        "alpha": math.pi / 4,
        "H": [0.0, 0.0, 1.0],
        "beta": math.pi / 6,
    }
    inst = instance_from_obj(obj)
    run(inst)  # warm-up
    t0 = time.perf_counter()
    record = run(inst)
    elapsed = time.perf_counter() - t0
    angle = record.result["angle"]
    a, b = record.result["complex_pair"]
    axis = record.result["axis"]
    ok = (
        abs(angle - 0.9363) <= 1e-3
        and abs(a - 0.5927) <= 1e-3
        and abs(b - 0.8054) <= 1e-3
        and all(
            abs(abs(got) - expect) <= 1e-3
            for got, expect in zip(axis, (0.2195, 0.8192, 0.5299))
        )
        and elapsed < 0.010
    )
    _report(
        "02 sphere-compose angle/axis/eigenpair",
        ok,
        f"angle={angle:.6f} pair=({a:.6f},{b:.6f}) {elapsed * 1e3:.2f}ms",
    )


def test_03_sphere_angles_do_not_add():
    out = compose_sphere_rotations(
        Rotation3(UnitVector3(0, 1, 0), math.pi / 4),
        Rotation3(UnitVector3(0, 0, 1), math.pi / 6),
    )
    gap = abs(out.angle - (math.pi / 4 + math.pi / 6))
    _report("03 sphere non-additivity", gap > 0.3, f"|theta-(a+b)|={gap:.4f}")


def test_04_plane_composite_angle_is_angle_sum():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a, b = rand_rotation2(rng), rand_rotation2(rng)
        out = compose_rotations_planar(a, b)
        angle = out.angle if isinstance(out, Rotation2) else 0.0
        worst = max(worst, abs(wrap_angle(angle - (a.angle + b.angle))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report("04 composite angle sum x1000", ok, f"worst={worst:.3g} {elapsed:.2f}s")


def test_05_dual_method_agreement():
    rng = random.Random(1002)
    t0 = time.perf_counter()
    worst_plane = 0.0
    for _ in range(1000):
        rot = rand_rotation2(rng, min_angle=1e-6)
        src = rand_segment2(rng)
        dst = Segment2(apply_planar(rot, src.a), apply_planar(rot, src.b))
        alg = recover_planar(src, dst)
        geo = recover_pivot_geometric(src, dst)
        worst_plane = max(worst_plane, (alg.pivot - geo).norm())
    worst_sphere = 0.0
    for _ in range(1000):
        rot = rand_rotation3(rng, min_angle=1e-6)
        x, y = rand_sphere_pair(rng)
        xp, yp = apply_sphere(rot, x), apply_sphere(rot, y)
        alg = recover_sphere_rotation(x, xp, y, yp, method="algebraic")
        geo = recover_sphere_rotation(x, xp, y, yp, method="geometric")
        axis_gap = min(
            (alg.axis - geo.axis).norm(), (alg.axis + geo.axis).norm()
        )
        worst_sphere = max(worst_sphere, axis_gap)
    elapsed = time.perf_counter() - t0
    ok = worst_plane <= 1e-9 and worst_sphere <= 1e-9 and elapsed < 5.0
    _report(
        "05 dual-method agreement x1000+1000",
        ok,
        f"plane={worst_plane:.3g} sphere={worst_sphere:.3g} {elapsed:.2f}s",
    )


def test_06_round_trip_recovery():
    rng = random.Random(1003)
    t0 = time.perf_counter()
    worst_plane = 0.0
    for _ in range(1000):
        rot = rand_rotation2(rng, min_angle=1e-6)
        src = rand_segment2(rng)
        dst = Segment2(apply_planar(rot, src.a), apply_planar(rot, src.b))
        got = recover_planar(src, dst)
        worst_plane = max(
            worst_plane,
            (got.pivot - rot.pivot).norm(),
            abs(wrap_angle(got.angle - rot.angle)),
        )
    worst_sphere = 0.0
    for _ in range(1000):
        rot = rand_rotation3(rng, min_angle=1e-6)
        x, y = rand_sphere_pair(rng)
        got = recover_sphere_rotation(x, apply_sphere(rot, x), y, apply_sphere(rot, y))
        worst_sphere = max(
            worst_sphere, (got.axis - rot.axis).norm(), abs(got.angle - rot.angle)
        )
    elapsed = time.perf_counter() - t0
    ok = worst_plane <= 1e-9 and worst_sphere <= 1e-9 and elapsed < 5.0
    _report(
        "06 round-trip recovery x1000+1000",
        ok,
        f"plane={worst_plane:.3g} sphere={worst_sphere:.3g} {elapsed:.2f}s",
    )


def test_07_reflection_splits_and_parallel_mirrors():
    rng = random.Random(1004)
    t0 = time.perf_counter()
    worst_split = 0.0
    for _ in range(500):
        rot = rand_rotation2(rng, min_angle=1e-6)
        first, second = reflections_for_rotation(rot)
        back = compose_reflections(first, second)
        worst_split = max(
            worst_split,
            (back.pivot - rot.pivot).norm(),
            abs(wrap_angle(back.angle - rot.angle)),
        )
    worst_parallel = 0.0
    for _ in range(500):
        point = rand_vec2(rng)
        direction = rand_unit_dir2(rng)
        d = rng.uniform(0.1, 4.0)
        normal = direction.perp()
        first = Reflection2(Line2(point, direction))
        second = Reflection2(Line2(point + normal * d, direction))
        out = compose_reflections(first, second)
        assert isinstance(out, Translation2)
        worst_parallel = max(
            worst_parallel,
            abs(out.v.norm() - 2.0 * d),
            abs(out.v.dot(direction)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_split <= 1e-12 and worst_parallel <= 1e-12 and elapsed < 1.0
    _report(
        "07 reflection split/parallel x500",
        ok,
        f"split={worst_split:.3g} parallel={worst_parallel:.3g} {elapsed:.2f}s",
    )


def rand_unit_dir2(rng) -> Vec2:
    t = rng.uniform(-math.pi, math.pi)
    return Vec2(math.cos(t), math.sin(t))


def test_08_orientation_sign_behavior():
    rng = random.Random(1005)
    t0 = time.perf_counter()
    ok = True
    for _ in range(500):
        a, b, c = rand_vec2(rng), rand_vec2(rng), rand_vec2(rng)
        s = orientation_sign(a, b, c)
        if s == 0:
            continue
        rot = rand_rotation2(rng)
        tra = Translation2(rand_vec2(rng))
        ref = Reflection2(Line2(rand_vec2(rng), rand_unit_dir2(rng)))
        for iso, expect in ((rot, s), (tra, s), (ref, -s)):
            imgs = [apply_planar(iso, p) for p in (a, b, c)]
            ok = ok and orientation_sign(*imgs) == expect
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report("08 orientation invariance x500", ok, f"{elapsed:.2f}s")


def test_09_documented_formula_corrections():
    rng = random.Random(1006)
    # (a) cancelled rotation angles compose to (I - R_alpha)(G - H), checked
    # pointwise against sequential application
    worst = 0.0
    for _ in range(100):
        g, h = rand_vec2(rng), rand_vec2(rng)
        alpha = rng.uniform(-math.pi, math.pi)
        outer, inner = Rotation2(g, alpha), Rotation2(h, -alpha)
        out = compose_rotations_planar(outer, inner)
        assert isinstance(out, (Translation2, Identity2))
        for _ in range(3):
            p = rand_vec2(rng)
            seq = apply_planar(outer, apply_planar(inner, p))
            worst = max(worst, (apply_planar(out, p) - seq).norm())
    ok_a = worst <= 1e-9

    # the G + H shortcut fails for G=(0,0), H=(1,0), alpha=pi/2
    g, h = Vec2(0, 0), Vec2(1, 0)
    outer, inner = Rotation2(g, math.pi / 2), Rotation2(h, -math.pi / 2)
    seq = apply_planar(outer, apply_planar(inner, Vec2(0, 0)))
    wrong = Vec2(0, 0) + (g + h)
    good = apply_planar(compose_rotations_planar(outer, inner), Vec2(0, 0))
    ok_a = ok_a and (seq - wrong).norm() > 0.5 and (seq - good).norm() <= 1e-12

    rec = run(
        instance_from_obj(
            {
                "kind": "plane_compose",
                "G": [0.0, 0.0],
                "alpha": math.pi / 2,
                "H": [1.0, 0.0],
                "beta": -math.pi / 2,
            }
        )
    )
    ok_a = ok_a and any("G + H" in d for d in rec.diagnostics)

    # (b) the arcsin-of-chord shortcut reads 0 for an equatorial half turn
    z = UnitVector3(0, 0, 1)
    x = UnitVector3(1, 0, 0)
    naive = chord_arcsin_angle(x, -x)
    true_angle = rotation_angle_about_axis(z, x, -x)
    ok_b = naive == 0.0 and abs(true_angle - math.pi) <= 1e-12
    rec = run(
        instance_from_obj(
            {
                "kind": "sphere_recover",
                "X": [1, 0, 0],
                "Y": [0, 0, 1],
                "Xp": [-1, 0, 0],
                "Yp": [0, 0, 1],
            }
        )
    )
    ok_b = ok_b and any("arcsin" in d for d in rec.diagnostics)
    _report(
        "09 formula corrections witnessed",
        ok_a and ok_b,
        f"translation worst={worst:.3g} arcsin naive={naive}",
    )


def test_10_cross_product_and_eigen_invariants():
    rng = random.Random(1007)
    t0 = time.perf_counter()
    ok = True
    worst_eig = 0.0
    for _ in range(1000):
        m = rotation_matrix(rand_rotation3(rng, min_angle=1e-6))
        axis, (a, b) = eig3_rotation(m)
        worst_eig = max(
            worst_eig,
            abs(a * a + b * b - 1.0),
            (_mv(m, axis) - axis).norm(),
            abs(a * a + b * b - m.det()),
        )
        ok = ok and abs(axis.norm() - 1.0) <= 1e-12
    worst_cross = 0.0
    for _ in range(1000):
        x = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        y = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        c = cross(x, y)
        scale = max(1.0, x.norm() * y.norm())
        worst_cross = max(
            worst_cross,
            abs(c.dot(x)) / (scale * max(1.0, x.norm())),
            abs(c.dot(y)) / (scale * max(1.0, y.norm())),
            abs(c.dot(c) + x.dot(y) ** 2 - x.dot(x) * y.dot(y)) / max(1.0, scale * scale),
        )
    elapsed = time.perf_counter() - t0
    ok = ok and worst_eig <= 1e-9 and worst_cross <= 1e-12 and elapsed < 2.0
    _report(
        "10 cross/eigen invariants x1000",
        ok,
        f"eig={worst_eig:.3g} cross={worst_cross:.3g} {elapsed:.2f}s",
    )


def test_11_baseball_end_to_end(tmp_path, capsys):
    axis = unit3(Vec3(0.3, -0.5, 0.8))
    planted = Rotation3(axis, 1.1)
    before = SphereSegment(UnitVector3(1, 0, 0), UnitVector3(0.6, 0.8, 0.0))
    after = SphereSegment(
        apply_sphere(planted, before.a), apply_sphere(planted, before.b)
    )
    obj = {
        "kind": "baseball",
        "X": [before.a.x, before.a.y, before.a.z],
        "Y": [before.b.x, before.b.y, before.b.z],
        "Xp": [after.a.x, after.a.y, after.a.z],
        "Yp": [after.b.x, after.b.y, after.b.z],
    }
    good = tmp_path / "good.json"
    good.write_text(json.dumps(obj))
    code = main(["baseball", "--input", str(good)])
    out = json.loads(capsys.readouterr().out)
    got_axis = Vec3(*out["result"]["axis"])
    ok = (
        code == 0
        and abs(out["result"]["angle"] - planted.angle) <= 1e-9
        and (got_axis - planted.axis).norm() <= 1e-9
        and len(out["result"]["fixed_points"]) == 2
    )

    bad_obj = dict(obj, Yp=[math.cos(0.1), math.sin(0.1), 0.0], Xp=[0.0, 1.0, 0.0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_obj))
    code_bad = main(["baseball", "--input", str(bad)])
    out_bad = json.loads(capsys.readouterr().out)
    ok = (
        ok
        and code_bad in (3, 4)
        and out_bad["error"]["type"] == "LengthMismatch"
    )

    # the library-level entry point agrees with the CLI
    record = run_baseball(before, after)
    ok = ok and abs(record.result["angle"] - planted.angle) <= 1e-9
    _report("11 baseball end-to-end", ok, f"exit={code}/{code_bad}")

"""Seeded random-instance generators shared by the test modules."""

import math
import random

from isometry_lab import (
    Rotation2,
    Rotation3,
    Segment2,
    UnitVector3,
    Vec2,
    Vec3,
    apply_planar,
)


def rand_vec2(rng: random.Random, span: float = 5.0) -> Vec2:
    return Vec2(rng.uniform(-span, span), rng.uniform(-span, span))


def rand_rotation2(rng: random.Random, min_angle: float = 1e-6) -> Rotation2:
    while True:
        angle = rng.uniform(-math.pi, math.pi)
        if abs(angle) >= min_angle:
            return Rotation2(rand_vec2(rng), angle)


def rand_segment2(rng: random.Random, min_len: float = 0.1) -> Segment2:
    while True:
        a, b = rand_vec2(rng), rand_vec2(rng)
        if (a - b).norm() >= min_len:
            return Segment2(a, b)


def near_pivot_segments(rng: random.Random, arm: float) -> tuple[Segment2, Segment2]:
    """A turn by U(0.3, 2.8) about a pivot P uniform in [-5, 5]^2, and a segment
    from X, `arm` from P in a U(0, 2 pi) direction, to Y uniform in [-5, 5]^2;
    returns the segment and its image."""
    p = rand_vec2(rng)
    rot = Rotation2(p, rng.uniform(0.3, 2.8))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    x = Vec2(p.x + arm * math.cos(phi), p.y + arm * math.sin(phi))
    y = rand_vec2(rng)
    return Segment2(x, y), Segment2(apply_planar(rot, x), apply_planar(rot, y))


def unit3(v: Vec3) -> UnitVector3:
    """v normalized, as a UnitVector3."""
    n = v.normalized()
    return UnitVector3(n.x, n.y, n.z)


def rand_unit3(rng: random.Random) -> UnitVector3:
    while True:
        v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        if v.norm() > 1e-3:
            return unit3(v)


def rand_rotation3(rng: random.Random, min_angle: float = 1e-6) -> Rotation3:
    return Rotation3(rand_unit3(rng), rng.uniform(min_angle, math.pi - min_angle))


def rand_sphere_pair(
    rng: random.Random, min_sep: float = 0.1, max_sep: float = math.pi - 0.1
) -> tuple[UnitVector3, UnitVector3]:
    """Two sphere points neither too close nor too nearly antipodal."""
    x = rand_unit3(rng)
    while True:
        y = rand_unit3(rng)
        sep = math.acos(max(-1.0, min(1.0, x.dot(y))))
        if min_sep <= sep <= max_sep:
            return x, y


def refuse_algebraic_routes(monkeypatch) -> None:
    """Make every algebraic entry point raise, in each module that bound it,
    so only a construction can answer."""
    import isometry_lab.cli as cli
    import isometry_lab.linalg as linalg
    import isometry_lab.planar as planar
    import isometry_lab.spherical as spherical

    def refuse(*args, **kwargs):
        raise AssertionError("an algebraic route ran")

    for module in (linalg, planar, spherical, cli):
        for name in (
            "recover_planar", "compose_planar", "compose_rotations_planar", "rotation_matrix",
            "eig3_rotation", "_axis_cross", "recover_sphere_rotation", "compose_sphere_rotations",
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)

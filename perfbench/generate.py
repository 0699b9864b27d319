"""Seeded instance generator for the benchmark workloads.

Standard library only. Every instance is built from a ground-truth motion
with the benchmark's own arithmetic, so the program under test receives
nothing but the JSON it would get from a user. A fixed share of each kind
takes a valid edge branch (translations, the identity, cancelled angles,
a fixed marked point, a near-identity composite) so the fallback paths
are timed as well.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .arith import cross, dot, norm, rodrigues, rot2, unit

SUBCOMMANDS = {
    "plane_recover": "plane-recover",
    "plane_compose": "plane-compose",
    "plane_reflections": "plane-reflections",
    "sphere_recover": "sphere-recover",
    "sphere_compose": "sphere-compose",
    "baseball": "baseball",
}

# One instance in EDGE_EVERY takes an edge branch; the edge variants of a
# kind are used in turn.
EDGE_EVERY = 20

# Turn angles stay away from 0 and pi and marked points stay well apart,
# so every generated instance is admissible at the CLI's default
# tolerance and no operation fails.
_ANGLE_RANGE = (0.3, 2.8)
_SPREAD = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    counts: dict[str, int]  # instances per kind, in CLI batch order
    svg: bool


# The batch workloads use 5000 instances per kind, the batch size of the
# one batch timing the project records (ROADMAP: a 5000-instance
# sphere-recover batch, 1.31 s). svg-mixed is the small batch of a user
# who wants figures; its size is an assumption. In it a sphere item costs
# four to eight times a plane item. Equal counts would put the median call
# on the gap between the two groups, where it jumps; 2:3 puts it inside
# the sphere_compose group.
BATCH = 5000
WORKLOADS = {
    w.name: w
    for w in (
        Workload("plane-batch", dict.fromkeys(
            ("plane_recover", "plane_compose", "plane_reflections"), BATCH), False),
        Workload("sphere-batch", dict.fromkeys(
            ("sphere_recover", "sphere_compose", "baseball"), BATCH), False),
        Workload("svg-mixed", {
            "plane_recover": 160, "plane_compose": 160, "plane_reflections": 160,
            "sphere_recover": 240, "sphere_compose": 240, "baseball": 240,
        }, True),
    )
}


# ---------------------------------------------------------------------------
# random draws


def _point2(rng):
    return [rng.uniform(-_SPREAD, _SPREAD), rng.uniform(-_SPREAD, _SPREAD)]


def _sphere_point(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        if norm(v) > 1e-3:
            return unit(v)


def _turn(rng):
    return rng.uniform(*_ANGLE_RANGE) * rng.choice((-1.0, 1.0))


def _segment2(rng):
    while True:
        x, y = _point2(rng), _point2(rng)
        if math.dist(x, y) >= 0.5:
            return x, y


def _sphere_pair(rng):
    """Two points whose arc stays well away from 0 and pi."""
    while True:
        x, y = _sphere_point(rng), _sphere_point(rng)
        arc = math.acos(max(-1.0, min(1.0, dot(x, y))))
        if 0.3 <= arc <= math.pi - 0.3:
            return x, y


# ---------------------------------------------------------------------------
# one generator per kind; `edge` selects an edge variant or None


def _plane_recover(rng, edge):
    x, y = _segment2(rng)
    if edge == 0:  # pure translation
        v = [rng.uniform(0.5, 3.0), rng.uniform(-3.0, 3.0)]
        xp, yp = [x[0] + v[0], x[1] + v[1]], [y[0] + v[0], y[1] + v[1]]
    elif edge == 1:  # identity
        xp, yp = list(x), list(y)
    else:
        pivot, angle = _point2(rng), _turn(rng)
        xp, yp = rot2(pivot, angle, x), rot2(pivot, angle, y)
    return {"kind": "plane_recover", "X": x, "Y": y, "Xp": xp, "Yp": yp}


def _plane_compose(rng, edge):
    g, h = _point2(rng), _point2(rng)
    alpha = _turn(rng)
    if edge == 0:  # cancelled angles: a translation
        beta = -alpha
    elif edge == 1:  # cancelled angles about one pivot: the identity
        h, beta = list(g), -alpha
    else:
        while True:
            beta = _turn(rng)
            gamma = math.remainder(alpha + beta, 2.0 * math.pi)
            if 0.3 <= abs(gamma) <= math.pi - 0.05:
                break
    return {"kind": "plane_compose", "G": g, "alpha": alpha, "H": h, "beta": beta}


def _plane_reflections(rng, edge):
    theta = (math.pi, 1e-6)[edge] if edge is not None else _turn(rng)
    return {"kind": "plane_reflections", "P": _point2(rng), "theta": theta}


def _sphere_recover(rng, edge, kind="sphere_recover"):
    while True:
        x, y = _sphere_pair(rng)
        if edge == 0:  # the first marked point lies on the axis and stays put
            axis, angle = x, rng.uniform(*_ANGLE_RANGE)
        else:
            axis, angle = _sphere_point(rng), rng.uniform(*_ANGLE_RANGE)
        xp, yp = rodrigues(axis, angle, x), rodrigues(axis, angle, y)
        if edge == 0:
            return {"kind": kind, "X": x, "Y": y, "Xp": list(x), "Yp": yp}
        # displacement chords far from parallel, so the cross-product axis
        # is well conditioned
        c1 = [x[i] - xp[i] for i in range(3)]
        c2 = [y[i] - yp[i] for i in range(3)]
        if norm(cross(c1, c2)) >= 0.1 * norm(c1) * norm(c2):
            return {"kind": kind, "X": x, "Y": y, "Xp": xp, "Yp": yp}


def _baseball(rng, edge):
    return _sphere_recover(rng, edge, kind="baseball")


def _sphere_compose(rng, edge):
    g = _sphere_point(rng)
    alpha = rng.uniform(*_ANGLE_RANGE)
    if edge == 0:  # near-identity composite: a 1e-3 rad turn about G
        h, beta = list(g), -alpha + 1e-3
    else:
        h, beta = _sphere_point(rng), rng.uniform(*_ANGLE_RANGE)
    return {"kind": "sphere_compose", "G": g, "alpha": alpha, "H": h, "beta": beta}


_GENERATORS = {
    "plane_recover": (_plane_recover, 2),
    "plane_compose": (_plane_compose, 2),
    "plane_reflections": (_plane_reflections, 2),
    "sphere_recover": (_sphere_recover, 1),
    "sphere_compose": (_sphere_compose, 1),
    "baseball": (_baseball, 1),
}


def instances(kind: str, n: int, seed: int) -> list[dict]:
    """n instances of one kind; the same (kind, n, seed) gives the same list."""
    make, n_edges = _GENERATORS[kind]
    rng = random.Random(f"perfbench/{kind}/{seed}")
    out = []
    for i in range(n):
        edge = (i // EDGE_EVERY) % n_edges if i % EDGE_EVERY == EDGE_EVERY - 1 else None
        out.append(make(rng, edge))
    return out


def workload_instances(workload: Workload, seed: int) -> dict[str, list[dict]]:
    """Instances per kind, in the workload's kind order."""
    return {kind: instances(kind, n, seed) for kind, n in workload.counts.items()}

"""Independent reference checker.

Standard library only; it never imports isometry_lab. Each reported
isometry is evaluated with the benchmark's own arithmetic and compared
with what the instance demands: the recovered motion must carry the
marked points onto their images, a composite must act like the two
rotations applied in turn, a reflection pair must recompose to the
requested rotation, and baseball fixed points must stay put. Both the
primary and the geometric result are checked when present.
"""

from __future__ import annotations

import json
import math

from .arith import dot, rodrigues, rot2

# Absolute tolerance on point images, scaled by the coordinate size. The
# CLI rounds its output to 10 significant digits, which moves an image by
# about 1e-9 at the generator's coordinate range.
TOL = 1e-7

# Fixed probe points for the composite and reflection checks.
_PLANE_PROBES = ([0.0, 0.0], [3.1, -1.7], [-4.2, 2.9])
_SPHERE_PROBES = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])


def _close(p, q, scale=1.0) -> bool:
    return math.dist(p, q) <= TOL * max(1.0, scale)


def _apply_plane(iso: dict, p):
    kind = iso.get("type")
    if kind == "rotation":
        return rot2(iso["pivot"], iso["angle"], p)
    if kind == "translation":
        return [p[0] + iso["v"][0], p[1] + iso["v"][1]]
    if kind == "identity":
        return list(p)
    raise ValueError(f"unexpected plane isometry type {kind!r}")


def _apply_sphere(iso: dict, p):
    kind = iso.get("type")
    if kind == "rotation":
        axis = iso["axis"]
        if abs(math.sqrt(dot(axis, axis)) - 1.0) > TOL:
            raise ValueError("axis is not a unit vector")
        return rodrigues(axis, iso["angle"], p)
    if kind == "identity":
        return list(p)
    raise ValueError(f"unexpected sphere isometry type {kind!r}")


def _reflect(line: dict, p):
    q, d = line["point"], line["direction"]
    n = math.hypot(d[0], d[1])
    ux, uy = d[0] / n, d[1] / n
    t = (p[0] - q[0]) * ux + (p[1] - q[1]) * uy
    return [2.0 * (q[0] + ux * t) - p[0], 2.0 * (q[1] + uy * t) - p[1]]


def _results(record: dict):
    yield "result", record["result"]
    if "result_geometric" in record:
        yield "result_geometric", record["result_geometric"]


def _check_plane_recover(inst, record):
    scale = max(math.hypot(*inst[k]) for k in ("X", "Y", "Xp", "Yp"))
    for label, iso in _results(record):
        for src, dst in (("X", "Xp"), ("Y", "Yp")):
            if not _close(_apply_plane(iso, inst[src]), inst[dst], scale):
                return f"{label} does not map {src} onto {dst}"
    return None


def _check_plane_compose(inst, record):
    def expected(p):
        return rot2(inst["G"], inst["alpha"], rot2(inst["H"], inst["beta"], p))

    probes = (inst["G"], inst["H"], *_PLANE_PROBES)
    for label, iso in _results(record):
        for p in probes:
            if not _close(_apply_plane(iso, p), expected(p), math.hypot(*p) + 10.0):
                return f"{label} differs from the composite at {p}"
    return None


def _check_plane_reflections(inst, record):
    res = record["result"]
    if res.get("type") != "reflection_pair" or len(res["lines"]) != 2:
        return "result is not a pair of mirror lines"
    if not _close(res["pivot"], inst["P"], math.hypot(*inst["P"])):
        return "reported pivot is not P"
    first, second = res["lines"]
    for d in _PLANE_PROBES:
        p = [inst["P"][0] + d[0], inst["P"][1] + d[1]]
        got = _reflect(second, _reflect(first, p))
        if not _close(got, rot2(inst["P"], inst["theta"], p), math.hypot(*p)):
            return f"the two reflections do not recompose to the rotation at {p}"
    return None


def _check_sphere_recover(inst, record):
    for label, iso in _results(record):
        for src, dst in (("X", "Xp"), ("Y", "Yp")):
            if not _close(_apply_sphere(iso, inst[src]), inst[dst]):
                return f"{label} does not map {src} onto {dst}"
    return None


def _check_baseball(inst, record):
    reason = _check_sphere_recover(inst, record)
    if reason:
        return reason
    res = record["result"]
    if res["type"] == "identity":
        return None if res.get("fixed_points") == "all" else "identity without fixed_points"
    fixed = res.get("fixed_points")
    if not fixed or len(fixed) != 2:
        return "missing fixed points"
    if not _close(fixed[0], [-c for c in fixed[1]]):
        return "fixed points are not antipodal"
    for f in fixed:
        if not _close(_apply_sphere(res, f), f):
            return f"fixed point {f} moves"
    return None


def _check_sphere_compose(inst, record):
    def expected(p):
        return rodrigues(
            inst["G"], inst["alpha"], rodrigues(inst["H"], inst["beta"], p)
        )

    probes = (*_SPHERE_PROBES, inst["G"], inst["H"])
    for label, iso in _results(record):
        for p in probes:
            if not _close(_apply_sphere(iso, p), expected(p)):
                return f"{label} differs from the composite at {p}"
    a, b = record["result"]["complex_pair"]
    angle = record["result"]["angle"]
    if abs(a - math.cos(angle)) > TOL or abs(abs(b) - math.sin(angle)) > TOL:
        return "complex eigenvalue pair does not match the angle"
    return None


_CHECKS = {
    "plane_recover": _check_plane_recover,
    "plane_compose": _check_plane_compose,
    "plane_reflections": _check_plane_reflections,
    "sphere_recover": _check_sphere_recover,
    "sphere_compose": _check_sphere_compose,
    "baseball": _check_baseball,
}


def check_record(inst: dict, record) -> str | None:
    """Why `record` is a wrong answer to `inst`, or None when it is right."""
    if not isinstance(record, dict) or "result" not in record:
        return "missing result"
    try:
        return _CHECKS[inst["kind"]](inst, record)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed record: {type(exc).__name__}: {exc}"


def check_batch(batch: list[dict], returncode: int, stdout: bytes) -> list[str | None]:
    """Per-instance failure reasons for one CLI batch run.

    Every instance fails when the process exits nonzero or the output is
    not a JSON array with one record per instance.
    """
    if returncode != 0:
        return [f"exit code {returncode}"] * len(batch)
    try:
        records = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"] * len(batch)
    if not isinstance(records, list) or len(records) != len(batch):
        return ["record count differs from instance count"] * len(batch)
    return [check_record(inst, rec) for inst, rec in zip(batch, records)]

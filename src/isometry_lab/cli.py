"""Batch command line interface.

Problem instances are JSON objects (or a JSON array of them); results go
to standard output as a single JSON document and warnings to standard
error. Exit codes: 0 success, 2 parse or schema problem or a file that
cannot be read or written, 3 inadmissible values, 4 solver degeneracy,
5 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import (
    AntipodalPoints,
    CoincidentPoints,
    DegenerateSegment,
    GeometryError,
    IdentityCorrespondence,
    InternalCheckError,
    LengthMismatch,
    NonUnitVector,
    ParseError,
    SchemaError,
    ValidationError,
)
from .figures import (
    planar_compose_figure,
    planar_recovery_figure,
    reflection_pair_figure,
    render_svg,
    sphere_compose_figure,
    sphere_recovery_figure,
)
from .linalg import ARCSIN_NOTE_TOL, DEFAULT_TOL, Vec2, _value, check_coords, check_tol
from .planar import (
    Identity2,
    Rotation2,
    Segment2,
    Translation2,
    _compose_planar_geometric,
    apply_planar,
    compose_reflections,
    compose_rotations_planar,
    recover_planar,
    recover_planar_geometric,
    reflections_for_rotation,
)
from .spherical import (
    Rotation3,
    SphereSegment,
    UnitVector3,
    _compose_sphere_geometric,
    _dist_xyz,
    _image_xyz,
    apply_sphere,
    chord_arcsin_angle,
    compose_sphere_rotations,
    recover_sphere_rotation,
)

__all__ = ["ProblemInstance", "SolutionRecord", "parse_instance", "run", "run_baseball"]

_NOTE_CANCELLED_ANGLES = (
    "angle sum is 0 mod 2pi: the composite is the translation by "
    "(I - R_alpha)(G - H); the shortcut G + H is not a valid translation vector"
)


@_value
class ProblemInstance:
    """A validated problem: its kind plus typed payload values."""

    kind: str
    payload: dict

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown kind {self.kind!r}")


@_value
class SolutionRecord:
    """Solver outcome: the primary result, how it was obtained, the
    recomputed mapping residual, and any warnings."""

    result: dict
    method: str
    residual: float
    diagnostics: list[str]
    result_geometric: dict | None = None
    discrepancy: float | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "result": self.result,
            "method": self.method,
            "residual": self.residual,
        }
        if self.result_geometric is not None:
            out["result_geometric"] = self.result_geometric
        if self.discrepancy is not None:
            out["discrepancy"] = self.discrepancy
        out["diagnostics"] = list(self.diagnostics)
        return out


# ---------------------------------------------------------------------------
# parsing


def _loads(text: bytes | str):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise ParseError(f"input is not valid JSON: {exc}") from exc


def _num(name: str, value, index: int | None = None) -> float:
    """`value` as a finite float; `index` places a coordinate in array `name`."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"field {_field(name, index)!r} must be a number")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"field {_field(name, index)!r} must be finite")
    return value


def _field(name: str, index: int | None) -> str:
    return name if index is None else f"{name}[{index}]"


def _coords(name: str, value, dim: int) -> list[float]:
    if not isinstance(value, list) or len(value) != dim:
        raise SchemaError(f"field {name!r} must be an array of {dim} numbers")
    return [_num(name, c, i) for i, c in enumerate(value)]


def _vec2(name: str, value) -> Vec2:
    v = Vec2(*_coords(name, value, 2))
    try:
        check_coords(v)
    except ValueError as exc:
        raise ValidationError(f"field {name!r}: {exc}") from None
    return v


def _unit3(name: str, value) -> UnitVector3:
    try:
        return UnitVector3(*_coords(name, value, 3))
    except NonUnitVector as exc:
        raise ValidationError(f"field {name!r}: {exc}") from exc


_READERS = {"angle": _num, "vec2": _vec2, "vec3": _unit3}
_DEGREE_READERS = {**_READERS, "angle": lambda name, v: math.radians(_num(name, v))}


def instance_from_obj(obj, *, expected: str | None = None, degrees: bool = False) -> ProblemInstance:
    """Validate one decoded JSON object into a ProblemInstance: its kind (`expected`,
    if given), then its fields, then their values, angles in degrees if `degrees`."""
    if not isinstance(obj, dict):
        raise SchemaError("an instance must be a JSON object")
    kind = obj.get("kind")
    if kind is None:
        raise SchemaError("missing field 'kind'")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    if expected is not None and kind != expected:
        raise SchemaError(
            f"instance kind {kind!r} does not match subcommand "
            f"{expected.replace('_', '-')!r} (expected {expected!r})"
        )
    schema = _KINDS[kind].schema
    if obj.keys() != _FIELDS[kind]:
        extra = sorted(obj.keys() - _FIELDS[kind])
        if extra:
            raise SchemaError(f"unexpected fields for kind {kind!r}: {extra}")
        raise SchemaError(f"missing fields for kind {kind!r}: {sorted(_FIELDS[kind] - obj.keys())}")
    readers = _DEGREE_READERS if degrees else _READERS
    values = {name: readers[t](name, obj[name]) for name, t in schema.items()}
    try:
        payload = _KINDS[kind].payload(values)
    except (DegenerateSegment, CoincidentPoints, AntipodalPoints) as exc:
        raise ValidationError(str(exc)) from exc
    return ProblemInstance(kind, payload)


def parse_instance(text: bytes | str) -> ProblemInstance:
    """Parse and validate a single instance from JSON text."""
    obj = _loads(text)
    if isinstance(obj, list):
        raise SchemaError("expected a single instance, got an array")
    return instance_from_obj(obj)


# ---------------------------------------------------------------------------
# solving

_PLANE_PROBE = (Vec2(0.31, 0.17), Vec2(-0.42, 0.93))
_SPHERE_RESIDUAL_PROBES = (
    UnitVector3(1.0, 0.0, 0.0),
    UnitVector3(0.0, 1.0, 0.0),
    UnitVector3(0.0, 0.0, 1.0),
)


def _planar_iso_dict(iso) -> dict:
    if isinstance(iso, Rotation2):
        return {"type": "rotation", "pivot": [iso.pivot.x, iso.pivot.y], "angle": iso.angle}
    if isinstance(iso, Translation2):
        return {"type": "translation", "v": [iso.v.x, iso.v.y]}
    if isinstance(iso, Identity2):
        return {"type": "identity"}
    raise TypeError(f"unexpected isometry {iso!r}")


def _sphere_rot_dict(rot: Rotation3) -> dict:
    return {
        "type": "rotation",
        "axis": [rot.axis.x, rot.axis.y, rot.axis.z],
        "angle": rot.angle,
    }


def _arcsin_notes(x: UnitVector3, xp: UnitVector3, rot: Rotation3) -> list[str]:
    naive = chord_arcsin_angle(x, xp)
    if abs(naive - rot.angle) > ARCSIN_NOTE_TOL:
        return [
            f"chord arcsin gives {naive:.6g} rad but the rotation angle is {rot.angle:.6g} rad; "
            "the arcsin shortcut only holds for points on the rotation's equator "
            "turned by at most pi/2"
        ]
    return []


def _solve_both_ways(method, tol, algebraic, geometric, pairs, apply, as_dict, notes=None,
                     dist=Vec2.dist):
    """Run the routes `method` asks for and build the record.

    The algebraic answer is primary unless only the geometric route runs.
    `pairs` holds (point, expected image) probes: the residual is the
    primary answer's worst miss on them and, with "both", the discrepancy
    is the worst distance between the two answers' images of the same
    points, both as `dist` measures them. `notes(primary)` supplies
    diagnostics about the primary answer. Returns the record and the primary answer.
    """
    iso_a = algebraic() if method != "geometric" else None
    iso_g = geometric() if method != "algebraic" else None
    primary = iso_g if iso_a is None else iso_a
    images = [apply(primary, p) for p, _ in pairs]
    residual = max(dist(image, q) for image, (_, q) in zip(images, pairs))
    diagnostics = notes(primary) if notes else []
    dict_g = disc = None
    if method == "both":
        # primary is iso_a here, so its images serve the discrepancy too
        disc = max(dist(image, apply(iso_g, p)) for image, (p, _) in zip(images, pairs))
        dict_g = as_dict(iso_g)
        if disc > tol:
            diagnostics.append(
                f"algebraic and geometric results disagree by {disc:.6g} "
                f"(tolerance {tol:g}); both are reported unreconciled"
            )
    return SolutionRecord(as_dict(primary), method, residual, diagnostics, dict_g, disc), primary


def _run_plane_recover(payload, method, tol):
    src: Segment2 = payload["src"]
    dst: Segment2 = payload["dst"]
    record, primary = _solve_both_ways(
        method, tol,
        lambda: recover_planar(src, dst, tol=tol),
        lambda: recover_planar_geometric(src, dst, tol=tol),
        ((src.a, dst.a), (src.b, dst.b)), apply_planar, _planar_iso_dict,
    )
    return record, lambda: planar_recovery_figure(src, dst, primary)


def _run_plane_compose(payload, method, tol):
    g, h = payload["g"], payload["h"]
    outer = Rotation2(g, payload["alpha"])
    inner = Rotation2(h, payload["beta"])
    mid = tuple(apply_planar(inner, p) for p in _PLANE_PROBE)
    final = tuple(apply_planar(outer, p) for p in mid)
    pivots = [(p, apply_planar(outer, apply_planar(inner, p))) for p in (g, h)]
    record, primary = _solve_both_ways(
        method, tol,
        lambda: compose_rotations_planar(outer, inner),
        lambda: _compose_planar_geometric(outer, inner),
        (*pivots, *zip(_PLANE_PROBE, final)), apply_planar, _planar_iso_dict,
        lambda primary: [] if isinstance(primary, Rotation2) else [_NOTE_CANCELLED_ANGLES],
    )
    return record, lambda: planar_compose_figure(g, h, primary, _PLANE_PROBE, mid, final)


def _run_plane_reflections(payload, method, tol):
    rot = Rotation2(payload["pivot"], payload["theta"])
    first, second = reflections_for_rotation(rot)
    recomposed = compose_reflections(first, second)
    # pivot + d for each probe d: py + 0.0 turns a -0.0 into 0.0, as Vec2 addition does
    px, py = rot.pivot.x, rot.pivot.y
    probes = (Vec2(px + 1.0, py + 0.0), *(Vec2(px + d.x, py + d.y) for d in _PLANE_PROBE))
    residual = max(apply_planar(recomposed, p).dist(apply_planar(rot, p)) for p in probes)
    result = {
        "type": "reflection_pair",
        "pivot": [rot.pivot.x, rot.pivot.y],
        "angle": rot.angle,
        "angle_between_lines": rot.angle / 2.0,
        "lines": [
            {
                "point": [r.line.point.x, r.line.point.y],
                "direction": [r.line.direction.x, r.line.direction.y],
            }
            for r in (first, second)
        ],
    }
    record = SolutionRecord(result, "algebraic", residual, [])
    return record, lambda: reflection_pair_figure(rot, first, second)


def _run_sphere_recover(payload, method, tol):
    """Shared by sphere_recover and baseball."""
    before, after = payload["before"], payload["after"]
    x, y, xp, yp = before.a, before.b, after.a, after.b

    def route(name):
        return lambda: recover_sphere_rotation(x, xp, y, yp, method=name, tol=tol)

    try:
        record, rot = _solve_both_ways(
            method, tol, route("algebraic"), route("geometric"),
            ((x, (xp.x, xp.y, xp.z)), (y, (yp.x, yp.y, yp.z))), _image_xyz, _sphere_rot_dict,
            lambda primary: _arcsin_notes(x, xp, primary), _dist_xyz,
        )
    except IdentityCorrespondence:
        residual = max(x.dist(xp), y.dist(yp))
        record, rot = SolutionRecord({"type": "identity"}, method, residual, []), None
    return record, lambda: sphere_recovery_figure(x, xp, y, yp, rot)


def _run_baseball(payload, method, tol):
    """sphere_recover plus the two surface points the rotation fixes."""
    record, figure = _run_sphere_recover(payload, method, tol)
    result = record.result
    if result["type"] == "identity":
        result["fixed_points"] = "all"
    else:
        axis = result["axis"]
        result["fixed_points"] = [list(axis), [-c for c in axis]]
    return record, figure


def _run_sphere_compose(payload, method, tol):
    outer = Rotation3(payload["g"], payload["alpha"])
    inner = Rotation3(payload["h"], payload["beta"])
    record, primary = _solve_both_ways(
        method, tol,
        lambda: compose_sphere_rotations(outer, inner),
        lambda: _compose_sphere_geometric(outer, inner),
        [(p, _image_xyz(outer, apply_sphere(inner, p))) for p in _SPHERE_RESIDUAL_PROBES],
        _image_xyz, _sphere_rot_dict, dist=_dist_xyz,
    )
    # the eigenvalues cos t +- i sin t of the reported angle t in [0, pi];
    # pi - t is exact past pi/2, so a half turn gets b = 0.0, not sin(pi)
    t = primary.angle
    record.result["complex_pair"] = [math.cos(t), math.sin(min(t, math.pi - t))]
    return record, lambda: sphere_compose_figure(payload["g"], payload["h"], primary)


class _Kind(NamedTuple):
    """A problem kind: its JSON fields and their types, how the validated
    values become the payload, its solver, and its subcommand's help. The
    solver returns the record and a zero-argument figure builder. The
    subcommand is the kind with "_" replaced by "-"."""

    schema: dict[str, str]
    payload: Callable[[dict], dict]
    solve: Callable
    help: str


def _segment_pair(segment, first: str, second: str):
    return lambda v: {first: segment(v["X"], v["Y"]), second: segment(v["Xp"], v["Yp"])}


def _rotation_pair(v: dict) -> dict:
    return {"g": v["G"], "alpha": v["alpha"], "h": v["H"], "beta": v["beta"]}


_PLANE_SEGMENTS = {"X": "vec2", "Y": "vec2", "Xp": "vec2", "Yp": "vec2"}
_SPHERE_SEGMENTS = {"X": "vec3", "Y": "vec3", "Xp": "vec3", "Yp": "vec3"}

_KINDS: dict[str, _Kind] = {
    "plane_recover": _Kind(
        _PLANE_SEGMENTS, _segment_pair(Segment2, "src", "dst"), _run_plane_recover,
        "isometry taking one plane segment onto another",
    ),
    "plane_compose": _Kind(
        {"G": "vec2", "alpha": "angle", "H": "vec2", "beta": "angle"},
        _rotation_pair, _run_plane_compose, "composite of two pivoted plane rotations",
    ),
    "plane_reflections": _Kind(
        {"P": "vec2", "theta": "angle"},
        lambda v: {"pivot": v["P"], "theta": v["theta"]}, _run_plane_reflections,
        "split a plane rotation into two mirror lines",
    ),
    "sphere_recover": _Kind(
        _SPHERE_SEGMENTS, _segment_pair(SphereSegment, "before", "after"), _run_sphere_recover,
        "rotation taking one sphere segment onto another",
    ),
    "sphere_compose": _Kind(
        {"G": "vec3", "alpha": "angle", "H": "vec3", "beta": "angle"},
        _rotation_pair, _run_sphere_compose, "composite of two sphere rotations",
    ),
    "baseball": _Kind(
        _SPHERE_SEGMENTS, _segment_pair(SphereSegment, "before", "after"), _run_baseball,
        "net rotation of a marked ball from two observations",
    ),
}
_FIELDS = {kind: {"kind", *spec.schema} for kind, spec in _KINDS.items()}


def run(
    instance: ProblemInstance,
    *,
    method: str = "both",
    svg_path: str | None = None,
    tolerance: float = DEFAULT_TOL,
) -> SolutionRecord:
    """Solve one instance and, if asked, write its diagram. The diagram is
    built only then."""
    if method not in ("algebraic", "geometric", "both"):
        raise ValueError(f"unknown method {method!r}")
    record, figure = _KINDS[instance.kind].solve(instance.payload, method, check_tol(tolerance))
    if svg_path is not None:
        data = render_svg(figure())
        # Overwrite in place, then cut the tail: opening with O_TRUNC would
        # make ext4 flush a rewritten file on close (its auto_da_alloc rule).
        # Path() keeps "" the working directory, so --svg "" stays an error.
        with open(os.open(Path(svg_path), os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.write(data)
            f.truncate()
    return record


def run_baseball(
    before: SphereSegment,
    after: SphereSegment,
    *,
    method: str = "both",
    svg_path: str | None = None,
    tolerance: float = DEFAULT_TOL,
) -> SolutionRecord:
    """Recover the ball's net rotation from two marked points photographed
    before and after its travels.

    The marked segment must have the same angular length in both
    observations; a mismatch beyond tolerance means a measurement error
    and raises LengthMismatch. The result reports the two surface points
    that ended up exactly where they started.
    """
    instance = ProblemInstance("baseball", {"before": before, "after": after})
    return run(instance, method=method, svg_path=svg_path, tolerance=tolerance)


# ---------------------------------------------------------------------------
# output formatting and the entry point


def _write(obj, newline: str = "\n") -> str:
    """JSON text of `obj` in the indent=2 layout, floats rounded to 10
    significant digits: json.dumps(obj, indent=2) with every float x
    replaced by float(f"{x:.10g}"), in one pass. `newline` is a line break
    plus the indentation `obj` starts at."""
    out: list[str] = []
    _put(obj, newline, out)
    return "".join(out)


def _put(obj, newline: str, out: list[str]) -> None:
    """Append the text of `obj` to `out`. A container writes its exact float
    and str items in its own loop and recurses only for the others."""
    t = type(obj)
    if t is dict or t is not list and isinstance(obj, dict):
        keyed, items, brackets = True, obj.items(), "{}"
    elif t is list or isinstance(obj, (list, tuple)):
        keyed, items, brackets = False, enumerate(obj), "[]"
    else:
        out.append(_float(obj) if isinstance(obj, float)
                   else _quote(obj) if isinstance(obj, str) else json.dumps(obj))
        return
    inner = newline + "  "
    sep = brackets[0] + inner
    for key, v in items:
        out.append(f"{sep}{_quote(key)}: " if keyed else sep)
        sep = "," + inner
        t = type(v)
        if t is float or t is str:
            out.append(_float(v) if t is float else _quote(v))
        else:
            _put(v, inner, out)
    out.append(newline + brackets[1] if obj else brackets)


def _float(x: float) -> str:
    """`x` rounded to 10 significant digits. In fixed notation (|x| in [1e-4, 1e10))
    that is already its own shortest repr; other forms are parsed back and
    reprinted. Rounding can overflow: 1.7976931348623157e308 rounds to infinity."""
    s = f"{x:.10g}"
    if "." in s and "e" not in s:
        return s
    x = float(s)
    return repr(x) if math.isfinite(x) else json.dumps(x)  # NaN, Infinity


def _block(parts: list[str], newline: str, brackets: str) -> str:
    """`parts` one to a line, one step deeper than `newline`, in `brackets`."""
    if not parts:
        return brackets
    inner = newline + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(parts)}{newline}{brackets[1]}"


_ANGLE_KEYS = ("angle", "angle_between_lines")


def _to_degrees_record(d: dict) -> dict:
    out = dict(d)
    for section in ("result", "result_geometric"):
        if isinstance(out.get(section), dict):
            out[section] = {k: math.degrees(v) if k in _ANGLE_KEYS else v
                            for k, v in out[section].items()}
    return out


# The exit-code contract, one row per code, first match first: LengthMismatch
# is a GeometryError that exits 3. main catches exactly these; the rest map to 1.
_EXIT_CODES = (
    ((ParseError, SchemaError, OSError), 2),  # OSError: an --svg file or stdout cannot be written
    ((ValidationError, LengthMismatch), 3),
    ((InternalCheckError,), 5),
    ((GeometryError,), 4),
)
_CATCHABLE = tuple(t for types, _ in _EXIT_CODES for t in types)


def exit_code_for(exc: BaseException) -> int:
    """Map an error to the CLI exit-code contract."""
    return next((code for types, code in _EXIT_CODES if isinstance(exc, types)), 1)


def _error_payload(exc: BaseException) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _svg_path_for(svg: str | None, index: int, batch: bool) -> str | None:
    if svg is None:
        return None
    if not batch:
        return svg
    p = Path(svg)
    if p.name in ("", ".."):  # "/", "." or "..": there is no file name to number
        raise IsADirectoryError(f"--svg {svg!r} names a directory, not a file")
    return str(p.with_name(f"{p.stem}.{index}{p.suffix}"))


def _tolerance(text: str) -> float:
    try:
        return check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isometry-lab",
        description="Solve plane and sphere rigid-motion problems from JSON instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, metavar="FILE",
                        help="instance JSON file, or - for stdin")
    common.add_argument("--method", choices=("algebraic", "geometric", "both"),
                        default="both", help="solution route (default: both)")
    common.add_argument("--svg", metavar="FILE", default=None,
                        help="also write an SVG diagram of the solution")
    common.add_argument("--degrees", action="store_true",
                        help="angles in the input and output are degrees")
    common.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL, metavar="REAL",
                        help="admissibility and agreement tolerance, positive (default 1e-9)")
    for kind, spec in _KINDS.items():
        sub.add_parser(kind.replace("_", "-"), parents=[common], help=spec.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    expected = args.command.replace("-", "_")

    try:
        try:
            text = sys.stdin.buffer.read() if args.input == "-" else Path(args.input).read_bytes()
        except OSError as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from exc
        obj = _loads(text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _emit(_write(_error_payload(exc)), exit_code_for(exc))

    batch = isinstance(obj, list)
    newline = "\n  " if batch else "\n"
    outputs = []
    code = 0
    for i, item in enumerate(obj if batch else [obj]):
        try:
            inst = instance_from_obj(item, expected=expected, degrees=args.degrees)
            svg = _svg_path_for(args.svg, i, batch)
            record = run(inst, method=args.method, svg_path=svg, tolerance=args.tolerance)
        except _CATCHABLE as exc:
            print(f"error: {exc}", file=sys.stderr)
            outputs.append(_write(_error_payload(exc), newline))
            if code == 0:
                code = exit_code_for(exc)
            continue
        for note in record.diagnostics:
            print(f"warning: {note}", file=sys.stderr)
        payload = record.to_dict()
        if args.degrees:
            payload = _to_degrees_record(payload)
        outputs.append(_write(payload, newline))

    return _emit(_block(outputs, "\n", "[]") if batch else outputs[0], code)


def _emit(document: str, code: int) -> int:
    """Print the output document and return `code`, or 2 if stdout is closed
    (a reader such as `head` that stopped early)."""
    try:
        print(document, flush=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Python flushes stdout again at exit; aim it at devnull, as the signal docs do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return exit_code_for(exc)
    return code

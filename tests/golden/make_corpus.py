"""Write the golden corpus of CLI outputs that tests/test_golden.py replays.

Each case is a directory under `cases/` holding the command line
(`cmd.json`: subcommand and flags, plus the SVG file name if `--svg` is
given), the input document (`input.json`) and, under `out/`, what
`isometry_lab.cli.main` produced for it: `stdout`, `stderr`, `exit_code`
and every SVG file written. The inputs come from a seeded generator that
uses plain `math`, so they do not depend on the package under test.

    PYTHONPATH=src python tests/golden/make_corpus.py [--out DIR]

The script refuses to write into an existing directory: delete the old
corpus first, or write elsewhere and compare with `diff -r`.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SEED = 1405
CASES_DIR = Path(__file__).resolve().parent / "cases"
METHODS = ("algebraic", "geometric", "both")


def replay(case: Path, workdir: Path) -> dict[str, bytes]:
    """Run one case through `cli.main` in this process; return its outputs
    by file name. `workdir` must be empty: every SVG written there counts."""
    from isometry_lab.cli import main

    spec = json.loads((case / "cmd.json").read_text(encoding="utf-8"))
    argv = [*spec["argv"], "--input", str(case / "input.json")]
    if spec["svg"]:
        argv += ["--svg", str(workdir / spec["svg"])]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    files = {
        "stdout": out.getvalue().encode("utf-8"),
        "stderr": err.getvalue().encode("utf-8"),
        "exit_code": f"{code}\n".encode("ascii"),
    }
    for svg in sorted(workdir.glob("*.svg")):
        files[svg.name] = svg.read_bytes()
    return files


# ---------------------------------------------------------------------------
# seeded instances, built with plain math. Sums of floats are written out left to
# right: from Python 3.12 on, `sum()` of floats is compensated and gives other bits.


def _rot2(p, pivot, t):
    c, s = math.cos(t), math.sin(t)
    dx, dy = p[0] - pivot[0], p[1] - pivot[1]
    return [pivot[0] + c * dx - s * dy, pivot[1] + s * dx + c * dy]


def _unit(v):
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return [c / n for c in v]


def _rot3(p, axis, t):
    """Rodrigues' formula: p cos t + (a x p) sin t + a (a . p)(1 - cos t)."""
    c, s = math.cos(t), math.sin(t)
    a = axis
    axp = [a[1] * p[2] - a[2] * p[1], a[2] * p[0] - a[0] * p[2], a[0] * p[1] - a[1] * p[0]]
    ap = a[0] * p[0] + a[1] * p[1] + a[2] * p[2]
    return [p[i] * c + axp[i] * s + a[i] * ap * (1.0 - c) for i in range(3)]


def _vec2(rng):
    return [rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]


def _unit3(rng):
    return _unit([rng.gauss(0.0, 1.0) for _ in range(3)])


def _angle(rng):
    return rng.uniform(-math.pi, math.pi)


def _plane_recover(rng):
    while True:
        x, y = _vec2(rng), _vec2(rng)
        if math.dist(x, y) > 0.5:
            break
    pivot, t = _vec2(rng), _angle(rng)
    return {"kind": "plane_recover", "X": x, "Y": y,
            "Xp": _rot2(x, pivot, t), "Yp": _rot2(y, pivot, t)}


def _sphere_pair(rng, kind):
    x = _unit3(rng)
    while True:
        y = _unit3(rng)
        dot = x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
        if 0.2 < math.acos(max(-1.0, min(1.0, dot))) < math.pi - 0.2:
            break
    axis, t = _unit3(rng), rng.uniform(0.05, math.pi - 0.05)
    return {"kind": kind, "X": x, "Y": y, "Xp": _rot3(x, axis, t), "Yp": _rot3(y, axis, t)}


RANDOM = {
    "plane_recover": _plane_recover,
    "plane_compose": lambda rng: {"kind": "plane_compose", "G": _vec2(rng), "alpha": _angle(rng),
                                  "H": _vec2(rng), "beta": _angle(rng)},
    "plane_reflections": lambda rng: {"kind": "plane_reflections", "P": _vec2(rng),
                                      "theta": _angle(rng)},
    "sphere_recover": lambda rng: _sphere_pair(rng, "sphere_recover"),
    "sphere_compose": lambda rng: {"kind": "sphere_compose", "G": _unit3(rng), "alpha": _angle(rng),
                                   "H": _unit3(rng), "beta": _angle(rng)},
    "baseball": lambda rng: _sphere_pair(rng, "baseball"),
}


def _recover(kind, x, y, xp, yp):
    return {"kind": kind, "X": x, "Y": y, "Xp": xp, "Yp": yp}


def _plane_compose(g, alpha, h, beta):
    return {"kind": "plane_compose", "G": g, "alpha": alpha, "H": h, "beta": beta}


def _sphere_compose(g, alpha, h, beta):
    return {"kind": "sphere_compose", "G": g, "alpha": alpha, "H": h, "beta": beta}


_Z_TURN = _rot3([0.6, 0.0, 0.8], [0.0, 0.0, 1.0], 1.1)
# A point 3e-10 / (2 sin 0.55) off the axis (1, 2, 2) / 3, so that a 1.1 rad turn
# moves it by 3e-10: its chord is too short to give a direction.
_NEAR_AXIS = _unit([1.0, 2.0, 2.0])
_NEAR_POLE = _unit([a + 3e-10 / (2.0 * math.sin(0.55)) * n
                    for a, n in zip(_NEAR_AXIS, _unit([2.0, -1.0, 0.0]))])

# Instances that take an edge branch, each run under all three methods
# with --svg.
EDGES = {
    "plane_translation": _recover("plane_recover", [0.0, 0.0], [1.0, 0.0], [2.0, 3.0], [3.0, 3.0]),
    "plane_near_translation": _recover(
        "plane_recover", [0.3, 0.1], [1.7, -0.4],
        _rot2([0.3, 0.1], [40.0, -25.0], 3e-10), _rot2([1.7, -0.4], [40.0, -25.0], 3e-10)),
    "plane_identity": _recover("plane_recover", [0.5, -1.0], [2.0, 1.0], [0.5, -1.0], [2.0, 1.0]),
    "plane_collinear_bisectors": _recover(
        "plane_recover", [1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]),
    "plane_fixed_endpoint": _recover(
        "plane_recover", [1.0, 1.0], [3.0, 2.0], [1.0, 1.0], _rot2([3.0, 2.0], [1.0, 1.0], 0.7)),
    "plane_compose_cancelled": _plane_compose([0.0, 0.0], math.pi / 2, [1.0, 0.0], -math.pi / 2),
    "plane_compose_cancelled_same_pivot": _plane_compose([1.5, -2.0], 1.2, [1.5, -2.0], -1.2),
    "plane_compose_near_cancelled": _plane_compose([0.8, 0.3], 1.0, [-1.1, 2.4], -1.0 + 3e-10),
    "plane_compose_float_cancelled": _plane_compose([2.0, 1.0], 0.1 + 0.2, [-1.0, 0.5], -0.3),
    "plane_compose_half_turns": _plane_compose([1.0, 0.0], math.pi, [0.0, 1.0], math.pi),
    "plane_reflections_half_turn": {"kind": "plane_reflections", "P": [1.0, -2.0], "theta": math.pi},
    "sphere_fixed_point": _recover(
        "sphere_recover", [0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.0, 1.0], _Z_TURN),
    "sphere_equatorial_half_turn": _recover(
        "sphere_recover", [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
    "sphere_identity": _recover(
        "sphere_recover", [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
    "baseball_fixed_point": _recover(
        "baseball", [0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.0, 1.0], _Z_TURN),
    "baseball_identity": _recover(
        "baseball", [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
    "sphere_compose_identity": _sphere_compose([0.0, 0.0, 1.0], 0.3, [0.0, 0.0, 1.0], -0.3),
    "sphere_compose_near_identity": _sphere_compose([0.0, 0.6, 0.8], 2e-10, [1.0, 0.0, 0.0], 1e-10),
    "sphere_compose_half_turns": _sphere_compose([1.0, 0.0, 0.0], math.pi, [0.0, 1.0, 0.0], math.pi),
    "sphere_nearly_fixed_point": _recover(
        "sphere_recover", _NEAR_POLE, [0.6, 0.0, 0.8],
        _rot3(_NEAR_POLE, _NEAR_AXIS, 1.1), _rot3([0.6, 0.0, 0.8], _NEAR_AXIS, 1.1)),
}

_EQ = [math.cos(0.1), math.sin(0.1), 0.0]

# One input per exit code; (subcommand, input bytes).
ERRORS = {
    "exit2_not_json": ("plane-compose", b"{oops"),
    "exit2_not_utf8": ("plane-compose", b"\xff\xfe{}"),
    "exit2_unknown_kind": ("plane-compose", b'{"kind": "plane_stretch"}'),
    "exit2_missing_field": ("plane-reflections", b'{"kind": "plane_reflections", "P": [0, 0]}'),
    "exit2_kind_mismatch": ("plane-compose", json.dumps(EDGES["plane_translation"]).encode()),
    "exit2_batch_bad_item": ("plane-reflections", json.dumps([
        {"kind": "plane_reflections", "P": [1.0, 2.0], "theta": 0.5},
        {"kind": "plane_reflections", "P": [0.0, 0.0]},
        {"kind": "plane_reflections", "P": [-1.0, 0.5], "theta": -2.0},
    ]).encode()),
    "exit3_plane_length_mismatch": ("plane-recover", json.dumps(
        _recover("plane_recover", [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0])).encode()),
    "exit3_non_finite": ("plane-reflections",
                         b'{"kind": "plane_reflections", "P": [0, 0], "theta": NaN}'),
    "exit3_not_unit": ("sphere-recover", json.dumps(
        _recover("sphere_recover", [1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                 [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])).encode()),
    "exit3_baseball_length_mismatch": ("baseball", json.dumps(
        _recover("baseball", [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], _EQ)).encode()),
    "exit3_sphere_length_mismatch": ("sphere-recover", json.dumps(
        _recover("sphere_recover", [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], _EQ)).encode()),
    "exit4_zero_angle": ("plane-reflections",
                         b'{"kind": "plane_reflections", "P": [1, 1], "theta": 0}'),
    "exit4_batch_solve_error": ("plane-reflections", json.dumps([
        {"kind": "plane_reflections", "P": [1.0, 2.0], "theta": 0.5},
        {"kind": "plane_reflections", "P": [0.0, 0.0], "theta": 0.0},
        {"kind": "plane_reflections", "P": [-1.0, 0.5], "theta": -2.0},
    ]).encode()),
}


# A half turn about an axis in X's equator: X lands on its antipode, and
# neither marked point is fixed.
_HALF_TURN_AXIS = [0.0, 0.6, 0.8]
_HALF_TURN_Y = _unit([0.3, -0.5, 0.8])
HALF_TURN_ONTO_ANTIPODE = _recover(
    "baseball", [1.0, 0.0, 0.0], _HALF_TURN_Y,
    _rot3([1.0, 0.0, 0.0], _HALF_TURN_AXIS, math.pi), _rot3(_HALF_TURN_Y, _HALF_TURN_AXIS, math.pi))

# Nearly coplanar correspondences on which the two sphere routes fail differently:
# the displacement chords are parallel for the algebraic route only, then each
# route in turn misses by just over the 1e-9 tolerance. Draws 1, 346 and 571 (from 0)
# of tests/test_spherical.py's _near_coplanar(random.Random(5)).
ROUTES_DIFFER = [
    _recover("sphere_recover",
             [0.5058240936309832, 0.018574174647503366, 0.8624366564209562],
             [0.4230509210241205, -0.08509892106913641, 0.9021009321874756],
             [0.5040100492302151, 0.020412232676077495, 0.8634565484331762],
             [0.42126055865622347, -0.083284858567151, 0.9031075096875765]),
    _recover("sphere_recover",
             [0.3429477919825419, -0.7489613060680972, -0.5669601167516719],
             [0.5948670577242726, -0.30012081129469725, -0.7456947648081484],
             [0.13385712656163679, -0.6773830759527897, -0.7233494577874509],
             [0.42802496584459016, -0.2430055882676722, -0.8704842977816546]),
    _recover("sphere_recover",
             [-0.7854459318695479, -0.6186654365491168, -0.018104301396860784],
             [0.7550118502907783, 0.6414404914642668, 0.136055877603929],
             [-0.1889425661500628, -0.9076950224067749, 0.3746871401510782],
             [0.11511276530804396, 0.9514970125470669, -0.28531120969415513]),
]

# Inputs on which the two routes agree only to a few ulps, run under --method both
# at a tolerance below that gap, so the record carries the disagreement warning:
# kind -> (tolerance, input). The plane_recover input is tests/test_cli.py's.
ROUTES_DISAGREE = {
    "plane_recover": ("1e-15", _recover(
        "plane_recover", [7, 10], [33, -2],
        [-11.174170620902519, 0.05136235638721676], [0.8258293790974802, 26.051362356387216])),
    "plane_compose": ("1e-15", _plane_compose([1, 2], 1, [3, -1], 0.5)),
    "sphere_compose": ("1e-16", _sphere_compose([0, 0.6, 0.8], 1, [0.8, 0, 0.6], 0.5)),
}

# Inputs with two faults: the exit code is that of the first check, kind,
# then fields, then values, with or without --degrees.
PRECEDENCE = {
    "exit2_degrees_extra_field_and_overflow": ("plane-compose", ["--degrees"], (
        b'{"kind": "plane_compose", "G": [0, 0], "alpha": 1' + b"0" * 400
        + b', "H": [1, 0], "beta": 30, "junk": 1}')),
    "exit2_kind_mismatch_non_finite": ("sphere-compose", [], (
        b'{"kind": "plane_compose", "G": [0, 0], "alpha": NaN, "H": [1, 0], "beta": 0.5}')),
}


def _degrees(obj):
    out = dict(obj)
    for name in ("alpha", "beta", "theta"):
        if name in out:
            out[name] = math.degrees(out[name])
    return out


def cases() -> dict[str, tuple[list[str], str | None, bytes]]:
    """Every case by name: (subcommand and flags, SVG file name, input)."""
    rng = random.Random(SEED)
    out: dict[str, tuple[list[str], str | None, bytes]] = {}

    def add(name, argv, svg, doc):
        out[name] = (argv, svg, doc if isinstance(doc, bytes) else json.dumps(doc).encode())

    for kind, make in RANDOM.items():
        sub = kind.replace("_", "-")
        for method in METHODS:
            add(f"{kind}_{method}", [sub, "--method", method], None, [make(rng) for _ in range(3)])
        add(f"{kind}_degrees", [sub, "--degrees"], None, _degrees(make(rng)))
        add(f"{kind}_svg_batch", [sub], "fig.svg", [make(rng) for _ in range(2)])
    noisy = _plane_recover(rng)
    noisy["Yp"] = [c + 1e-7 for c in noisy["Yp"]]
    add("plane_recover_tolerance", ["plane-recover", "--tolerance", "1e-5"], None, noisy)
    for name, obj in EDGES.items():
        sub = obj["kind"].replace("_", "-")
        for method in METHODS:
            add(f"edge_{name}_{method}", [sub, "--method", method], "fig.svg", obj)
    for name, (sub, doc) in ERRORS.items():
        add(name, [sub], None, doc)
    # Cases added later draw nothing from rng, so the cases above keep their inputs.
    for name, (sub, flags, doc) in PRECEDENCE.items():
        add(name, [sub, *flags], None, doc)
    for method in METHODS:
        add(f"baseball_half_turn_onto_antipode_{method}", ["baseball", "--method", method],
            "fig.svg" if method == "both" else None, HALF_TURN_ONTO_ANTIPODE)
    for method in METHODS:
        add(f"exit4_sphere_routes_differ_{method}", ["sphere-recover", "--method", method], None,
            ROUTES_DIFFER)
    for kind, (tol, obj) in ROUTES_DISAGREE.items():
        add(f"warn_routes_disagree_{kind}",
            [kind.replace("_", "-"), "--method", "both", "--tolerance", tol], None, obj)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=CASES_DIR,
                        help="directory to create (default: cases/ next to this script)")
    args = parser.parse_args(argv)
    if args.out.exists():
        print(f"{args.out} exists; remove it first", file=sys.stderr)
        return 1
    corpus = cases()
    for name, (cmd, svg, doc) in corpus.items():
        case = args.out / name
        (case / "out").mkdir(parents=True)
        (case / "cmd.json").write_text(json.dumps({"argv": cmd, "svg": svg}) + "\n", encoding="utf-8")
        (case / "input.json").write_bytes(doc)
        with tempfile.TemporaryDirectory() as work:
            for fname, data in replay(case, Path(work)).items():
                (case / "out" / fname).write_bytes(data)
    print(f"wrote {len(corpus)} cases to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

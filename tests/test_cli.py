import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter, OrderedDict
from pathlib import Path

import pytest
from golden.make_corpus import HALF_TURN_ONTO_ANTIPODE, METHODS, RANDOM, _rot2, _rot3, _unit, _unit3
from helpers import near_pivot_segments, refuse_algebraic_routes
from hypothesis import example, given
from hypothesis import strategies as st

import isometry_lab
from isometry_lab import (
    DegenerateAxis,
    GeometryError,
    InternalCheckError,
    LengthMismatch,
    Mat2,
    ParseError,
    Rotation2,
    SchemaError,
    Segment2,
    SphereSegment,
    UnitVector3,
    ValidationError,
    Vec2,
    Vec3,
    apply_planar,
    recover_planar,
    recover_planar_geometric,
)
from isometry_lab.cli import (
    _CATCHABLE,
    ProblemInstance,
    _block,
    _error_payload,
    _to_degrees_record,
    _write,
    exit_code_for,
    instance_from_obj,
    main,
    parse_instance,
    run,
    run_baseball,
)
from isometry_lab.linalg import ANGLE_MIN, Mat3

P2_OBJ = {
    "kind": "plane_compose",
    "G": [0.0, 0.0],
    "alpha": math.pi / 4,
    "H": [1.0, 0.0],
    "beta": math.pi / 2,
}

S2_OBJ = {
    "kind": "sphere_compose",
    "G": [0.0, 1.0, 0.0],
    "alpha": math.pi / 4,
    "H": [0.0, 0.0, 1.0],
    "beta": math.pi / 6,
}


class TestParseInstance:
    def test_accepts_bytes_and_str(self):
        text = json.dumps(P2_OBJ)
        for payload in (text, text.encode()):
            inst = parse_instance(payload)
            assert inst.kind == "plane_compose"
            assert inst.payload["alpha"] == pytest.approx(math.pi / 4)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_instance(b"{not json")

    def test_non_utf8(self):
        with pytest.raises(ParseError):
            parse_instance(b"\xff\xfe{}")

    def test_array_rejected_for_single(self):
        with pytest.raises(SchemaError):
            parse_instance(json.dumps([P2_OBJ]))

    def test_missing_kind(self):
        with pytest.raises(SchemaError):
            instance_from_obj({"X": [0, 0]})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            instance_from_obj({"kind": "plane_stretch"})

    def test_missing_field(self):
        obj = dict(P2_OBJ)
        del obj["beta"]
        with pytest.raises(SchemaError):
            instance_from_obj(obj)

    def test_extra_field(self):
        obj = dict(P2_OBJ, gamma=1.0)
        with pytest.raises(SchemaError):
            instance_from_obj(obj)

    def test_wrong_arity(self):
        obj = dict(P2_OBJ, G=[0.0, 0.0, 0.0])
        with pytest.raises(SchemaError):
            instance_from_obj(obj)

    def test_bool_is_not_a_number(self):
        obj = dict(P2_OBJ, alpha=True)
        with pytest.raises(SchemaError):
            instance_from_obj(obj)

    def test_non_finite_rejected(self):
        obj = dict(P2_OBJ, alpha=math.inf)
        with pytest.raises(ValidationError):
            instance_from_obj(obj)

    def test_coincident_plane_segment_rejected(self):
        obj = {
            "kind": "plane_recover",
            "X": [1, 1],
            "Y": [1, 1],
            "Xp": [0, 0],
            "Yp": [1, 0],
        }
        with pytest.raises(ValidationError):
            instance_from_obj(obj)

    def test_sphere_point_renormalized(self):
        obj = {
            "kind": "sphere_recover",
            "X": [0.6, 0.8, 0.0001],
            "Y": [0, 0, 1],
            "Xp": [0.6, 0.8, 0.0001],
            "Yp": [0, 0, 1],
        }
        inst = instance_from_obj(obj)
        assert abs(inst.payload["before"].a.norm() - 1.0) <= 1e-12

    def test_far_from_unit_rejected(self):
        obj = {
            "kind": "sphere_compose",
            "G": [0.5, 0.5, 0.5],
            "alpha": 1.0,
            "H": [0, 0, 1],
            "beta": 1.0,
        }
        with pytest.raises(ValidationError):
            instance_from_obj(obj)

    def test_antipodal_segment_rejected(self):
        obj = {
            "kind": "baseball",
            "X": [0, 0, 1],
            "Y": [0, 0, -1],
            "Xp": [0, 0, 1],
            "Yp": [0, 0, -1],
        }
        with pytest.raises(ValidationError):
            instance_from_obj(obj)


class TestRun:
    def test_plane_compose_published_values(self):
        record = run(instance_from_obj(P2_OBJ))
        assert record.result["type"] == "rotation"
        px, py = record.result["pivot"]
        assert abs(px - 0.7071) <= 1e-4
        assert abs(py - 0.2929) <= 1e-4
        assert abs(record.result["angle"] - 3 * math.pi / 4) <= 1e-12
        assert record.discrepancy is not None and record.discrepancy <= 1e-9

    def test_sphere_compose_published_values(self):
        record = run(instance_from_obj(S2_OBJ))
        assert abs(record.result["angle"] - 0.9363) <= 1e-3
        a, b = record.result["complex_pair"]
        assert abs(a - 0.5927) <= 1e-3
        assert abs(b - 0.8054) <= 1e-3
        axis = record.result["axis"]
        for got, expect in zip(axis, (0.2195, 0.8192, 0.5299)):
            assert abs(abs(got) - expect) <= 1e-3

    def test_plane_recover_identity(self):
        obj = {
            "kind": "plane_recover",
            "X": [1, 0],
            "Y": [2, 0],
            "Xp": [1, 0],
            "Yp": [2, 0],
        }
        record = run(instance_from_obj(obj))
        assert record.result == {"type": "identity"}
        assert record.residual == 0.0

    def test_sphere_recover_identity(self):
        obj = {
            "kind": "sphere_recover",
            "X": [1, 0, 0],
            "Y": [0, 1, 0],
            "Xp": [1, 0, 0],
            "Yp": [0, 1, 0],
        }
        record = run(instance_from_obj(obj))
        assert record.result == {"type": "identity"}
        assert record.residual == 0.0

    def test_plane_reflections_round_trip(self):
        obj = {"kind": "plane_reflections", "P": [2.0, 5.0], "theta": math.pi / 2}
        record = run(instance_from_obj(obj))
        lines = record.result["lines"]
        assert record.result["angle_between_lines"] == pytest.approx(math.pi / 4)
        assert lines[0]["point"] == [2.0, 5.0]
        assert record.residual <= 1e-12

    def test_cancelled_angle_diagnostic(self):
        obj = {
            "kind": "plane_compose",
            "G": [0.0, 0.0],
            "alpha": math.pi / 2,
            "H": [1.0, 0.0],
            "beta": -math.pi / 2,
        }
        record = run(instance_from_obj(obj))
        assert record.result["type"] == "translation"
        assert any("G + H" in d for d in record.diagnostics)

    def test_arcsin_diagnostic_on_half_turn(self):
        obj = {
            "kind": "sphere_recover",
            "X": [1, 0, 0],
            "Y": [0, 0, 1],
            "Xp": [-1, 0, 0],
            "Yp": [0, 0, 1],
        }
        record = run(instance_from_obj(obj))
        assert abs(record.result["angle"] - math.pi) <= 1e-9
        assert any("arcsin" in d for d in record.diagnostics)

    def test_residual_is_recomputable(self):
        obj = {
            "kind": "plane_recover",
            "X": [1, 0],
            "Y": [2, 0],
            "Xp": [0, 1],
            "Yp": [0, 2],
        }
        record = run(instance_from_obj(obj))
        rot = Rotation2(Vec2(*record.result["pivot"]), record.result["angle"])
        expect = max(
            (apply_planar(rot, Vec2(1, 0)) - Vec2(0, 1)).norm(),
            (apply_planar(rot, Vec2(2, 0)) - Vec2(0, 2)).norm(),
        )
        assert abs(record.residual - expect) <= 1e-15

    def test_method_selection(self):
        for method in ("algebraic", "geometric", "both"):
            record = run(instance_from_obj(P2_OBJ), method=method)
            assert record.method == method
            assert abs(record.result["angle"] - 3 * math.pi / 4) <= 1e-9
        with pytest.raises(ValueError):
            run(instance_from_obj(P2_OBJ), method="fastest")

    def test_unknown_kind_guard(self):
        with pytest.raises(SchemaError):
            ProblemInstance("plane_stretch", {})


class TestRunBaseball:
    def test_identity_reports_all_fixed(self):
        seg = SphereSegment(UnitVector3(1, 0, 0), UnitVector3(0, 1, 0))
        record = run_baseball(seg, seg)
        assert record.result == {"type": "identity", "fixed_points": "all"}
        assert record.residual == 0.0

    def test_round_trip_recovers_planted_rotation(self):
        from isometry_lab import Rotation3, apply_sphere

        rot = Rotation3(UnitVector3(0.0, 0.0, 1.0), 1.0)
        before = SphereSegment(UnitVector3(1, 0, 0), UnitVector3(0.6, 0.8, 0.0))
        after = SphereSegment(apply_sphere(rot, before.a), apply_sphere(rot, before.b))
        record = run_baseball(before, after)
        assert record.result["type"] == "rotation"
        assert abs(record.result["angle"] - 1.0) <= 1e-9
        fp = record.result["fixed_points"]
        assert len(fp) == 2
        assert fp[0] == [record.result["axis"][0], record.result["axis"][1], record.result["axis"][2]]

    def test_length_mismatch(self):
        from isometry_lab import LengthMismatch

        before = SphereSegment(UnitVector3(1, 0, 0), UnitVector3(0, 1, 0))
        after = SphereSegment(
            UnitVector3(0, 1, 0),
            UnitVector3(math.cos(0.1), math.sin(0.1), 0.0),
        )
        with pytest.raises(LengthMismatch):
            run_baseball(before, after)


class TestExitCodes:
    def _write(self, tmp_path, obj):
        p = tmp_path / "instance.json"
        p.write_text(json.dumps(obj))
        return str(p)

    def test_success(self, tmp_path, capsys):
        code = main(["plane-compose", "--input", self._write(tmp_path, P2_OBJ)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["result"]["type"] == "rotation"

    def test_parse_error_is_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        code = main(["plane-compose", "--input", str(p)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"]["type"] == "ParseError"

    def test_schema_error_is_2(self, tmp_path, capsys):
        code = main(
            ["plane-compose", "--input", self._write(tmp_path, dict(P2_OBJ, junk=1))]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "SchemaError"

    def test_kind_subcommand_mismatch_is_2(self, tmp_path, capsys):
        code = main(["plane-recover", "--input", self._write(tmp_path, P2_OBJ)])
        assert code == 2
        capsys.readouterr()

    def test_validation_error_is_3(self, tmp_path, capsys):
        obj = {
            "kind": "plane_recover",
            "X": [1, 1],
            "Y": [1, 1],
            "Xp": [0, 0],
            "Yp": [1, 0],
        }
        code = main(["plane-recover", "--input", self._write(tmp_path, obj)])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValidationError"

    def test_baseball_length_mismatch_is_3(self, tmp_path, capsys):
        obj = {
            "kind": "baseball",
            "X": [1, 0, 0],
            "Y": [0, 1, 0],
            "Xp": [0, 1, 0],
            "Yp": [math.cos(0.1), math.sin(0.1), 0.0],
        }
        code = main(["baseball", "--input", self._write(tmp_path, obj)])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["error"]["type"] == "LengthMismatch"

    def test_degenerate_axis_is_4(self, tmp_path, capsys):
        obj = {
            "kind": "sphere_recover",
            "X": [1, 0, 0],
            "Y": [-0.8, 0, 0.6],
            "Xp": [0, 1, 0],
            "Yp": [0, -0.8, 0.6],
        }
        code = main(["sphere-recover", "--input", self._write(tmp_path, obj)])
        out = json.loads(capsys.readouterr().out)
        assert code == 4
        assert out["error"]["type"] == "DegenerateAxis"

    def test_batch_item_that_is_not_an_object_is_2(self, tmp_path, capsys):
        code = main(["plane-compose", "--input", self._write(tmp_path, [P2_OBJ, 5])])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out[0]["result"]["type"] == "rotation"
        assert out[1]["error"] == {
            "type": "SchemaError", "message": "an instance must be a JSON object",
        }

    def test_unreadable_input_is_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        code = main(["plane-compose", "--input", path])
        captured = capsys.readouterr()
        assert code == 2
        out = json.loads(captured.out)
        assert out["error"]["type"] == "ParseError"
        assert out["error"]["message"].startswith(f"cannot read {path}: ")
        assert captured.err == f"error: {out['error']['message']}\n"
        assert captured.out == _write(out) + "\n"  # the layout of every other answer

    def test_exit_code_mapping_for_internal_check(self):
        from isometry_lab import InternalCheckError

        assert exit_code_for(InternalCheckError("routes disagree")) == 5

    @pytest.mark.parametrize("exc, code", [
        (SchemaError("missing field 'kind'"), 2),
        (LengthMismatch("arcs differ"), 3),
        (InternalCheckError("routes disagree"), 5),
        (DegenerateAxis("chords are parallel"), 4),
        (ZeroDivisionError("not an error of the contract"), 1),
    ])
    def test_exit_code_mapping_one_case_per_table_row(self, exc, code):
        assert exit_code_for(exc) == code
        assert isinstance(exc, _CATCHABLE) == (code != 1)


class TestMainOutput:
    def _write(self, tmp_path, obj, name="instance.json"):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    def test_deterministic_stdout(self, tmp_path, capsys):
        path = self._write(tmp_path, S2_OBJ)
        main(["sphere-compose", "--input", path])
        first = capsys.readouterr().out
        main(["sphere-compose", "--input", path])
        second = capsys.readouterr().out
        assert first == second

    def test_ten_significant_digits(self, tmp_path, capsys):
        main(["plane-compose", "--input", self._write(tmp_path, P2_OBJ)])
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["pivot"][0] == 0.7071067812

    def test_degrees_mode(self, tmp_path, capsys):
        obj = dict(P2_OBJ, alpha=45.0, beta=90.0)
        code = main(
            ["plane-compose", "--degrees", "--input", self._write(tmp_path, obj)]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(out["result"]["pivot"][0] - 0.7071) <= 1e-4
        assert out["result"]["angle"] == pytest.approx(135.0, abs=1e-9)

    def test_batch_preserves_order(self, tmp_path, capsys):
        items = [P2_OBJ, dict(P2_OBJ, alpha=math.pi / 2)]
        code = main(["plane-compose", "--input", self._write(tmp_path, items)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert isinstance(out, list) and len(out) == 2
        assert out[0]["result"]["angle"] != out[1]["result"]["angle"]

    def test_batch_item_error_continues(self, tmp_path, capsys):
        bad = {
            "kind": "sphere_recover",
            "X": [1, 0, 0],
            "Y": [-0.8, 0, 0.6],
            "Xp": [0, 1, 0],
            "Yp": [0, -0.8, 0.6],
        }
        good = {
            "kind": "sphere_recover",
            "X": [1, 0, 0],
            "Y": [0.6, 0.8, 0],
            "Xp": [0, 1, 0],
            "Yp": [-0.8, 0.6, 0],
        }
        code = main(["sphere-recover", "--input", self._write(tmp_path, [bad, good])])
        out = json.loads(capsys.readouterr().out)
        assert code == 4
        assert "error" in out[0]
        assert out[1]["result"]["type"] == "rotation"

    def test_svg_output_written(self, tmp_path, capsys):
        svg = tmp_path / "figure.svg"
        code = main(
            [
                "plane-compose",
                "--input",
                self._write(tmp_path, P2_OBJ),
                "--svg",
                str(svg),
            ]
        )
        capsys.readouterr()
        assert code == 0
        ET.fromstring(svg.read_bytes().decode())

    def test_warning_goes_to_stderr(self, tmp_path, capsys):
        obj = {
            "kind": "sphere_recover",
            "X": [1, 0, 0],
            "Y": [0, 0, 1],
            "Xp": [-1, 0, 0],
            "Yp": [0, 0, 1],
        }
        main(["sphere-recover", "--input", self._write(tmp_path, obj)])
        captured = capsys.readouterr()
        assert "arcsin" in captured.err

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            sys, "stdin", type("S", (), {"buffer": io.BytesIO(json.dumps(P2_OBJ).encode())})()
        )
        code = main(["plane-compose", "--input", "-"])
        capsys.readouterr()
        assert code == 0


def test_module_entry_point(tmp_path):
    p = tmp_path / "instance.json"
    p.write_text(json.dumps(P2_OBJ))
    # the child imports the package this process imported, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(isometry_lab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "isometry_lab", "plane-compose", "--input", str(p)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    out = json.loads(proc.stdout)
    assert abs(out["result"]["pivot"][0] - 0.7071) <= 1e-4


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "-inf", "abc"])
def test_bad_tolerance_exits_2_before_solving(tmp_path, capsys, value):
    # arc lengths pi/2 and 0.927: a NaN tolerance used to accept this pair
    p = tmp_path / "instance.json"
    p.write_text(json.dumps({
        "kind": "sphere_recover",
        "X": [1, 0, 0], "Y": [0, 1, 0], "Xp": [1, 0, 0], "Yp": [0.6, 0.8, 0],
    }))
    with pytest.raises(SystemExit) as exc:
        main(["sphere-recover", "--input", str(p), f"--tolerance={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--tolerance" in captured.err


def test_positive_tolerance_is_accepted(tmp_path, capsys):
    p = tmp_path / "instance.json"
    p.write_text(json.dumps({
        "kind": "plane_recover", "X": [0, 0], "Y": [1, 0], "Xp": [0, 0], "Yp": [0, 1],
    }))
    assert main(["plane-recover", "--input", str(p), "--tolerance", "1e-5"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["type"] == "rotation"


@pytest.mark.parametrize("kind", ["sphere_recover", "baseball"])
def test_mismatched_sphere_lengths_exit_3_for_both_kinds(tmp_path, capsys, kind):
    p = tmp_path / "instance.json"
    p.write_text(json.dumps({
        "kind": kind,
        "X": [1, 0, 0], "Y": [0, 1, 0], "Xp": [0, 1, 0], "Yp": [math.cos(0.1), math.sin(0.1), 0],
    }))
    code = main([kind.replace("_", "-"), "--input", str(p)])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["error"]["type"] == "LengthMismatch"


def _reflection(theta=None, **extra):
    obj = {"kind": "plane_reflections", "P": [1.0, 2.0], **extra}
    if theta is not None:
        obj["theta"] = theta
    return obj


def test_bad_batch_items_fail_one_at_a_time(tmp_path, capsys):
    items = [
        _reflection(0.5),
        _reflection(),  # missing theta: schema error, exit 2
        dict(_reflection(0.5), kind="plane_compose"),  # wrong kind for the subcommand
        _reflection(float("nan")),  # not finite: validation error, exit 3
        _reflection(-2.0),
    ]
    p = tmp_path / "batch.json"
    p.write_text(json.dumps(items))
    svg = tmp_path / "fig.svg"
    code = main(["plane-reflections", "--input", str(p), "--svg", str(svg)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2  # the first error's code
    assert isinstance(out, list) and len(out) == len(items)
    assert [o.get("error", {}).get("type") for o in out] == [
        None, "SchemaError", "SchemaError", "ValidationError", None,
    ]
    assert out[0]["result"]["angle"] == 0.5 and out[4]["result"]["angle"] == -2.0
    assert sorted(f.name for f in tmp_path.glob("*.svg")) == ["fig.0.svg", "fig.4.svg"]


def test_first_bad_item_sets_the_exit_code(tmp_path, capsys):
    p = tmp_path / "batch.json"
    p.write_text(json.dumps([_reflection(float("inf")), _reflection(), _reflection(0.0)]))
    code = main(["plane-reflections", "--input", str(p), "--degrees"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert [o["error"]["type"] for o in out] == ["ValidationError", "SchemaError", "ZeroAngle"]


def test_undecodable_document_is_one_error(tmp_path, capsys):
    p = tmp_path / "batch.json"
    p.write_bytes(b"[\xff\xfe]")
    code = main(["plane-reflections", "--input", str(p)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["type"] == "ParseError"


_SPHERE_PAIR = {"X": [1, 0, 0], "Y": [0, 1, 0], "Xp": [0, 1, 0], "Yp": [-1, 0, 0]}
_ONE_PER_KIND = {
    "plane_recover": {"X": [0, 0], "Y": [1, 0], "Xp": [0, 0], "Yp": [0, 1]},
    "plane_compose": {k: v for k, v in P2_OBJ.items() if k != "kind"},
    "plane_reflections": {"P": [1.0, 2.0], "theta": 0.5},
    "sphere_recover": _SPHERE_PAIR,
    "sphere_compose": {k: v for k, v in S2_OBJ.items() if k != "kind"},
    "baseball": _SPHERE_PAIR,
}
_FIGURE_BUILDERS = (
    "planar_recovery_figure",
    "planar_compose_figure",
    "reflection_pair_figure",
    "sphere_recovery_figure",
    "sphere_compose_figure",
)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_library_rejects_a_bad_tolerance(value):
    # segment lengths 1 and 2: a NaN tolerance used to answer "identity"
    inst = instance_from_obj({
        "kind": "plane_recover", "X": [0, 0], "Y": [1, 0], "Xp": [0, 0], "Yp": [2, 0],
    })
    with pytest.raises(ValueError, match="tolerance"):
        run(inst, tolerance=value)
    before = SphereSegment(UnitVector3(1, 0, 0), UnitVector3(0, 1, 0))
    after = SphereSegment(UnitVector3(1, 0, 0), UnitVector3(0.6, 0.8, 0))
    with pytest.raises(ValueError, match="tolerance"):
        run_baseball(before, after, tolerance=value)


@pytest.mark.parametrize("method", ["algebraic", "geometric", "both"])
def test_no_figure_is_built_without_an_svg_path(monkeypatch, method):
    def refuse(*args, **kwargs):
        raise AssertionError("figure built without an svg_path")

    for name in _FIGURE_BUILDERS:
        monkeypatch.setattr(f"isometry_lab.cli.{name}", refuse)
    for kind, fields in _ONE_PER_KIND.items():
        record = run(instance_from_obj({"kind": kind, **fields}), method=method)
        assert record.residual <= 1e-9


@pytest.mark.parametrize("kind", sorted(_ONE_PER_KIND))
def test_an_svg_path_builds_the_figure_once(monkeypatch, tmp_path, kind):
    import isometry_lab.cli as cli

    calls = []
    for name in _FIGURE_BUILDERS:
        def counted(*args, _original=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    svg = tmp_path / "fig.svg"
    run(instance_from_obj({"kind": kind, **_ONE_PER_KIND[kind]}), svg_path=str(svg))
    assert len(calls) == 1
    assert ET.fromstring(svg.read_bytes()).tag.endswith("svg")


def _run_recording_svg(monkeypatch, svg_path) -> bytes:
    """run() one sphere_recover into svg_path; the bytes render_svg returned."""
    import isometry_lab.cli as cli

    rendered = []

    def recording(spec, _original=cli.render_svg):
        rendered.append(_original(spec))
        return rendered[-1]

    monkeypatch.setattr(cli, "render_svg", recording)
    run(instance_from_obj({"kind": "sphere_recover", **_ONE_PER_KIND["sphere_recover"]}),
        svg_path=svg_path)
    (data,) = rendered
    return data


@pytest.mark.parametrize("old", [b"x" * 65536, b"x"], ids=["longer", "one_byte"])
def test_an_existing_svg_file_holds_exactly_the_new_figure(monkeypatch, tmp_path, old):
    svg = tmp_path / "fig.svg"
    svg.write_bytes(old)
    data = _run_recording_svg(monkeypatch, str(svg))
    assert svg.read_bytes() == data


def test_a_new_svg_file_gets_the_umask_mode(monkeypatch, tmp_path):
    svg = tmp_path / "fig.svg"
    old_mask = os.umask(0o027)
    try:
        data = _run_recording_svg(monkeypatch, str(svg))
    finally:
        os.umask(old_mask)
    assert svg.stat().st_mode & 0o777 == 0o666 & ~0o027
    assert svg.read_bytes() == data


def test_an_svg_path_that_is_a_hard_link_rewrites_its_target(monkeypatch, tmp_path):
    target, svg = tmp_path / "target.svg", tmp_path / "fig.svg"
    target.write_bytes(b"x" * 100)
    os.link(target, svg)
    inode = svg.stat().st_ino
    data = _run_recording_svg(monkeypatch, str(svg))
    assert svg.stat().st_ino == target.stat().st_ino == inode
    assert target.read_bytes() == data


@pytest.mark.parametrize("method", ["algebraic", "geometric", "both"])
def test_near_identity_sphere_compose_solves_by_every_route(method):
    # the probe points move about 1e-10: too little for a bisector circle
    inst = instance_from_obj({
        "kind": "sphere_compose", "G": [0.0, 0.6, 0.8], "alpha": 2e-10,
        "H": [1.0, 0.0, 0.0], "beta": 1e-10,
    })
    out = run(inst, method=method).to_dict()
    assert out["result"]["angle"] == 0.0
    assert out["residual"] <= 1e-9
    assert out.get("discrepancy", 0.0) <= 1e-9


def test_sphere_points_moved_below_the_bisector_cut_off_are_the_identity():
    t = 3e-10  # about the z axis: (1, 0, 0) moves by t, (0, 0.6, 0.8) by 0.6 t
    for y, yp in (([0.0, 0.6, 0.8], [-0.6 * math.sin(t), 0.6 * math.cos(t), 0.8]),
                  ([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])):  # Y on the axis: X is fixed all the same
        inst = instance_from_obj({
            "kind": "sphere_recover", "X": [1.0, 0.0, 0.0], "Y": y,
            "Xp": [math.cos(t), math.sin(t), 0.0], "Yp": yp,
        })
        for method in ("algebraic", "geometric", "both"):
            out = run(inst, method=method).to_dict()
            assert out["result"] == {"type": "identity"}
            assert out["residual"] == pytest.approx(t, rel=1e-6)


def test_a_fixed_point_still_wins_over_a_short_chord():
    t = 3e-9  # X moves by 3 SPHERE_CHORD_MIN; (0, 0, 1) is on the axis, so the turn about z is found
    inst = instance_from_obj({
        "kind": "sphere_recover", "X": [1.0, 0.0, 0.0], "Y": [0.0, 0.0, 1.0],
        "Xp": [math.cos(t), math.sin(t), 0.0], "Yp": [0.0, 0.0, 1.0],
    })
    for method in METHODS:
        out = run(inst, method=method).to_dict()
        assert out["result"]["axis"] == [0.0, 0.0, 1.0]
        assert out["result"]["angle"] == pytest.approx(t, rel=1e-6)


def _x_near_the_axis(rng, kind, move):
    """X moved by move(rng) by a U(0.3, 2.8) turn about a random axis, Y a random point."""
    axis, t = _unit3(rng), rng.uniform(0.3, 2.8)
    arm = move(rng) / (2.0 * math.sin(t / 2.0))
    g = _unit3(rng)
    d = sum(a * c for a, c in zip(axis, g))
    off = _unit([c - d * a for a, c in zip(axis, g)])  # a unit vector normal to the axis
    x = _unit([a + arm * o for a, o in zip(axis, off)])
    y = _unit3(rng)
    return {"kind": kind, "X": x, "Y": y, "Xp": _rot3(x, axis, t), "Yp": _rot3(y, axis, t)}


@pytest.mark.parametrize("kind", ["sphere_recover", "baseball"])
def test_a_nearly_fixed_point_is_the_axis_under_every_method(kind):
    # X, not the cross product of its noise chord, is the axis under every route
    rng = random.Random(2026)
    for _ in range(200):
        inst = instance_from_obj(
            _x_near_the_axis(rng, kind, lambda r: 10.0 ** r.uniform(-16.0, -9.05)))
        x = inst.payload["before"].a
        for method in METHODS:
            out = run(inst, method=method).to_dict()
            assert out["result"]["axis"] in ([x.x, x.y, x.z], [-x.x, -x.y, -x.z])
            assert out["residual"] <= 1e-9


@pytest.mark.parametrize("move", [1e-4, 1e-3])
def test_a_point_near_the_axis_does_not_set_the_angle(move):
    # X moves by `move` close to the axis, where the axis's rounding turns it a
    # lot; the angle comes off Y, which moves more, under every method
    rng = random.Random(2026)
    for _ in range(200):
        inst = instance_from_obj(_x_near_the_axis(rng, "sphere_recover", lambda _: move))
        for method in METHODS:
            assert run(inst, method=method).to_dict()["residual"] <= 1e-9


def test_plane_recover_reads_the_angle_off_the_endpoint_that_moves_more(tmp_path, capsys):
    # X lies 1e-8 from the pivot; on this fourth draw an angle read off X missed Y by 2.8e-7
    rng = random.Random(11)
    src, dst = [near_pivot_segments(rng, 1e-8) for _ in range(4)][-1]
    p = tmp_path / "instance.json"
    p.write_text(json.dumps({"kind": "plane_recover", "X": [src.a.x, src.a.y], "Y": [src.b.x, src.b.y],
                             "Xp": [dst.a.x, dst.a.y], "Yp": [dst.b.x, dst.b.y]}))
    assert main(["plane-recover", "--input", str(p), "--method", "geometric"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["type"] == "rotation"
    assert out["residual"] <= 1e-9


_HUGE_PLANE = {
    # overflows the geometric route's midpoints and the algebraic determinant
    "1e308": {"X": [1e308, 1e307], "Y": [0.9e308, 0.0],
              "Xp": [1.5e308, -1e307], "Yp": [1.6e308, 0.0]},
    # a quarter turn whose pivot comes out infinite
    "1e154": {"X": [1e154, 0.0], "Y": [0.0, 1e154], "Xp": [0.0, 1e154], "Yp": [-1e154, 0.0]},
}


@pytest.mark.parametrize("method", ["algebraic", "geometric", "both"])
@pytest.mark.parametrize("scale", sorted(_HUGE_PLANE))
def test_plane_coordinates_beyond_1e150_exit_3(tmp_path, capsys, scale, method):
    p = tmp_path / "instance.json"
    p.write_text(json.dumps({"kind": "plane_recover", **_HUGE_PLANE[scale]}))
    assert main(["plane-recover", "--input", str(p), "--method", method]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "ValidationError"
    assert "1e+150" in out["error"]["message"]


@pytest.mark.parametrize("method", ["algebraic", "geometric", "both"])
def test_plane_coordinates_at_1e150_still_solve(tmp_path, capsys, method):
    p = tmp_path / "instance.json"
    p.write_text(json.dumps({
        "kind": "plane_recover", "X": [1e150, 0.0], "Y": [0.0, 1e150],
        "Xp": [0.0, 1e150], "Yp": [-1e150, 0.0],
    }))
    assert main(["plane-recover", "--input", str(p), "--method", method]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["type"] == "rotation"
    assert result["angle"] == pytest.approx(math.pi / 2, abs=1e-9)


def _segments(points: dict) -> tuple[Segment2, Segment2]:
    p = {name: Vec2(*xy) for name, xy in points.items()}
    return Segment2(p["X"], p["Y"]), Segment2(p["Xp"], p["Yp"])


@pytest.mark.parametrize("solver", [recover_planar, recover_planar_geometric])
@pytest.mark.parametrize("scale", sorted(_HUGE_PLANE))
def test_plane_solvers_reject_coordinates_beyond_1e150(solver, scale):
    with pytest.raises(ValueError, match=r"coordinates beyond 1e\+150"):
        solver(*_segments(_HUGE_PLANE[scale]))


def test_plane_compose_with_far_pivots_solves_algebraically():
    # the probe's images are 1e13 from the origin, so as a segment they
    # would fall within the relative coincidence cut
    inst = instance_from_obj({
        "kind": "plane_compose", "G": [1e13, 0.0], "alpha": 1.0, "H": [0.0, 1e13], "beta": 0.5,
    })
    result = run(inst, method="algebraic").result
    assert result["type"] == "rotation"
    assert result["angle"] == pytest.approx(1.5, abs=1e-12)


# The two routes land about 3.6e-15 apart on this quarter turn.
_DISAGREEING_ROUTES = {
    "kind": "plane_recover", "X": [7, 10], "Y": [33, -2],
    "Xp": [-11.174170620902519, 0.05136235638721676],
    "Yp": [0.8258293790974802, 26.051362356387216],
}


def test_route_disagreement_beyond_the_tolerance_is_reported():
    record = run(instance_from_obj(_DISAGREEING_ROUTES), tolerance=1e-15)
    assert record.discrepancy > 1e-15
    assert any("disagree" in d for d in record.diagnostics)
    assert record.result["type"] == record.result_geometric["type"] == "rotation"


def test_route_disagreement_is_a_warning_not_a_failure(tmp_path, capsys):
    p = tmp_path / "instance.json"
    p.write_text(json.dumps(_DISAGREEING_ROUTES))
    assert main(["plane-recover", "--input", str(p), "--tolerance", "1e-15"]) == 0
    captured = capsys.readouterr()
    assert any(line.startswith("warning:") and "disagree" in line
               for line in captured.err.splitlines())
    out = json.loads(captured.out)
    assert "result" in out and "result_geometric" in out


def _plane_compose_text(alpha: str = "1", g: str = "[0, 0]") -> str:
    return f'{{"kind": "plane_compose", "G": {g}, "alpha": {alpha}, "H": [1, 0], "beta": 0.5}}'


_BEYOND_FLOAT = "1" + "0" * 400  # a JSON integer too large for a float
_OVERFLOWING = {
    "alpha": _plane_compose_text(alpha=_BEYOND_FLOAT),
    "G[0]": _plane_compose_text(g=f"[{_BEYOND_FLOAT}, 0]"),
}


def _main_on(tmp_path, capsys, subcommand, text, *flags):
    p = tmp_path / "instance.json"
    p.write_text(text)
    code = main([subcommand, "--input", str(p), *flags])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


@pytest.mark.parametrize("flags", [(), ("--degrees",)])
@pytest.mark.parametrize("field", sorted(_OVERFLOWING))
def test_an_integer_beyond_the_float_range_exits_3_like_1e400(tmp_path, capsys, field, flags):
    code, out, err = _main_on(tmp_path, capsys, "plane-compose", _OVERFLOWING[field], *flags)
    assert code == 3
    assert out["error"] == {"type": "ValidationError", "message": f"field {field!r} must be finite"}
    assert err.startswith("error:")
    as_float = _OVERFLOWING[field].replace(_BEYOND_FLOAT, "1e400")
    assert _main_on(tmp_path, capsys, "plane-compose", as_float, *flags)[:2] == (code, out)


_TWO_FAULTS = {
    "unexpected field, overflowing angle": (
        _plane_compose_text(alpha=_BEYOND_FLOAT)[:-1] + ', "junk": 1}',
        "unexpected fields for kind 'plane_compose': ['junk']",
    ),
    "missing field, NaN angle": (
        '{"kind": "plane_compose", "G": [0, 0], "alpha": NaN, "H": [1, 0]}',
        "missing fields for kind 'plane_compose': ['beta']",
    ),
}


@pytest.mark.parametrize("flags", [(), ("--degrees",)])
@pytest.mark.parametrize("name", sorted(_TWO_FAULTS))
def test_a_schema_fault_wins_over_a_bad_value_with_and_without_degrees(tmp_path, capsys, name,
                                                                       flags):
    text, message = _TWO_FAULTS[name]
    code, out, err = _main_on(tmp_path, capsys, "plane-compose", text, *flags)
    assert (code, out["error"]) == (2, {"type": "SchemaError", "message": message})
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flags", [(), ("--degrees",)])
def test_a_kind_mismatch_wins_over_a_non_finite_value(tmp_path, capsys, flags):
    text = _plane_compose_text(alpha="NaN")
    code, out, _ = _main_on(tmp_path, capsys, "sphere-compose", text, *flags)
    assert (code, out["error"]) == (2, {
        "type": "SchemaError",
        "message": "instance kind 'plane_compose' does not match subcommand 'sphere-compose' "
                   "(expected 'sphere_compose')",
    })


def _reflections(p=None, theta=0.5):
    return {"kind": "plane_reflections", "P": [1.0, 2.0] if p is None else p, "theta": theta}


def _segment_instance(kind, x, y, xp, yp):
    return {"kind": kind, "X": x, "Y": y, "Xp": xp, "Yp": yp}


_E1, _E2 = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
_BAD_INSTANCES = {
    # name: (instance, degrees, error type, message)
    "short array": (_reflections(p=[1.0]), False, SchemaError,
                    "field 'P' must be an array of 2 numbers"),
    "long array": (_reflections(p=[1.0, 2.0, 3.0]), False, SchemaError,
                   "field 'P' must be an array of 2 numbers"),
    "tuple for an array": (_reflections(p=(1.0, 2.0)), False, SchemaError,
                           "field 'P' must be an array of 2 numbers"),
    "sphere point of 2": ({"kind": "sphere_compose", "G": [0.0, 0.0], "alpha": 0.5,
                           "H": [0.0, 0.0, 1.0], "beta": 0.5}, False, SchemaError,
                          "field 'G' must be an array of 3 numbers"),
    "str coordinate": (_reflections(p=["1", 2.0]), False, SchemaError,
                       "field 'P[0]' must be a number"),
    "None coordinate": (_reflections(p=[1.0, None]), False, SchemaError,
                        "field 'P[1]' must be a number"),
    "bool coordinate": (_reflections(p=[True, 2.0]), False, SchemaError,
                        "field 'P[0]' must be a number"),
    "nested list coordinate": (_reflections(p=[[1.0], 2.0]), False, SchemaError,
                               "field 'P[0]' must be a number"),
    "a str after a huge coordinate": (_reflections(p=[1e151, "2"]), False, SchemaError,
                                      "field 'P[1]' must be a number"),
    "NaN X[1]": (
        _segment_instance("plane_recover", [0.0, math.nan], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]),
        False, ValidationError, "field 'X[1]' must be finite"),
    "first bad field wins": (
        _segment_instance("plane_recover", [0.0, 0.0], [1.0, math.inf], ["0"], [1.0, 0.0]),
        False, ValidationError, "field 'Y[1]' must be finite"),
    "1e400 coordinate": (_reflections(p=[1e400, 2.0]), False, ValidationError,
                         "field 'P[0]' must be finite"),
    "integer coordinate beyond the float range": (
        _reflections(p=[0.0, 10**400]), False, ValidationError, "field 'P[1]' must be finite"),
    "integer angle beyond the float range": (
        _reflections(theta=-(10**400)), False, ValidationError, "field 'theta' must be finite"),
    "str angle": (_reflections(theta="0.5"), False, SchemaError, "field 'theta' must be a number"),
    "bool angle": (_reflections(theta=False), False, SchemaError,
                   "field 'theta' must be a number"),
    "extra and missing fields": (
        {"kind": "plane_reflections", "P": [0.0, 2.0], "kind2": 2, "Q": 1}, False, SchemaError,
        "unexpected fields for kind 'plane_reflections': ['Q', 'kind2']"),
    "missing fields": ({"kind": "plane_compose", "H": [0.0, 0.0], "G": [0.0, 0.0]}, False,
                       SchemaError, "missing fields for kind 'plane_compose': ['alpha', 'beta']"),
    "plane coordinate beyond 1e150": (_reflections(p=[0.0, -2e150]), False, ValidationError,
                                      "field 'P': coordinates beyond 1e+150 are not accepted"),
    "non-unit sphere point": (
        _segment_instance("sphere_recover", _E1, [0.0, 1.0, 0.5], _E1, _E2), False, ValidationError,
        "field 'Y': |v| = 1.11803399 is not within 1e-06 of 1"),
    "coincident plane segment": (
        _segment_instance("plane_recover", [1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [1.0, 0.0]), False,
        ValidationError, "segment endpoints coincide"),
    "antipodal sphere segment": (
        _segment_instance("sphere_recover", _E1, _E2, _E2, [0.0, -1.0, 0.0]), False,
        ValidationError, "antipodal endpoints lie on infinitely many great circles"),
    "str angle in degrees": (_reflections(theta="0.5"), True, SchemaError,
                             "field 'theta' must be a number"),
    "bool angle in degrees": (_reflections(theta=True), True, SchemaError,
                              "field 'theta' must be a number"),
    "1e400 angle in degrees": (_reflections(theta=1e400), True, ValidationError,
                               "field 'theta' must be finite"),
    "integer angle in degrees beyond the float range": (
        _reflections(theta=10**400), True, ValidationError, "field 'theta' must be finite"),
    "not an object": ([1], False, SchemaError, "an instance must be a JSON object"),
    "no kind": ({"P": [0.0, 0.0]}, False, SchemaError, "missing field 'kind'"),
    "int kind": ({"kind": 3}, False, SchemaError, "unknown kind 3"),
}


@pytest.mark.parametrize("name", sorted(_BAD_INSTANCES))
def test_each_bad_instance_raises_its_exact_error(name):
    obj, degrees, error, message = _BAD_INSTANCES[name]
    with pytest.raises(_CATCHABLE) as info:
        instance_from_obj(obj, degrees=degrees)
    assert (type(info.value), str(info.value)) == (error, message)


def test_the_degrees_reader_converts_only_angles():
    inst = instance_from_obj(_reflections(p=[90, 1.5], theta=90), degrees=True)
    assert inst.payload == {"pivot": Vec2(90.0, 1.5), "theta": math.pi / 2}
    assert type(inst.payload["pivot"].x) is float


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", ["sphere_recover", "baseball"])
def test_a_half_turn_onto_the_antipode_solves_by_every_route(tmp_path, capsys, kind, method):
    # X goes to -X and neither point is fixed: X's bisector is its equator
    obj = dict(HALF_TURN_ONTO_ANTIPODE, kind=kind)
    code, out, err = _main_on(tmp_path, capsys, kind.replace("_", "-"), json.dumps(obj),
                              "--method", method)
    assert code == 0
    assert "disagree" not in err
    assert out["residual"] <= 1e-9
    results = [out["result"], out.get("result_geometric", out["result"])]
    for result in results:
        assert result["angle"] == pytest.approx(math.pi, abs=1e-9)
        assert abs(abs(Vec3(*result["axis"]).dot(Vec3(0.0, 0.6, 0.8))) - 1.0) <= 1e-9
    if method == "both":
        assert out["discrepancy"] <= 1e-9


@pytest.mark.parametrize("field", sorted(_OVERFLOWING))
def test_parse_instance_rejects_an_integer_beyond_the_float_range(field):
    with pytest.raises(ValidationError, match="must be finite"):
        parse_instance(_OVERFLOWING[field])


_UNDECODABLE = {
    "integer of 5000 digits": _plane_compose_text(alpha="1" * 5000),
    "200000 nested arrays": "[" * 200000,
}


@pytest.mark.parametrize("name", sorted(_UNDECODABLE))
def test_a_document_json_cannot_decode_exits_2(tmp_path, capsys, name):
    code, out, err = _main_on(tmp_path, capsys, "plane-compose", _UNDECODABLE[name])
    assert code == 2
    assert out["error"]["type"] == "ParseError"
    assert err.startswith("error: input is not valid JSON")
    with pytest.raises(ParseError):
        parse_instance(_UNDECODABLE[name])


def test_an_svg_path_in_a_missing_directory_exits_2(tmp_path, capsys):
    svg = tmp_path / "missing" / "figure.svg"
    code, out, err = _main_on(tmp_path, capsys, "plane-compose", json.dumps(P2_OBJ),
                              "--svg", str(svg))
    assert code == 2
    assert out["error"]["type"] == "FileNotFoundError"
    assert str(svg) in out["error"]["message"]
    assert err.startswith("error:")


def test_an_unwritable_svg_path_fails_only_its_batch_item(tmp_path, capsys):
    (tmp_path / "figure.1.svg").mkdir()  # item 1's figure path is a directory
    code, out, err = _main_on(tmp_path, capsys, "plane-compose", json.dumps([P2_OBJ] * 3),
                              "--svg", str(tmp_path / "figure.svg"))
    assert code == 2
    assert out[1]["error"]["type"] == "IsADirectoryError"
    assert out[0]["result"]["type"] == out[2]["result"]["type"] == "rotation"
    for i in (0, 2):
        ET.fromstring((tmp_path / f"figure.{i}.svg").read_bytes().decode())
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {out[1]['error']['message']}"
    ]


def test_collinear_plane_recover_honours_the_tolerance_by_both_routes(tmp_path, capsys):
    obj = {"kind": "plane_recover", "X": [1, 0], "Y": [2, 0], "Xp": [-1, 0], "Yp": [-2 - 3e-9, 0]}
    code, out, _ = _main_on(tmp_path, capsys, "plane-recover", json.dumps(obj),
                            "--tolerance", "1e-5")
    assert code == 0
    for result in (out["result"], out["result_geometric"]):
        assert result["type"] == "rotation"
        assert result["angle"] == pytest.approx(math.pi)


def _far_pivots(x: float) -> dict:
    return {"kind": "plane_compose", "G": [x, 0.0], "alpha": 1.0, "H": [0.0, x], "beta": 0.5}


@pytest.mark.parametrize("method", ["geometric", "both"])
@pytest.mark.parametrize("x", [1e6, 1e8, 1e13])
def test_plane_compose_with_far_pivots_solves_by_every_route(tmp_path, capsys, x, method):
    text = json.dumps(_far_pivots(x))
    assert _main_on(tmp_path, capsys, "plane-compose", text, "--method", method)[0] == 0
    inst = instance_from_obj(_far_pivots(x))
    want = run(inst, method="algebraic").result
    got = run(inst, method=method).to_dict()
    got = got.get("result_geometric", got["result"])
    assert got["angle"] == pytest.approx(want["angle"], abs=1e-12)
    assert max(abs(a - b) for a, b in zip(got["pivot"], want["pivot"])) <= 1e-15 * x


def test_plane_compose_with_pivots_1e6_away_agrees_within_the_tolerance(tmp_path, capsys):
    # from 1e8 the routes still differ by more than the absolute 1e-9 in the
    # last bits of coordinates that large, and "both" warns
    code, _, err = _main_on(tmp_path, capsys, "plane-compose", json.dumps(_far_pivots(1e6)))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("method", ["algebraic", "geometric", "both"])
def test_plane_compose_angles_summing_past_the_float_range_solve(tmp_path, capsys, method):
    text = '{"kind": "plane_compose", "G": [0, 0], "alpha": 1e308, "H": [1, 0], "beta": 1e308}'
    code, out, err = _main_on(tmp_path, capsys, "plane-compose", text, "--method", method)
    assert (code, err) == (0, "")
    assert out["result"]["type"] == "rotation"


def test_same_axis_sphere_compose_turns_by_the_angle_sum():
    g, alpha, beta = [0.0, 0.6, 0.8], 1.2, -1.2 + 1e-3
    inst = instance_from_obj({"kind": "sphere_compose", "G": g, "alpha": alpha, "H": g, "beta": beta})
    result = run(inst, method="geometric").result
    assert result["angle"] == pytest.approx(alpha + beta, abs=1e-16)
    assert max(abs(a - b) for a, b in zip(result["axis"], g)) <= 1e-12


# ---------------------------------------------------------------------------
# the output writer against json.dumps


def _round_floats(obj):
    """The writer's oracle: floats rounded to 10 significant digits, then
    handed to json.dumps(indent=2)."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    return obj


def _oracle(obj) -> str:
    return json.dumps(_round_floats(obj), indent=2)


def _seeded_payloads(method: str):
    """Per kind, the payloads main() prints for the 6000 seeded instances of
    the full-precision gate, solved by `method`, in radians and in degrees."""
    rng = random.Random(2718)
    for kind, make in RANDOM.items():
        radians, degrees = [], []
        for _ in range(1000):
            try:
                record = run(instance_from_obj(make(rng)), method=method).to_dict()
            except (ValidationError, GeometryError, InternalCheckError) as exc:
                radians.append(_error_payload(exc))
                degrees.append(_error_payload(exc))
                continue
            radians.append(record)
            degrees.append(_to_degrees_record(record))
        yield kind, radians, degrees


@pytest.mark.parametrize("method", METHODS)
def test_writer_matches_json_dumps_on_seeded_instances(method):
    for kind, *payloads in _seeded_payloads(method):
        for batch in payloads:
            for payload in batch:
                assert _write(payload) == _oracle(payload), (kind, payload)
            # main's batch layout: items written one step in, then joined
            assert _block([_write(p, "\n  ") for p in batch], "\n", "[]") == _oracle(batch)


_FLOAT_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, 1.7976931348623157e308,
    math.nan, -math.nan, math.inf, -math.inf,
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 9.9999999995e-5, 9.99999999949e-5,
    1e10, math.nextafter(1e10, 0.0), 9999999999.5, 9999999999.49, 1e16, 123456789012.0,
    1.0, 0.1, 0.5, 1 / 3, 2 / 3, 1e-7, 1.2246467991473532e-16, math.pi, math.tau,
]


def test_writer_matches_json_dumps_on_float_edges():
    for x in _FLOAT_EDGES:
        for v in (x, -x):
            assert _write(v) == _oracle(v), v


class _Str(str):
    pass


def test_writer_matches_json_dumps_on_edge_types():
    np = pytest.importorskip("numpy")
    values = [
        np.float64(0.1), np.float64(1 / 3), np.float64(1e-7), np.float64(-0.0),
        True, False, None, 0, -7, 10**20,
        OrderedDict([("b", 1 / 3), ("a", [True, None, np.float64(2 / 3)])]),
        _Str("sé\n"), {_Str("k"): _Str("v")}, [_Str("a"), 0.5],
        [[], {}, [[]], {"": {}}, [{}], {"a": []}],
    ]
    for v in values:
        assert _write(v) == _oracle(v), v
        assert _write([v, {"v": v}], "\n  ") == _oracle([v, {"v": v}]).replace("\n", "\n  ")


@given(st.one_of(
    st.floats(),
    st.floats(min_value=1e-5, max_value=1e-3),
    st.floats(min_value=1e9, max_value=1e11),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.floats(min_value=1e307),
).flatmap(lambda x: st.sampled_from([x, -x])))
def test_writer_matches_json_dumps_on_floats(x):
    assert _write(x) == _oracle(x)
    assert _write([x, {"x": x}]) == _oracle([x, {"x": x}])


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(_JSON_TREES)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}])
@example({'"q"\n\u00e9\u2603\U0001f600': ["\x00\x1f\\", '"', "\u2028"], "\t": [0.1, None, True]})
def test_writer_matches_json_dumps_on_nested_values(tree):
    assert _write(tree) == _oracle(tree)
    assert _write(tree, "\n    ") == _oracle(tree).replace("\n", "\n    ")


# ---------------------------------------------------------------------------
# the CLI's document layout


def test_an_empty_batch_prints_an_empty_array(tmp_path, capsys):
    p = tmp_path / "batch.json"
    p.write_text("[]")
    assert main(["plane-compose", "--input", str(p)]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_a_batch_whose_items_all_fail_prints_their_errors(tmp_path, capsys):
    items = [{"kind": "plane_compose", "G": [0, 0]}, 3, dict(P2_OBJ, alpha=1e400)]
    p = tmp_path / "batch.json"
    p.write_text(json.dumps(items))
    code = main(["plane-compose", "--input", str(p)])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 2
    assert [item["error"]["type"] for item in out] == ["SchemaError", "SchemaError", "ValidationError"]
    assert captured.out == json.dumps(out, indent=2) + "\n"
    assert len(captured.err.splitlines()) == 3


@pytest.mark.parametrize("degrees", [False, True])
def test_a_batch_of_one_is_the_single_answer_in_an_array(tmp_path, capsys, degrees):
    flags = ["--degrees"] if degrees else []
    outs = []
    for doc in (S2_OBJ, [S2_OBJ]):
        p = tmp_path / "instance.json"
        p.write_text(json.dumps(doc))
        assert main(["sphere-compose", "--input", str(p), *flags]) == 0
        outs.append(capsys.readouterr().out)
    single, batch = outs
    body = "\n".join("  " + line for line in single.rstrip("\n").split("\n"))
    assert batch == f"[\n{body}\n]\n"


def test_geometric_sphere_compose_runs_no_algebraic_route(monkeypatch):
    refuse_algebraic_routes(monkeypatch)
    result = run(instance_from_obj(S2_OBJ), method="geometric").result
    a, b = result["complex_pair"]
    assert a == pytest.approx(math.cos(result["angle"]), abs=1e-15)
    assert b == pytest.approx(math.sin(result["angle"]), abs=1e-15)


def test_geometric_sphere_compose_takes_its_complex_pair_from_its_own_angle():
    # two quarter turns about one axis: the matrix product's trace puts
    # 1.5e-8 into b, which the geometric answer (angle pi) must not report
    g = [-0.10035013191106842, 0.3006758566800328, 0.9484323277045966]
    obj = {"kind": "sphere_compose", "G": g, "alpha": math.pi / 2, "H": g, "beta": math.pi / 2}
    result = run(instance_from_obj(obj), method="geometric").result
    assert result["angle"] == math.pi
    assert result["complex_pair"] == [-1.0, 0.0]


def _same_axis_quarter_turns():
    """The half-turn composites of a seeded axis sweep: two quarter turns
    about one Gaussian random axis each, the first axis the one found first."""
    yield [-0.10035013191106842, 0.3006758566800328, 0.9484323277045966]
    rng = random.Random(3)
    for _ in range(1000):
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        yield [c / n for c in v]


@pytest.mark.parametrize("method", ["algebraic", "both"])
def test_a_composite_half_turn_solves_algebraically(method):
    # (trace - 1)/2 can land one ulp above -1, where acos reads pi - 1.5e-8
    for g in _same_axis_quarter_turns():
        obj = {"kind": "sphere_compose", "G": g, "alpha": math.pi / 2, "H": g, "beta": math.pi / 2}
        record = run(instance_from_obj(obj), method=method)
        assert abs(record.result["angle"] - math.pi) <= 1e-9, g
        assert record.residual <= 1e-9, g
        assert record.diagnostics == [], g


@pytest.mark.parametrize("t", [2e-9, 5e-9, 1e-7])
def test_a_composite_small_turn_solves_algebraically(t):
    # a = 1 exactly below about 1e-8, where acos reads 0 against a skew part of t
    g = [0.0, 0.6, 0.8]
    obj = {"kind": "sphere_compose", "G": g, "alpha": t, "H": g, "beta": 0.0}
    record = run(instance_from_obj(obj), method="both")
    assert record.result["angle"] == pytest.approx(t, rel=1e-9)
    assert record.residual <= 1e-9
    assert record.diagnostics == []


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "turn",
    [1e-3, 1e-5, 1e-7, 3e-8, 1e-8, 3e-9,
     math.pi - 1e-6, math.pi - 1e-8, math.pi - 1e-9, math.pi],
)
def test_sphere_compose_complex_pair_is_cos_and_sin_of_its_angle(turn, method):
    # sqrt(1 - a^2) read 0.0 for a 1e-8 turn and 1.5e-8 for a half turn;
    # 2**-52 allows for sin(pi) = 1.2e-16, pi's own rounding error
    g = [-0.10035013191106842, 0.3006758566800328, 0.9484323277045966]
    obj = {"kind": "sphere_compose", "G": g, "alpha": turn / 2, "H": g, "beta": turn / 2}
    result = run(instance_from_obj(obj), method=method).result
    t = result["angle"]
    a, b = result["complex_pair"]
    assert a == math.cos(t)
    assert abs(b - math.sin(t)) <= 1e-12 * math.sin(t) + 2.0**-52


@pytest.mark.parametrize("method", METHODS)
def test_cancelled_angle_note_comes_with_a_non_rotation(method):
    # alpha + beta within 1e-14 relative of +-ANGLE_MIN, where the routes
    # decide rotation or translation each from its own angle
    rng = random.Random(11)
    for _ in range(4000):
        g = [rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]
        h = [rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]
        alpha = rng.uniform(-math.pi, math.pi)
        total = rng.choice((-1.0, 1.0)) * ANGLE_MIN * (1.0 + rng.uniform(-1e-14, 1e-14))
        obj = {"kind": "plane_compose", "G": g, "alpha": alpha, "H": h, "beta": total - alpha}
        record = run(instance_from_obj(obj), method=method)
        noted = any("angle sum is 0 mod 2pi" in d for d in record.diagnostics)
        assert noted == (record.result["type"] != "rotation"), obj


# Vec2, Vec3 and Mat2 values built by one run() on the first instance of
# each plane kind's corpus case: the float kernels build no intermediates
_CONSTRUCTIONS = {
    "plane_compose": {"Vec2": 23, "Mat2": 2},
    "plane_recover": {"Vec2": 20, "Mat2": 3},
    "plane_reflections": {"Vec2": 14, "Mat2": 1},
}


def _corpus_instances(kind):
    case = Path(__file__).resolve().parent / "golden" / "cases" / f"{kind}_both" / "input.json"
    return [instance_from_obj(obj) for obj in json.loads(case.read_text(encoding="utf-8"))]


def _counting(monkeypatch, classes) -> Counter:
    """Count the values of each class built from now on, by class name."""
    counts = Counter()
    for cls in classes:
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


@pytest.mark.parametrize("kind", sorted(_CONSTRUCTIONS))
def test_a_plane_run_builds_few_vectors(monkeypatch, kind):
    inst = _corpus_instances(kind)[0]
    counts = _counting(monkeypatch, (Vec2, Vec3, Mat2))
    run(inst, method="both")
    for name in ("Vec2", "Vec3", "Mat2"):
        assert counts[name] <= _CONSTRUCTIONS[kind].get(name, 0), (name, dict(counts))


# UnitVector3, Vec3 and Mat3 values built by one run() on any instance of
# each sphere kind's corpus case: the answers (an axis, and its negation
# where Rotation3 folds the angle), sphere_compose's three matrices and
# eigenvector, and its expected probe images; the solves, residual and
# discrepancy compute on floats
_SPHERE_CONSTRUCTIONS = {
    "baseball": {"UnitVector3": 4},
    "sphere_compose": {"UnitVector3": 7, "Vec3": 1, "Mat3": 3},
    "sphere_recover": {"UnitVector3": 2},
}


@pytest.mark.parametrize("kind", sorted(_SPHERE_CONSTRUCTIONS))
def test_a_sphere_run_builds_few_vectors(monkeypatch, kind):
    instances = _corpus_instances(kind)
    counts = _counting(monkeypatch, (UnitVector3, Vec3, Mat3))
    for inst in instances:
        counts.clear()
        run(inst, method="both")
        for name in ("UnitVector3", "Vec3", "Mat3"):
            assert counts[name] <= _SPHERE_CONSTRUCTIONS[kind].get(name, 0), (name, dict(counts))


def test_a_geometric_sphere_compose_builds_no_matrix(monkeypatch):
    instances = _corpus_instances("sphere_compose")
    refuse_algebraic_routes(monkeypatch)
    counts = _counting(monkeypatch, (Mat3,))
    for inst in instances:
        assert run(inst, method="geometric").result["type"] == "rotation"
    assert counts["Mat3"] == 0


# ---------------------------------------------------------------------------
# hostile inputs: every instance gets an answer or an error of the contract

# nearly parallel bisectors put the geometric pivot about 7e158 away, too far
# for floats to read the angle at it; the algebraic route answers
_FAR_PIVOT = {
    "kind": "plane_recover", "X": [7.644093100308962e+149, 1e+150],
    "Y": [-1.9632816781237744e+149, -338923.1136305022],
    "Xp": [2.0881373936567181e+148, 9.597939461793449e+149],
    "Yp": [-9.398561029067065e+149, -4.020605478139271e+148],
}
_PLANE_SCALES = (1e-9, 1.0, 1e6, 1e75, 1e150, 1.5e150)


def _hostile_angle(rng, turn):
    """An angle for a full turn of `turn`: zero, a half turn, huge, tiny or plain."""
    return rng.choice([0.0, -0.0, turn / 2, -turn / 2, turn, 1e300, -1e300, 5e-324,
                       rng.uniform(-1e-9, 1e-9) * turn, rng.uniform(-turn, turn)])


def _hostile_sphere_point(rng, near):
    """A random unit vector, or one within 1e-6 to 1e-12 of `near` or of its antipode."""
    e, sign = rng.choice([1e-6, 1e-9, 1e-12]), rng.choice([1.0, -1.0])
    return rng.choice([_unit3(rng), _unit([sign * c + rng.uniform(-e, e) for c in near])])


def _hostile_instance(rng, kind, degrees):
    turn = 360.0 if degrees else 2 * math.pi
    scale = rng.choice(_PLANE_SCALES)

    def plane_point(rng):
        return [rng.uniform(-scale, scale), rng.uniform(-scale, scale)]

    if kind == "plane_recover":
        # a turn about a pivot, then a translation: a tiny turn about a near
        # pivot with a far translation is a tiny turn about a far pivot
        x, y, pivot, d = (plane_point(rng) for _ in range(4))
        d = rng.choice([d, [0.0, 0.0]])
        t = rng.choice([_hostile_angle(rng, 2 * math.pi), rng.uniform(1e-9, 1e-8)])
        xp, yp = ([a + b for a, b in zip(_rot2(p, pivot, t), d)] for p in (x, y))
        return {"kind": kind, "X": x, "Y": y, "Xp": xp, "Yp": yp}
    if kind in ("plane_compose", "sphere_compose"):
        point = plane_point if kind == "plane_compose" else _unit3
        g, alpha = point(rng), _hostile_angle(rng, turn)
        h = rng.choice([point(rng), g])
        if kind == "sphere_compose":
            h = rng.choice([h, _hostile_sphere_point(rng, g)])
        # a sum that cancels, or nearly, to zero or a whole turn
        beta = rng.choice([_hostile_angle(rng, turn), rng.choice([0.0, turn]) - alpha,
                           -alpha + rng.choice([1e-12, -1e-10, 5e-324]) * turn])
        return {"kind": kind, "G": g, "alpha": alpha, "H": h, "beta": beta}
    if kind == "plane_reflections":
        return {"kind": kind, "P": plane_point(rng), "theta": _hostile_angle(rng, turn)}
    x = _unit3(rng)
    y = _hostile_sphere_point(rng, x)
    axis = rng.choice([_unit3(rng), x, y])
    t = _hostile_angle(rng, 2 * math.pi)
    return {"kind": kind, "X": x, "Y": y, "Xp": _rot3(x, axis, t), "Yp": _rot3(y, axis, t)}


def _hostile_instances(seed, per_kind):
    """The far-pivot instance, then `per_kind` seeded instances of each kind,
    a quarter of them in degrees, each with its `degrees` flag."""
    rng = random.Random(seed)
    yield _FAR_PIVOT, False
    for kind in RANDOM:
        for _ in range(per_kind):
            degrees = rng.random() < 0.25
            yield _hostile_instance(rng, kind, degrees), degrees


def test_hostile_instances_get_an_answer_or_a_documented_error():
    escaped = []
    for obj, degrees in _hostile_instances(1515, 400):
        for method in METHODS:
            try:
                run(instance_from_obj(obj, degrees=degrees), method=method)
            except _CATCHABLE:
                pass
            except Exception as exc:  # outside the exit-code table: a traceback and exit 1
                escaped.append((obj, degrees, method, repr(exc)))
    assert escaped == []


@pytest.mark.parametrize("method, code", [("algebraic", 0), ("geometric", 4), ("both", 4)])
def test_a_geometric_pivot_too_far_for_floats_exits_4(tmp_path, capsys, method, code):
    got, out, _ = _main_on(tmp_path, capsys, "plane-recover", json.dumps(_FAR_PIVOT),
                           "--method", method)
    assert got == code
    if code:
        assert out["error"]["type"] == "ParallelBisectors"
        assert "too far away" in out["error"]["message"]


@pytest.mark.parametrize("svg", ["/", ".", "{tmp}/..", ""])
def test_a_batch_svg_path_that_names_no_file_fails_each_item(tmp_path, capsys, svg):
    code, out, err = _main_on(tmp_path, capsys, "plane-compose", json.dumps([P2_OBJ] * 2),
                              "--svg", svg.format(tmp=tmp_path))
    assert code == 2
    assert [o["error"]["type"] for o in out] == ["IsADirectoryError"] * 2
    assert err.count("error:") == 2


@pytest.mark.parametrize("svg", [".", ""])
def test_a_single_svg_path_that_names_no_file_exits_2(tmp_path, capsys, monkeypatch, svg):
    monkeypatch.chdir(tmp_path)  # "" is the working directory, as "." is
    code, out, err = _main_on(tmp_path, capsys, "plane-compose", json.dumps(P2_OBJ), "--svg", svg)
    assert code == 2
    assert out["error"]["type"] == "IsADirectoryError"
    assert err.startswith("error:")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["instance.json"]


def test_a_reader_that_closes_stdout_early_gets_exit_2_and_no_traceback(tmp_path):
    p = tmp_path / "batch.json"
    p.write_text(json.dumps([{"kind": "plane_reflections", "P": [0.1 * i, 1.0], "theta": 0.3}
                             for i in range(3000)]))
    env = {**os.environ, "PYTHONPATH": str(Path(isometry_lab.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-m", "isometry_lab", "plane-reflections",
                           "--input", str(p)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()  # as `| head -1` does; the ~1.5 MB answer cannot fit in the pipe
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert err == "error: [Errno 32] Broken pipe\n"  # no traceback, nothing at shutdown

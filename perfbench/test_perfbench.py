"""Tests of the benchmark itself: seeded inputs, the reference checker, the
end-to-end and traced runs, and the refusal outside a source checkout.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import generate, reference, run as bench

if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))

from isometry_lab import cli  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload, keep scratch files out of the checkout, and
    yield a launcher for the runs."""
    for name, w in list(bench.WORKLOADS.items()):
        monkeypatch.setitem(bench.WORKLOADS, name,
                            dataclasses.replace(w, counts=dict.fromkeys(w.counts, 20)))
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(bench, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    launcher = bench.Launcher(bench._child_env())
    yield launcher
    launcher.close()


def test_same_seed_gives_same_inputs():
    for w in generate.WORKLOADS.values():
        first = generate.workload_instances(w, 11)
        assert json.dumps(first) == json.dumps(generate.workload_instances(w, 11))
        assert first != generate.workload_instances(w, 12)


def test_edge_share_is_fixed():
    insts = generate.instances("plane_compose", 200, 5)
    cancelled = [i for i in insts if i["alpha"] + i["beta"] == 0.0]
    assert len(cancelled) == 200 // generate.EDGE_EVERY
    fixed = [i for i in generate.instances("baseball", 200, 5) if i["X"] == i["Xp"]]
    assert len(fixed) == 200 // generate.EDGE_EVERY


def _answers(kind: str):
    for inst in generate.instances(kind, 40, 3):
        yield inst, cli.run(cli.instance_from_obj(inst)).to_dict()


@pytest.mark.parametrize("kind", list(generate.SUBCOMMANDS))
def test_checker_accepts_the_program_answers(kind):
    for inst, record in _answers(kind):
        assert reference.check_record(inst, record) is None


def _shift_pivot(iso):
    iso["pivot"][0] += 1e-3


def _flip_axis(iso):
    iso["axis"] = [-c for c in iso["axis"]]


def _turn_second_mirror(res):
    d = res["lines"][1]["direction"]
    c, s = math.cos(1e-3), math.sin(1e-3)
    res["lines"][1]["direction"] = [c * d[0] - s * d[1], s * d[0] + c * d[1]]


def _move_fixed_point(res):
    res["fixed_points"][0][2] += 1e-3


CORRUPTIONS = {
    "plane_recover": (_shift_pivot,),
    "plane_compose": (_shift_pivot,),
    "plane_reflections": (_turn_second_mirror,),
    "sphere_recover": (_flip_axis,),
    "sphere_compose": (_flip_axis,),
    "baseball": (_flip_axis, _move_fixed_point),
}


@pytest.mark.parametrize("kind", list(generate.SUBCOMMANDS))
def test_checker_flags_corrupted_answers(kind):
    inst, record = next((i, r) for i, r in _answers(kind) if r["result"]["type"] != "identity"
                        and r["result"].get("type") != "translation")
    for corrupt in CORRUPTIONS[kind]:
        for section in ("result", "result_geometric"):
            if section not in record or (corrupt is _move_fixed_point and section != "result"):
                continue
            bad = copy.deepcopy(record)
            corrupt(bad[section])
            assert reference.check_record(inst, bad), (corrupt.__name__, section)


def test_checker_flags_failed_batches():
    insts = generate.instances("plane_recover", 3, 1)
    out = json.dumps([cli.run(cli.instance_from_obj(i)).to_dict() for i in insts]).encode()
    assert reference.check_batch(insts, 0, out) == [None] * 3
    assert all(reference.check_batch(insts, 4, out))
    assert all(reference.check_batch(insts + insts[:1], 0, out))


def test_end_to_end_run_reports_every_metric(small):
    r = bench.Run("svg-mixed", 2, 0.01, small)
    metrics = r.end_to_end()
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert r.failed == 0 and r.attempted > 0
    assert all(d["svg_sha256"] for d in r.info["digests"].values())
    assert r.info["samples"]["iterations"] == bench.MIN_ITERATIONS


def test_peak_rss_is_the_cli_childs_own(small):
    """A child's ru_maxrss counts its spawner's peak at exec; spawned by the
    launcher, the CLI child must report more than the launcher holds."""
    r = bench.Run("plane-batch", 3, 0.01, small)
    r.end_to_end()
    rss = r.info["rss_kb"]
    assert rss["cli_child_peak"] > rss["launcher_peak"] > 0


def test_steps_are_scaled_by_the_calibrations(monkeypatch):
    times = iter([0.02, 0.04])
    monkeypatch.setattr(bench, "_calibrate", lambda: next(times))
    clock = bench.Clock()
    clock.start()
    assert clock.factor() == pytest.approx(bench.REF_CAL_S / 0.03)


def test_traced_run_reports_every_layer(small):
    layers = {}
    for name in bench.WORKLOADS:
        r = bench.Run(name, 1, 0.01, small)
        layers[name] = {k: v for k, (v, _) in r.per_layer().items()}
        assert r.failed == 0 and r.attempted > 0
        assert set(layers[name]) == {m["name"] for m in SPEC["per_layer"]}
    plane, sphere = layers["plane-batch"], layers["sphere-batch"]
    assert all(v == 0 for k, v in sphere.items() if k.startswith("planar.") and k.endswith("calls"))
    assert all(v == 0 for k, v in plane.items() if k.startswith("spherical.") and k.endswith("calls"))
    assert plane["planar.apply_planar.calls"] > 0 and sphere["spherical.apply_sphere.calls"] > 0
    assert plane["figures.used_ratio"] == sphere["figures.used_ratio"] == 0
    assert layers["svg-mixed"]["figures.used_ratio"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plane-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import isometry_lab.cli as cli
from isometry_lab import (
    Line2, Rotation2, Rotation3, Segment2, UnitVector3, Vec2, Vec3, recover_pivot_geometric,
    reflections_for_rotation,
)
from isometry_lab.figures import (
    ArcElement,
    FigureSpec,
    GreatCircleElement,
    LineElement,
    Marker,
    SegmentElement,
    _geodesic_samples,
    _polyline,
    planar_recovery_figure,
    reflection_pair_figure,
    render_svg,
    sphere_recovery_figure,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _root(data: bytes) -> ET.Element:
    return ET.fromstring(data.decode("utf-8"))


def _all(root, tag):
    return root.findall(f".//{SVG_NS}{tag}")


class TestRenderSvg:
    def test_empty_scene_is_valid_minimal_svg(self):
        data = render_svg(FigureSpec("planar", ()))
        root = _root(data)
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("width") == "480"

    def test_deterministic_bytes(self):
        spec = FigureSpec(
            "planar",
            (
                Marker(Vec2(0, 0), "A"),
                SegmentElement(Vec2(0, 0), Vec2(1, 1)),
                LineElement(Line2(Vec2(0, 0), Vec2(1, 0))),
            ),
        )
        assert render_svg(spec) == render_svg(spec)

    def test_planar_elements_rendered(self):
        spec = FigureSpec(
            "planar",
            (
                Marker(Vec2(0, 0), "A"),
                Marker(Vec2(1, 0), "B", style="pivot"),
                SegmentElement(Vec2(0, 0), Vec2(1, 0)),
                LineElement(Line2(Vec2(0.5, 0), Vec2(0, 1))),
            ),
        )
        root = _root(render_svg(spec))
        texts = [t.text for t in _all(root, "text")]
        assert "A" in texts and "B" in texts
        assert len(_all(root, "line")) == 2  # segment + clipped line
        assert len(_all(root, "path")) == 1  # pivot crosshair

    def test_line_outside_window_is_clipped_away(self):
        spec = FigureSpec(
            "planar",
            (
                SegmentElement(Vec2(0, 0), Vec2(1, 0)),
                LineElement(Line2(Vec2(0, 50.0), Vec2(1, 0))),
            ),
        )
        root = _root(render_svg(spec))
        assert len(_all(root, "line")) == 1

    def test_a_line_clipped_just_past_the_window_edge_prints_zero(self):
        # the half turn's first mirror line ends 2.8e-14 px left of the window
        rot = Rotation2(Vec2(1.0, -2.0), math.pi)
        svg = render_svg(reflection_pair_figure(rot, *reflections_for_rotation(rot)))
        assert b'<line class="line" x1="0.00" y1="240.00"' in svg
        assert b"-0.00" not in svg

    def test_a_polyline_prints_zero_for_a_value_that_rounds_to_it(self):
        line = _polyline([-1e-14, -0.004, -0.005001, -10.0], "", "c")
        assert 'points="0.00,0.00 -0.01,-10.00"' in line

    def test_segment_coordinates_map_linearly(self):
        spec = FigureSpec("planar", (SegmentElement(Vec2(-1, 0), Vec2(1, 0)),))
        root = _root(render_svg(spec))
        (line,) = _all(root, "line")
        x1, x2 = float(line.get("x1")), float(line.get("x2"))
        y1, y2 = float(line.get("y1")), float(line.get("y2"))
        assert math.isclose((x1 + x2) / 2, 240.0, abs_tol=0.5)
        assert y1 == y2

    def test_rejects_mixed_projection_elements(self):
        with pytest.raises(ValueError):
            FigureSpec("planar", (GreatCircleElement(Vec3(0, 0, 1)),))
        with pytest.raises(ValueError):
            FigureSpec(
                "orthographic_sphere",
                (LineElement(Line2(Vec2(0, 0), Vec2(1, 0))),),
            )

    def test_a_sphere_figure_refuses_a_plane_point(self):
        # it used to fail only when drawn, on the missing z
        with pytest.raises(ValueError, match="Marker needs Vec3 points"):
            FigureSpec("orthographic_sphere", (Marker(Vec2(0.0, 0.0)),))
        with pytest.raises(ValueError, match="SegmentElement needs Vec3 points"):
            FigureSpec("orthographic_sphere", (SegmentElement(Vec3(1, 0, 0), Vec2(0, 1)),))

    def test_a_planar_figure_refuses_a_sphere_point(self):
        # it used to be drawn with its z dropped
        with pytest.raises(ValueError, match="Marker needs Vec2 points"):
            FigureSpec("planar", (Marker(Vec3(0.0, 0.0, 1.0)),))
        with pytest.raises(ValueError, match="ArcElement needs Vec2 points"):
            FigureSpec("planar", (ArcElement(UnitVector3(0, 0, 1), 1.0, 0.0, 1.0),))

    def test_rejects_a_value_that_is_no_element(self):
        with pytest.raises(ValueError, match="not a figure element"):
            FigureSpec("planar", (Vec2(0.0, 0.0),))

    def test_rejects_empty_viewport(self):
        with pytest.raises(ValueError):
            FigureSpec("planar", (), width=0)

    def test_rejects_an_unknown_projection(self):
        with pytest.raises(ValueError, match="unknown projection 'stereographic'"):
            FigureSpec("stereographic", ())

    def test_a_marker_refuses_an_unknown_style(self):
        with pytest.raises(ValueError, match="Marker style 'bogus'"):
            Marker(Vec2(0, 0), "X", style="bogus")
        with pytest.raises(ValueError, match="Marker style 'solid'"):
            Marker(Vec2(0, 0), "X", style="solid")  # a stroke, not a marker style

    def test_a_segment_refuses_an_unknown_style(self):
        with pytest.raises(ValueError, match="SegmentElement style 'bogus'"):
            SegmentElement(Vec2(0, 0), Vec2(1, 0), style="bogus")
        with pytest.raises(ValueError, match="SegmentElement style 'bogus'"):
            SegmentElement(Vec3(1, 0, 0), Vec3(0, 1, 0), style="bogus")

    def test_a_line_refuses_an_unknown_style(self):
        with pytest.raises(ValueError, match="LineElement style 'pivot'"):
            LineElement(Line2(Vec2(0, 0), Vec2(1, 0)), style="pivot")

    def test_a_sphere_segment_is_drawn_the_same_in_every_style(self):
        a, b = UnitVector3(0.6, 0.0, 0.8), UnitVector3(0.0, 0.6, -0.8)
        drawn = {render_svg(FigureSpec("orthographic_sphere", (SegmentElement(a, b, style),)))
                 for style in ("solid", "dashed", "faint")}
        assert len(drawn) == 1

    def test_sphere_scene_has_outline_and_split_circle(self):
        # a great circle tilted against the view spans both hemispheres, so
        # rendering splits it into solid (front) and dashed (back) runs
        spec = FigureSpec(
            "orthographic_sphere",
            (GreatCircleElement(Vec3(1, 0, 0)), Marker(UnitVector3(0, 0, -1), "B")),
        )
        root = _root(render_svg(spec))
        assert len(_all(root, "circle")) >= 2  # outline + marker
        polys = _all(root, "polyline")
        assert len(polys) >= 2
        dashes = {p.get("stroke-dasharray") for p in polys}
        assert None in dashes and "6 4" in dashes

    def test_hidden_marker_is_dashed_and_hollow(self):
        spec = FigureSpec(
            "orthographic_sphere", (Marker(UnitVector3(0, 0, -1), "B"),)
        )
        root = _root(render_svg(spec))
        markers = [c for c in _all(root, "circle") if c.get("class") == "point"]
        assert markers[0].get("fill") == "none"
        assert markers[0].get("stroke-dasharray") == "6 4"


class TestFigureBuilders:
    def test_planar_recovery_figure_rotation(self):
        src = Segment2(Vec2(1, 0), Vec2(2, 0))
        dst = Segment2(Vec2(0, 1), Vec2(0, 2))
        fig = planar_recovery_figure(src, dst, Rotation2(Vec2(0, 0), math.pi / 2))
        assert fig.projection == "planar"
        kinds = [type(el).__name__ for el in fig.elements]
        assert kinds.count("SegmentElement") == 2
        assert kinds.count("LineElement") == 2
        assert kinds.count("Marker") == 5  # four endpoints + pivot
        render_svg(fig)

    def test_planar_recovery_figure_draws_no_bisector_for_a_fixed_endpoint(self):
        # X moves 1e-9: past 1e-12, but within the cut scaled to |X| = 1e6
        src = Segment2(Vec2(1e6, 0), Vec2(1e6 + 1, 0))
        dst = Segment2(Vec2(1e6, 1e-9), Vec2(1e6, 1))
        assert recover_pivot_geometric(src, dst) == src.a
        fig = planar_recovery_figure(src, dst, Rotation2(src.a, math.pi / 2))
        assert [type(el) for el in fig.elements].count(LineElement) == 1

    def test_reflection_pair_figure(self):
        rot = Rotation2(Vec2(2, 5), math.pi / 2)
        first, second = reflections_for_rotation(rot)
        fig = reflection_pair_figure(rot, first, second)
        root = _root(render_svg(fig))
        assert len(_all(root, "line")) == 2
        assert len(_all(root, "path")) >= 2  # arc + pivot crosshair

    def test_sphere_recovery_figure(self):
        rot = Rotation3(UnitVector3(0, 0, 1), math.pi / 2)
        from isometry_lab import apply_sphere

        x = UnitVector3(1, 0, 0)
        y = UnitVector3(0.6, 0.8, 0.0)
        fig = sphere_recovery_figure(x, apply_sphere(rot, x), y, apply_sphere(rot, y), rot)
        assert fig.projection == "orthographic_sphere"
        root = _root(render_svg(fig))
        texts = {t.text for t in _all(root, "text")}
        assert {"X", "X'", "Y", "Y'", "P", "P'"} <= texts
        assert len(_all(root, "polyline")) >= 3  # two arcs + circles

    def test_sphere_recovery_figure_leaves_out_an_antipodal_pair(self):
        # X goes to -X: its bisector is X's equator, but no unique arc joins them
        from isometry_lab import apply_sphere

        rot = Rotation3(UnitVector3(0.0, 0.6, 0.8), math.pi)
        x, y = UnitVector3(1, 0, 0), UnitVector3(0, 0, 1)
        yp = apply_sphere(rot, y)
        fig = sphere_recovery_figure(x, apply_sphere(rot, x), y, yp, rot)
        circles = [e.label for e in fig.elements if isinstance(e, GreatCircleElement)]
        arcs = [(e.a, e.b) for e in fig.elements if isinstance(e, SegmentElement)]
        assert (circles, arcs) == (["lY"], [(y, yp)])


# Sphere elements that no figure builder emits, so the golden corpus never
# draws them. The digests pin the bytes the Vec3 samplers drew.
_SHORT = (Vec3(0.6, 0.0, -0.8), Vec3(0.6, 1e-10, -0.8))
_SPHERE_SCENES = {
    # shorter than FIGURE_MIN_ARC: drawn as its two endpoints, labelled at the second
    "short_labelled_segment": (
        (SegmentElement(*_SHORT, label="s"),),
        "a6fb5d130a55d23aeb6955830005b22d677aa97fbb90d8d6c95441d3da78396d",
    ),
    # one visible and one hidden run
    "labelled_geodesic_across_z0": (
        (SegmentElement(Vec3(0.6, 0.0, 0.8), Vec3(0.0, -0.6, -0.8), label="g"),),
        "8ad8595740ce5cfed0defebe28771ec2617f19635f326fef7f547df957eba533",
    ),
    # one circle framed from the z axis, one (|n.z| >= 0.9) from the x axis
    "labelled_great_circles": (
        (GreatCircleElement(Vec3(0.3, -0.4, 0.5), label="c"),
         GreatCircleElement(Vec3(-0.0, 0.1, -2.0), label="d")),
        "c1b9cebe327cf87a172c23ddada45f0a2f9778286e195baa4853216a38a10a1f",
    ),
    # only the first sample is behind: a one-point hidden run, dropped
    "geodesic_with_one_sample_behind": (
        (SegmentElement(Vec3(1.0, 0.0, -0.002), Vec3(0.0, 0.6, 0.8), label="h"),),
        "209ad848f8fdf480c84c8b38e2eade569fbb8fa3513ceb82a1b131cc2f20332b",
    ),
    # samples at z == 0.0 and -0.0 count as front: the geodesic's midpoint
    # ends its visible run, and the circle in the z = 0 plane is one visible run
    "samples_on_z0": (
        (SegmentElement(Vec3(0.6, 0.0, 0.8), Vec3(0.6, 0.0, -0.8), label="m"),
         GreatCircleElement(Vec3(0.0, 0.0, 1.0), label="e")),
        "ce4f88c9ce569eecd8e74a2e960d2d67f4a19ec3ce3d07fefdd7eee35655b23b",
    ),
    # an arc no longer than pi crosses z = 0 at most once, but endpoints one
    # subnormal step behind give -0.0 near the ends and a true negative in
    # the middle: front, behind, front again
    "geodesic_front_behind_front": (
        (SegmentElement(Vec3(1.0, 0.0, -5e-324), Vec3(math.cos(3.0), math.sin(3.0), -5e-324),
                        label="r"),),
        "81fe946c3cea1264753481eb0c55d2a60c1e976920b2dccef0e3e891d68bc8e3",
    ),
}

# The visible (True) and hidden (False) runs each split scene draws, with
# their point counts; a one-point run draws nothing.
_SPHERE_RUNS = {
    "geodesic_with_one_sample_behind": [(True, 32)],
    "samples_on_z0": [(True, 17), (False, 16), (True, 97)],
    "geodesic_front_behind_front": [(True, 5), (False, 23), (True, 5)],
}


def test_the_short_segment_takes_the_endpoint_branch():
    assert len(_geodesic_samples(*_SHORT)) == 2


@pytest.mark.parametrize("name", sorted(_SPHERE_SCENES))
def test_unbuilt_sphere_scenes_keep_their_bytes(name):
    elements, digest = _SPHERE_SCENES[name]
    data = render_svg(FigureSpec("orthographic_sphere", elements))
    labels = {el.label for el in elements}
    assert {t.text for t in _all(_root(data), "text")} == labels
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(_SPHERE_RUNS))
def test_sphere_curves_split_into_runs_at_z0(name):
    elements, _ = _SPHERE_SCENES[name]
    root = _root(render_svg(FigureSpec("orthographic_sphere", elements)))
    assert [("stroke-dasharray" not in p.attrib, len(p.get("points").split()))
            for p in _all(root, "polyline")] == _SPHERE_RUNS[name]


# Planar elements that no figure builder emits, each with the labels it
# draws. The digests pin the bytes the Vec2 renderer drew.
_PLANAR_SCENES = {
    # no points: the default [-1, 1] window
    "empty": ((), set(), "7c785ec79e46f96d2ec5c1ac3b40ae9278eb463020e84d1467c167ee65078ba9"),
    # a line does not widen the window: one just past its top edge, at
    # y = 1.25, is clipped away, label and all
    "labelled_line_outside_window": (
        (LineElement(Line2(Vec2(0.0, 1.2500001), Vec2(1.0, 0.0)), label="l"),),
        set(),
        "7c785ec79e46f96d2ec5c1ac3b40ae9278eb463020e84d1467c167ee65078ba9",
    ),
    # direction x below FIGURE_CLIP_TOL: clipped on y alone
    "labelled_vertical_line": (
        (SegmentElement(Vec2(-1.5, 0.5), Vec2(2.0, -3.0), label="s"),
         LineElement(Line2(Vec2(0.3, 7.0), Vec2(-0.0, -1.0)), style="faint", label="v")),
        {"s", "v"},
        "060c6585ca17409e298d9be1f6d7d1ad18387aac10d6b997d681970e30e2a2a2",
    ),
    # end < start is swapped; a sweep over pi takes the large-arc flag
    "labelled_wide_arc_reversed": (
        (ArcElement(Vec2(1.0, 2.0), 0.75, 4.0, 0.5, label="a"),
         Marker(Vec2(1.0, 2.0), "P", style="pivot")),
        {"a", "P"},
        "b0e50a731177496fc295873716322ec61b557adae7721b38fa80f1f93ee14efb",
    ),
    # closer than FIGURE_MIN_SPAN: the window keeps the floor's span
    "markers_below_the_span_floor": (
        (Marker(Vec2(3.0, 4.0), "A"), Marker(Vec2(3.0 + 1e-7, 4.0 - 2e-7), "B")),
        {"A", "B"},
        "ce43bdb2c740bdfceb884af9bf1835791127e8af38ac511b24cae37e9eeba3a7",
    ),
}


@pytest.mark.parametrize("name", sorted(_PLANAR_SCENES))
def test_unbuilt_planar_scenes_keep_their_bytes(name):
    elements, labels, digest = _PLANAR_SCENES[name]
    data = render_svg(FigureSpec("planar", elements))
    assert {t.text for t in _all(_root(data), "text")} == labels
    assert hashlib.sha256(data).hexdigest() == digest


# Vectors built by one render_svg of each corpus --svg batch instance: the
# samplers and the planar window build none per point. A great circle costs
# 5 Vec3 (its frame), a geodesic arc 2 (its normalized endpoints); a planar
# render builds no Vec2.
_RENDER_VECTORS = {
    "sphere_recover": (Vec3, 16), "baseball": (Vec3, 16), "sphere_compose": (Vec3, 5),
    "plane_recover": (Vec2, 0), "plane_compose": (Vec2, 0), "plane_reflections": (Vec2, 0),
}


@pytest.mark.parametrize("kind", sorted(_RENDER_VECTORS))
def test_a_sphere_render_builds_few_vectors(monkeypatch, tmp_path, kind):
    case = Path(__file__).resolve().parent / "golden" / "cases" / f"{kind}_svg_batch"
    items = json.loads((case / "input.json").read_text(encoding="utf-8"))
    cls, limit = _RENDER_VECTORS[kind]
    counts = []
    real_init, real_render = cls.__init__, cli.render_svg

    def counted(self, *args):
        counts[-1] += 1
        real_init(self, *args)

    def render(spec):
        counts.append(0)
        monkeypatch.setattr(cls, "__init__", counted)
        try:
            return real_render(spec)
        finally:
            monkeypatch.setattr(cls, "__init__", real_init)

    monkeypatch.setattr(cli, "render_svg", render)
    for i, obj in enumerate(items):
        cli.run(cli.instance_from_obj(obj), svg_path=str(tmp_path / f"{i}.svg"))
    assert len(counts) == len(items)
    assert max(counts) <= limit, counts


@pytest.mark.parametrize("projection, at", [("planar", Vec2(0.5, -0.5)),
                                            ("orthographic_sphere", Vec3(0.6, 0.0, 0.8))])
def test_label_text_is_escaped(projection, at):
    label = "a<b & c>"
    data = render_svg(FigureSpec(projection, (Marker(at, label),)))
    assert [t.text for t in _all(_root(data), "text")] == [label]


def test_every_golden_svg_parses():
    svgs = sorted((Path(__file__).resolve().parent / "golden" / "cases").glob("*/out/*.svg"))
    assert svgs
    for path in svgs:
        assert _root(path.read_bytes()).tag == f"{SVG_NS}svg", path


@pytest.mark.parametrize("radius, start", [(math.nan, 0.0), (-1.0, 0.0), (1.0, math.nan)])
def test_an_arc_needs_a_finite_non_negative_radius_and_finite_angles(radius, start):
    with pytest.raises(ValueError, match="arc"):
        ArcElement(Vec2(0.0, 0.0), radius, start, 1.0)

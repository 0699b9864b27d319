"""Scene descriptions and SVG rendering for solver diagrams.

A FigureSpec is a flat list of geometric elements plus a projection mode.
Planar scenes map world coordinates straight to pixels (y up). Sphere
scenes are projected orthographically along the z axis; elements on the
far hemisphere (z < 0) are drawn dashed. Rendering is deterministic: the same
spec always yields the same bytes.
"""

from __future__ import annotations

import math

from .linalg import FIGURE_CLIP_TOL, FIGURE_MIN_ARC, FIGURE_MIN_SPAN, Vec2, Vec3, _value, cross
from .planar import Line2, Rotation2, _fixed_endpoints, _point_scale, perpendicular_bisector
from .spherical import UnitVector3, _antipodal, _fixed_points, bisector_great_circle

__all__ = ["FigureSpec", "render_svg"]

_STROKES = {
    "solid": "",
    "dashed": ' stroke-dasharray="6 4"',
    "faint": ' stroke-dasharray="2 3"',
}


class _Styled:
    """An element whose `style` must be one of its class's STYLES."""

    __slots__ = ()
    STYLES = tuple(_STROKES)

    def __post_init__(self):
        if self.style not in self.STYLES:
            raise ValueError(f"unknown {type(self).__name__} style {self.style!r}")


@_value
class Marker(_Styled):
    """Labeled point; style 'dot' or 'pivot' (drawn as a crosshair)."""

    STYLES = ("dot", "pivot")
    at: Vec2 | Vec3
    label: str = ""
    style: str = "dot"


@_value
class SegmentElement(_Styled):
    """Straight segment in the plane, geodesic arc on the sphere. A sphere
    segment is drawn solid in front and dashed behind, whatever its style."""

    a: Vec2 | Vec3
    b: Vec2 | Vec3
    style: str = "solid"
    label: str = ""


@_value
class LineElement(_Styled):
    """Infinite planar line, clipped to the drawing window."""

    line: Line2
    style: str = "dashed"
    label: str = ""


@_value
class ArcElement:
    """Planar angle arc around a center, from angle start to end (ccw)."""

    center: Vec2
    radius: float
    start: float
    end: float
    label: str = ""

    def __post_init__(self):
        if not all(map(math.isfinite, (self.radius, self.start, self.end))) or self.radius < 0.0:
            raise ValueError("an arc needs a finite, non-negative radius and finite angles")


@_value
class GreatCircleElement:
    """Great circle on the unit sphere, identified by its plane normal."""

    normal: Vec3
    label: str = ""


FigureElement = Marker | SegmentElement | LineElement | ArcElement | GreatCircleElement


@_value
class FigureSpec:
    """Drawable scene; projection is 'planar' or 'orthographic_sphere'."""

    projection: str
    elements: tuple[FigureElement, ...]
    width: int = 480
    height: int = 480

    def __post_init__(self):
        if self.projection not in ("planar", "orthographic_sphere"):
            raise ValueError(f"unknown projection {self.projection!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("viewport must be positive")
        # every point is a Vec2 in the plane and a Vec3 on the sphere
        kind = Vec2 if self.projection == "planar" else Vec3
        for el in self.elements:
            match el:
                case SegmentElement(a=a, b=b):
                    points = (a, b)
                case (Marker(at=p) | ArcElement(center=p) | GreatCircleElement(normal=p)
                      | LineElement(line=Line2(point=p))):
                    points = (p,)
                case _:
                    raise ValueError(f"not a figure element: {el!r}")
            for p in points:
                if not isinstance(p, kind):
                    raise ValueError(f"{type(el).__name__} needs {kind.__name__} points "
                                     f"under {self.projection!r}")


def _fmt(v: float) -> str:
    """v to two decimals; a value that rounds to zero prints 0.00, never -0.00."""
    text = f"{v:.2f}"
    return "0.00" if text == "-0.00" else text


def _window(spec: FigureSpec) -> tuple[float, float, float]:
    """Centre (cx, cy) and span of a planar figure's square window: 1.25 times
    the extent of its markers, segment ends and arc boxes, floored at
    FIGURE_MIN_SPAN, or of [-1, 1] without them. Lines are clipped to the
    window and do not widen it."""
    pts: list[tuple[float, float]] = []
    for el in spec.elements:
        if isinstance(el, Marker):
            pts.append((el.at.x, el.at.y))
        elif isinstance(el, SegmentElement):
            pts += ((el.a.x, el.a.y), (el.b.x, el.b.y))
        elif isinstance(el, ArcElement):
            c, r = el.center, el.radius
            pts += ((c.x + r, c.y + r), (c.x - r, c.y - r))
    if not pts:
        pts = [(-1.0, -1.0), (1.0, 1.0)]
    xs, ys = zip(*pts)
    cx, cy = (min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0
    return cx, cy, max(max(xs) - min(xs), max(ys) - min(ys), FIGURE_MIN_SPAN) * 1.25


def _clip_line(line: Line2, cx: float, cy: float, span: float):
    """Ends ((x1, y1), (x2, y2)) of the part of a line inside the window, if any."""
    half = span / 2.0
    p, d = line.point, line.direction
    tmin, tmax = -math.inf, math.inf
    for origin, direction, lo, hi in ((p.x, d.x, cx - half, cx + half),
                                      (p.y, d.y, cy - half, cy + half)):
        if abs(direction) < FIGURE_CLIP_TOL:
            if origin < lo or origin > hi:
                return None
            continue
        t1 = (lo - origin) / direction
        t2 = (hi - origin) / direction
        if t1 > t2:
            t1, t2 = t2, t1
        tmin = max(tmin, t1)
        tmax = min(tmax, t2)
    if tmin >= tmax or not math.isfinite(tmin) or not math.isfinite(tmax):
        return None
    return (p.x + d.x * tmin, p.y + d.y * tmin), (p.x + d.x * tmax, p.y + d.y * tmax)


def _polyline(flat: list[float], stroke: str, cls: str) -> str:
    """A polyline through the points (x0, y0, x1, y1, ...) of a flat list,
    formatted in one call as _fmt formats each: "%.2f" writes a float as
    f"{v:.2f}" does, and "-0.00" can only be a whole coordinate, so it becomes 0.00."""
    coords = (" ".join(["%.2f,%.2f"] * (len(flat) // 2)) % tuple(flat)).replace("-0.00", "0.00")
    return f'<polyline class="{cls}" points="{coords}" fill="none"{stroke}/>'


def _label(x: float, y: float, text: str) -> str:
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text class="label" x="{_fmt(x)}" y="{_fmt(y)}" stroke="none">{text}</text>'


def render_svg(spec: FigureSpec) -> bytes:
    """Render a FigureSpec to a standalone SVG 1.1 document."""
    if spec.projection == "planar":
        body = _render_planar(spec)
    else:
        body = _render_sphere(spec)
    doc = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">\n'
        '<g stroke="black" stroke-width="1.2" font-family="sans-serif" font-size="13">\n'
        + "\n".join(body)
        + "\n</g>\n</svg>\n"
    )
    return doc.encode("utf-8")


def _marker_svg(px: float, py: float, el: Marker, hidden: bool = False) -> list[str]:
    out = []
    stroke = _STROKES["dashed"] if hidden else ""
    fill = "none" if hidden else "black"
    if el.style == "pivot":
        s = 5.0
        out.append(
            f'<path class="pivot" d="M {_fmt(px - s)} {_fmt(py)} H {_fmt(px + s)} '
            f'M {_fmt(px)} {_fmt(py - s)} V {_fmt(py + s)}"{stroke}/>'
        )
        out.append(f'<circle class="pivot" cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.2" fill="{fill}"/>')
    else:
        out.append(f'<circle class="point" cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="{fill}"{stroke}/>')
    if el.label:
        out.append(_label(px + 6, py - 6, el.label))
    return out


def _render_planar(spec: FigureSpec) -> list[str]:
    cx, cy, span = _window(spec)
    scale = min(spec.width, spec.height) / span
    w, h = spec.width, spec.height

    def px(x: float, y: float) -> tuple[float, float]:
        """World to pixels, uniform scale, y up."""
        return w / 2.0 + (x - cx) * scale, h / 2.0 - (y - cy) * scale

    out: list[str] = []
    for el in spec.elements:
        if isinstance(el, Marker):
            out.extend(_marker_svg(*px(el.at.x, el.at.y), el))
        elif isinstance(el, (SegmentElement, LineElement)):
            segment = isinstance(el, SegmentElement)
            ends = (((el.a.x, el.a.y), (el.b.x, el.b.y)) if segment
                    else _clip_line(el.line, cx, cy, span))
            if ends is None:
                continue
            (x1, y1), (x2, y2) = px(*ends[0]), px(*ends[1])
            out.append(f'<line class="{"segment" if segment else "line"}" x1="{_fmt(x1)}" '
                       f'y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"{_STROKES[el.style]}/>')
            if el.label:
                at = ((x1 + x2) / 2 + 5, (y1 + y2) / 2 - 5) if segment else (x2 - 20, y2 - 6)
                out.append(_label(*at, el.label))
        elif isinstance(el, ArcElement):
            a0, a1 = (el.end, el.start) if el.end < el.start else (el.start, el.end)
            c, r = el.center, el.radius
            x0, y0 = px(c.x + math.cos(a0) * r, c.y + math.sin(a0) * r)
            x1, y1 = px(c.x + math.cos(a1) * r, c.y + math.sin(a1) * r)
            large = 1 if (a1 - a0) > math.pi else 0
            rs = _fmt(r * scale)
            out.append(f'<path class="arc" d="M {_fmt(x0)} {_fmt(y0)} A {rs} {rs} 0 {large} 0 '
                       f'{_fmt(x1)} {_fmt(y1)}" fill="none"/>')
            if el.label:
                mid, rl = (a0 + a1) / 2, r * 1.25
                lx, ly = px(c.x + math.cos(mid) * rl, c.y + math.sin(mid) * rl)
                out.append(_label(lx, ly, el.label))
    return out


_CIRCLE_SAMPLES = 96
_ARC_SAMPLES = 32
# cos and sin of the great-circle sample angles, as the Vec3 sampler computed them
_CIRCLE_CS = tuple(
    (math.cos(2.0 * math.pi * k / _CIRCLE_SAMPLES), math.sin(2.0 * math.pi * k / _CIRCLE_SAMPLES))
    for k in range(_CIRCLE_SAMPLES + 1)
)
# (1.0 - t, t) at the geodesic sample parameters t = k / _ARC_SAMPLES
_ARC_TS = tuple((1.0 - k / _ARC_SAMPLES, k / _ARC_SAMPLES) for k in range(_ARC_SAMPLES + 1))


def _render_sphere(spec: FigureSpec) -> list[str]:
    scale = min(spec.width, spec.height) / (2.0 * 1.18)
    # seen from +z: +x points up the page and +y to the left
    cx, cy = spec.width / 2.0, spec.height / 2.0
    out = [f'<circle class="sphere-outline" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(scale)}" '
           'fill="none"/>']

    def emit_sampled(points: list[tuple[float, float, float]], cls: str) -> None:
        """Split a sampled curve into visible and hidden runs, each a flat
        list of projected floats; a one-point run draws nothing."""
        runs: list[tuple[bool, list[float]]] = []
        front = None
        for x, y, z in points:
            if (z >= 0.0) is not front:
                front, flat = z >= 0.0, []
                runs.append((front, flat))
            flat += (cx - y * scale, cy - x * scale)
        for front, flat in runs:
            if len(flat) > 2:
                out.append(_polyline(flat, _STROKES["solid" if front else "dashed"], cls))

    for el in spec.elements:
        if isinstance(el, Marker):
            p = el.at
            out.extend(_marker_svg(cx - p.y * scale, cy - p.x * scale, el, hidden=p.z < 0.0))
        elif isinstance(el, SegmentElement):
            samples = _geodesic_samples(el.a, el.b)
            emit_sampled(samples, "arc-segment")
            if el.label:
                x, y, _ = samples[len(samples) // 2]
                out.append(_label(cx - y * scale + 5, cy - x * scale - 5, el.label))
        elif isinstance(el, GreatCircleElement):
            pts = _circle_samples(el.normal)
            if el.label:
                x, y, _ = pts[0]
                out.append(_label(cx - y * scale + 5, cy - x * scale - 5, el.label))
            emit_sampled(pts, "great-circle")
    return out


def _circle_samples(normal: Vec3) -> list[tuple[float, float, float]]:
    """e1 * cos(2 pi k / 96) + e2 * sin(2 pi k / 96), k = 0..96, with e1 and e2 spanning the
    circle's plane: (x, y, z) floats in that Vec3 expression's operation order."""
    n = normal.normalized()
    e1 = cross(n, Vec3(0.0, 0.0, 1.0) if abs(n.z) < 0.9 else Vec3(1.0, 0.0, 0.0)).normalized()
    e2 = cross(n, e1)
    ax, ay, az, bx, by, bz = e1.x, e1.y, e1.z, e2.x, e2.y, e2.z
    return [(ax * c + bx * s, ay * c + by * s, az * c + bz * s) for c, s in _CIRCLE_CS]


def _geodesic_samples(a: Vec3, b: Vec3) -> list[tuple[float, float, float]]:
    """(a * sin((1.0 - t) * omega) + b * sin(t * omega)) * (1.0 / sin(omega)) at
    t = k / _ARC_SAMPLES for the normalized endpoints, in that Vec3 expression's
    operation order; just the endpoints of an arc shorter than FIGURE_MIN_ARC."""
    a = a.normalized()
    b = b.normalized()
    ax, ay, az, bx, by, bz = a.x, a.y, a.z, b.x, b.y, b.z
    omega = math.acos(max(-1.0, min(1.0, a.dot(b))))
    if omega < FIGURE_MIN_ARC:
        return [(ax, ay, az), (bx, by, bz)]
    inv = 1.0 / math.sin(omega)
    out = []
    for u, t in _ARC_TS:
        sa, sb = math.sin(u * omega), math.sin(t * omega)
        out.append(((ax * sa + bx * sb) * inv, (ay * sa + by * sb) * inv, (az * sa + bz * sb) * inv))
    return out


def planar_recovery_figure(src, dst, iso) -> FigureSpec:
    """Two corresponding segments, their bisectors, and the pivot."""
    elements: list[FigureElement] = [
        SegmentElement(src.a, src.b, label="XY"),
        SegmentElement(dst.a, dst.b, label="X'Y'"),
        Marker(src.a, "X"),
        Marker(src.b, "Y"),
        Marker(dst.a, "X'"),
        Marker(dst.b, "Y'"),
    ]
    if isinstance(iso, Rotation2):
        fixed_a, fixed_b = _fixed_endpoints(src, dst, _point_scale(src.a, src.b, dst.a, dst.b))
        for a, b, fixed in ((src.a, dst.a, fixed_a), (src.b, dst.b, fixed_b)):
            if not fixed:
                elements.append(LineElement(perpendicular_bisector(a, b)))
        elements.append(Marker(iso.pivot, "P", style="pivot"))
    else:
        elements.append(SegmentElement(src.a, dst.a, style="faint"))
        elements.append(SegmentElement(src.b, dst.b, style="faint"))
    return FigureSpec("planar", tuple(elements))


def planar_compose_figure(g: Vec2, h: Vec2, iso, probe, mid, final) -> FigureSpec:
    """Pivots of both factors, a probe segment, and its two images; each
    segment is given as its pair of endpoints."""
    elements: list[FigureElement] = [
        Marker(g, "G"),
        Marker(h, "H"),
        SegmentElement(*probe, label="XY"),
        SegmentElement(*mid, style="faint", label="X'Y'"),
        SegmentElement(*final, label="X''Y''"),
    ]
    if isinstance(iso, Rotation2):
        elements.append(Marker(iso.pivot, "P", style="pivot"))
    return FigureSpec("planar", tuple(elements))


def reflection_pair_figure(rot, first, second) -> FigureSpec:
    """The two mirror lines through the pivot with the half-angle arc."""
    span = max(1.0, abs(rot.pivot.x), abs(rot.pivot.y)) * 0.35
    elements: tuple[FigureElement, ...] = (
        LineElement(first, style="solid", label="l1"),
        LineElement(second, style="solid", label="l2"),
        ArcElement(rot.pivot, span, 0.0, rot.angle / 2.0, label="t/2"),
        Marker(rot.pivot, "P", style="pivot"),
    )
    return FigureSpec("planar", elements)


def sphere_recovery_figure(x, xp, y, yp, rot) -> FigureSpec:
    """Moved points, their bisector great circles, and the two poles.

    A pair's arc and bisector are left out when no unique arc joins it: a
    fixed point has no bisector, an antipodal pair a bisector but no arc.
    """
    elements: list[FigureElement] = [
        Marker(x, "X"),
        Marker(xp, "X'"),
        Marker(y, "Y"),
        Marker(yp, "Y'"),
    ]
    fixed_x, fixed_y = _fixed_points(x.dist(xp), y.dist(yp))
    circles = [
        (a, b, GreatCircleElement(bisector_great_circle(a, b), label))
        for a, b, label, fixed in ((x, xp, "lX", fixed_x), (y, yp, "lY", fixed_y))
        if not (fixed or _antipodal(a, b))
    ]
    elements.extend(SegmentElement(a, b, style="solid") for a, b, _ in circles)
    elements.extend(circle for _, _, circle in circles)
    if rot is not None:
        elements.append(Marker(rot.axis, "P", style="pivot"))
        elements.append(Marker(-rot.axis, "P'", style="pivot"))
    return FigureSpec("orthographic_sphere", tuple(elements))


def sphere_compose_figure(g: UnitVector3, h: UnitVector3, rot) -> FigureSpec:
    """Axis poles of both factors and of the composite, with its equator."""
    elements: list[FigureElement] = [
        Marker(g, "G"),
        Marker(h, "H"),
        GreatCircleElement(rot.axis, "equator"),
        Marker(rot.axis, "P", style="pivot"),
        Marker(-rot.axis, "P'", style="pivot"),
    ]
    return FigureSpec("orthographic_sphere", tuple(elements))

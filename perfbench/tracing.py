"""Spans and counts for the traced run, recorded from outside the program.

The tracer replaces the public functions of each layer with wrappers in
every isometry_lab module namespace that bound them at import, and wraps
`UnitVector3.__post_init__` and `Mat3.__matmul__` on their classes. A
wrapper records a span (name, start, end, parent, instance) and a count.
Spans stay in memory until the caller writes them out; the program's own
files are never changed.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

PLANAR = (
    "recover_planar",
    "recover_planar_geometric",
    "compose_rotations_planar",
    "reflections_for_rotation",
    "compose_reflections",
    "apply_planar",
)
SPHERICAL = ("apply_sphere", "rotation_matrix", "axis_angle_from_matrix", "chord_arcsin_angle")
FIGURE_BUILDERS = (
    "planar_recovery_figure",
    "planar_compose_figure",
    "reflection_pair_figure",
    "sphere_recovery_figure",
    "sphere_compose_figure",
)

# (defining module, function, span name); a span name of None is derived
# from the call's `method` keyword.
TIMED = (
    ("cli", "instance_from_obj", "cli.parse"),
    ("cli", "run", "cli.run"),
    ("cli", "main", "cli.main"),
    *(("planar", f, f"planar.{f}") for f in PLANAR),
    ("spherical", "recover_sphere_rotation", None),
    *(("spherical", f, f"spherical.{f}") for f in SPHERICAL),
    ("linalg", "eig3_rotation", "linalg.eig3_rotation"),
    *(("figures", f, "figures.build") for f in FIGURE_BUILDERS),
    ("figures", "render_svg", "figures.render_svg"),
)
# Counted without a span: these run too often for a span to be cheap.
COUNTED = (("linalg", "solve2", "linalg.solve2"),)
COUNTED_METHODS = (
    ("spherical", "UnitVector3", "__post_init__", "spherical.UnitVector3.constructed"),
    ("linalg", "Mat3", "__matmul__", "linalg.Mat3.matmul"),
)

# Spans that start one instance's work; their children inherit its id.
_INSTANCE_ROOTS = ("cli.parse", "cli.run")


def _module(name: str):
    return sys.modules[f"isometry_lab.{name}"]


class Tracer:
    """Install with `with Tracer() as t:`; the wrappers are removed on exit."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, instance)
        self.counts: Counter = Counter()
        self.totals: dict[str, list[float]] = {}  # name -> [inclusive s, self s]
        self.run_durations: list[float] = []  # of every cli.run span
        self.svg_bytes = 0
        self._open: list[int] = []
        self._instance = -1
        self._base = 0
        self._seen: Counter = Counter()
        self._restore: list[tuple] = []

    def begin_batch(self, first_instance: int) -> None:
        """Number the next batch's instances from `first_instance`."""
        self._base = first_instance
        self._seen.clear()

    def _timed(self, fn, name):
        spans, counts, stack = self.spans, self.counts, self._open

        def wrapper(*args, **kwargs):
            span = name or f"spherical.recover_sphere_rotation.{kwargs.get('method', 'algebraic')}"
            counts[span] += 1
            if span in _INSTANCE_ROOTS:
                self._instance = self._base + self._seen[span]
                self._seen[span] += 1
            instance = self._instance if stack or span in _INSTANCE_ROOTS else -1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (span, start, end, parent, instance)
            if span == "figures.render_svg":
                self.svg_bytes += len(out)
            return out

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, home: str, attr: str, wrapper_for) -> None:
        original = getattr(_module(home), attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "isometry_lab" and mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, original))

    def __enter__(self) -> "Tracer":
        for home, attr, name in TIMED:
            self._replace(home, attr, lambda fn, name=name: self._timed(fn, name))
        for home, attr, name in COUNTED:
            self._replace(home, attr, lambda fn, name=name: self._counted(fn, name))
        for home, cls_name, attr, name in COUNTED_METHODS:
            cls = getattr(_module(home), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._counted(original, name))
            self._restore.append((cls, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def drain(self) -> list[tuple]:
        """Fold the recorded spans into `totals` and `run_durations`, then
        forget them. Self time is a span's duration minus the time its
        child spans cover. Call it only between batches, when no span is
        open. Returns the drained spans."""
        spans = self.spans[:]
        self.spans.clear()  # in place: the wrappers hold this list
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            entry = self.totals.setdefault(name, [0.0, 0.0])
            entry[0] += end - start
            entry[1] += end - start - child[i]
            if name == "cli.run":
                self.run_durations.append(end - start)
        return spans


def write_spans(path, spans: list[tuple]) -> None:
    """One JSON object per line; times in seconds from the first span."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as f:
        for name, start, end, parent, inst in spans:
            f.write(json.dumps({
                "name": name, "start": start - t0, "end": end - t0,
                "parent": parent, "instance": inst,
            }) + "\n")

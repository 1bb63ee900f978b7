"""Span tracing of heisurf's layers from outside the package.

`Tracer.install` replaces selected functions and methods of the heisurf
modules with timing wrappers: the module attribute itself and every other
heisurf module's binding of the same object (``from .x import f`` copies),
so calls made through ``heisurf.cli`` are traced too.  `Tracer.remove`
puts the originals back.  Nothing in ``src/`` is modified.

Each wrapped call is one span: an id, its parent span's id, the function,
its start, its duration and its self time (duration minus the time its
child spans cover).  Spans are appended to an in-memory array and written
out once, when the benchmark ends.  Counters (points evaluated, lines
drawn, bytes written, ...) are taken at the same call boundaries; a
counter's own cost is charged to neither span's self time.

`LAYER_METRICS` defines each per-layer metric from the spans and counters
of one pass.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

import numpy as np

_SPAN_FIELDS = 6  # span id, parent id, function id, start, duration, self

# ---------------------------------------------------------------------------
# counters taken at call boundaries: hook(counters, args, kwargs, result)


def _points(counter: str) -> Callable:
    """Count the query points of a membership offset ``offset(points)``."""
    def hook(counters, args, kwargs, result):
        counters[counter] += int(np.size(args[1]) // 3)
    return hook


def _field_points(counters, args, kwargs, result):
    counters["families.phi.points"] += int(np.broadcast(args[0], args[1]).size)


def _sample_box_hook(line_ball_distance) -> Callable:
    def hook(counters, args, kwargs, result):
        radius, n = args[0], args[1]
        _theta, v, w = result
        counters["lines.sample.drawn"] += int(n)
        counters["lines.sample.kept"] += int(
            np.count_nonzero(line_ball_distance(v, w) <= radius))
    return hook


def _scan_hook(crossing_counts) -> Callable:
    signature = inspect.signature(crossing_counts)

    def hook(counters, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counters["lines.offset_points"] += (
            int(np.size(bound.arguments["theta"])) * int(bound.arguments["n_scan"]))
    return hook


def _refine_hook(counters, args, kwargs, result):
    # the census refines only lines its scan counted twice or more; a
    # refined count of at most one moves the line to another bin
    counters["lines.refine.rebinned" if result.count <= 1
             else "lines.refine.confirmed"] += 1


def _obj_bytes(counters, args, kwargs, result):
    counters["meshes.obj_bytes"] += len(result)


def _written_bytes(counters, args, kwargs, result):
    counters["reports.bytes"] += len(args[1])


# ---------------------------------------------------------------------------
# adapters: replace an original by a function that traces what it hands out


def _counting_refine(tracer: "Tracer", refine: Callable) -> Callable:
    """`quadrature._refine` with its level callback counted.

    Each level evaluates the integrand once, on n = n0 * 2**level midpoints
    per direction (n for `integrate_1d`, n * n for `integrate_region`).
    """
    def traced_refine(sums, cfg, what):
        def counted(level):
            n = cfg.n0 << level
            tracer.counters["quadrature.levels"] += 1
            tracer.counters["quadrature.points"] += (
                n if what == "integrate_1d" else n * n)
            return sums(level)
        return refine(counted, cfg, what)
    return traced_refine


def _traced_competitor(tracer: "Tracer", build: Callable) -> Callable:
    """`build_competitor` whose surface fields phi, slope, phi_y are traced."""
    def traced_build(*args, **kwargs):
        comp = build(*args, **kwargs)
        return dataclasses.replace(comp, **{
            name: tracer.wrap(f"CompetitorSurface.{name}", getattr(comp, name),
                              _field_points)
            for name in ("phi", "slope", "phi_y")})
    return traced_build


# ---------------------------------------------------------------------------
# what is traced

#: (module, attribute or Class.method, layer self-time metric, hook factory,
#: adapter).  A hook factory takes the unpatched targets by attribute name
#: and returns the counter hook; an adapter takes (tracer, original) and
#: returns the function to wrap in place of the original.
TARGETS = (
    ("lines", "_sample_box", "lines.sample_s",
     lambda o: _sample_box_hook(o["line_ball_distance"]), None),
    ("lines", "line_ball_distance", "lines.sample_s", None, None),
    ("lines", "line_measure_of_ball", "lines.sample_s", None, None),
    ("lines", "calibrate_ratio", "lines.sample_s", None, None),
    ("lines", "crossing_counts", "lines.scan_s",
     lambda o: _scan_hook(o["crossing_counts"]), None),
    ("lines", "crossings", "lines.refine_s", lambda o: _refine_hook, None),
    ("lines", "monotonicity_check", "lines.census_s", None, None),
    ("strips", "GraphicalStrip.membership_offset", "strips.offset_s",
     lambda o: _points("strips.offset.points"), None),
    ("strips", "BrokenPlane.membership_offset", "strips.offset_s",
     lambda o: _points("strips.offset.points"), None),
    ("families", "MembershipSlab.membership_offset", "families.offset_s",
     lambda o: _points("families.offset.points"), None),
    ("families", "competitor_compare", "families.compare_s", None, None),
    ("families", "patch_area", "families.compare_s", None, None),
    ("families", "patch_energy", "families.compare_s", None, None),
    ("families", "build_competitor", "families.other_s", None,
     _traced_competitor),
    ("families", "sigma_rho_area", "families.other_s", None, None),
    ("families", "sigma_rho_area_quadrature", "families.other_s", None, None),
    ("families", "sigma_rho_surface", "families.other_s", None, None),
    ("families", "sigma_rho_membership", "families.other_s", None, None),
    ("families", "chord_obstruction_check", "families.other_s", None, None),
    ("families", "scaling_limit", "families.other_s", None, None),
    ("families", "broken_plane_area", "families.other_s", None, None),
    ("families", "broken_plane_energy", "families.other_s", None, None),
    ("quadrature", "integrate_1d", "quadrature.integrate_s", None, None),
    ("quadrature", "integrate_region", "quadrature.integrate_s", None, None),
    ("quadrature", "_refine", "quadrature.integrate_s", None,
     _counting_refine),
    ("surfaces", "RuledSurface.area", "surfaces.area_s", None, None),
    ("surfaces", "RuledSurface.intrinsic_energy", "surfaces.area_s", None, None),
    ("surfaces", "RuledSurface._density", "surfaces.area_s", None, None),
    ("variation", "second_variation_experiment", "variation.experiment_s",
     None, None),
    ("variation", "second_variation", "variation.experiment_s", None, None),
    ("variation", "ruled_area_closed_form", "variation.experiment_s",
     None, None),
    ("meshes", "strip_mesh", "meshes.build_s", None, None),
    ("meshes", "broken_plane_mesh", "meshes.build_s", None, None),
    ("meshes", "competitor_mesh", "meshes.build_s", None, None),
    ("meshes", "mesh_from_ruled", "meshes.build_s", None, None),
    ("meshes", "mesh_from_graph", "meshes.build_s", None, None),
    ("meshes", "mesh_from_mapped_grid", "meshes.build_s", None, None),
    ("meshes", "merge_meshes", "meshes.build_s", None, None),
    ("meshes", "MeshObj.__post_init__", "meshes.validate_s", None, None),
    ("meshes", "MeshObj.to_obj_text", "meshes.format_s",
     lambda o: _obj_bytes, None),
    ("meshes", "write_obj", "meshes.format_s", None, None),
    ("reports", "atomic_write_text", "reports.write_s",
     lambda o: _written_bytes, None),
    ("reports", "dump_json", "reports.dump_json_s", None, None),
    ("cli", "main", "cli.self_s", None, None),
)

#: Per-layer metric -> (unit, better, how it is computed).  Kinds:
#: ("self",) sums the self time of the spans mapped to the metric in
#: TARGETS; ("counter", name); ("calls", span names); ("ratio", num, den) of
#: counters; "setup", "spans" and "overhead" are filled in by the runner.
#: README.md maps each one to the end-to-end metric it should move.
LAYER_METRICS = {
    "lines.sample_s": ("s", "lower", ("self",)),
    "lines.sample.drawn": ("count", "lower", ("counter", "lines.sample.drawn")),
    "lines.sample.accept_ratio": (
        "1", "higher", ("ratio", "lines.sample.kept", "lines.sample.drawn")),
    "lines.scan_s": ("s", "lower", ("self",)),
    "lines.offset_points": ("count", "lower", ("counter", "lines.offset_points")),
    "lines.refine_s": ("s", "lower", ("self",)),
    "lines.refine.calls": ("count", "lower", ("calls", ("crossings",))),
    "lines.refine.rebinned_ratio": (
        "1", "lower", ("ratio", "lines.refine.rebinned", "lines.refine.calls")),
    "lines.census_s": ("s", "lower", ("self",)),
    "strips.offset_s": ("s", "lower", ("self",)),
    "strips.offset.calls": ("count", "lower", (
        "calls", ("GraphicalStrip.membership_offset",
                  "BrokenPlane.membership_offset"))),
    "strips.offset.points": ("count", "lower",
                             ("counter", "strips.offset.points")),
    "families.offset_s": ("s", "lower", ("self",)),
    "families.offset.points": ("count", "lower",
                               ("counter", "families.offset.points")),
    "families.compare_s": ("s", "lower", ("self",)),
    "families.phi_s": ("s", "lower", ("self",)),
    "families.phi.points": ("count", "lower", ("counter", "families.phi.points")),
    "families.other_s": ("s", "lower", ("self",)),
    "quadrature.integrate_s": ("s", "lower", ("self",)),
    "quadrature.calls": ("count", "lower",
                         ("calls", ("integrate_1d", "integrate_region"))),
    "quadrature.levels": ("count", "lower", ("counter", "quadrature.levels")),
    "quadrature.points": ("count", "lower", ("counter", "quadrature.points")),
    "surfaces.area_s": ("s", "lower", ("self",)),
    "variation.experiment_s": ("s", "lower", ("self",)),
    "meshes.build_s": ("s", "lower", ("self",)),
    "meshes.validate_s": ("s", "lower", ("self",)),
    "meshes.format_s": ("s", "lower", ("self",)),
    "meshes.obj_bytes": ("count", "lower", ("counter", "meshes.obj_bytes")),
    "reports.write_s": ("s", "lower", ("self",)),
    "reports.bytes": ("count", "lower", ("counter", "reports.bytes")),
    "reports.dump_json_s": ("s", "lower", ("self",)),
    "cli.self_s": ("s", "lower", ("self",)),
    "setup.numpy_s": ("s", "lower", ("setup",)),
    "trace.spans": ("count", "lower", ("spans",)),
    "trace.overhead_s": ("s", "lower", ("overhead",)),
}

_METRIC_OF_SPAN = {
    **{attr: metric for _module, attr, metric, _hook, _adapter in TARGETS},
    **{f"CompetitorSurface.{name}": "families.phi_s"
       for name in ("phi", "slope", "phi_y")},
}


class Tracer:
    """Owns the wrappers, the span array and the counters of one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("d")
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _function_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             hook: Optional[Callable] = None) -> Callable:
        fid = self._function_id(name)
        stack, spans, counters = self._stack, self.spans, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((span_id, parent, fid, start, end - start,
                              end - start - frame[1]))
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                hook(counters, args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - end
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in TARGETS until `remove` is called."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "heisurf" or name.startswith("heisurf.")]
        originals = {}
        for module_name, attr, *_rest in TARGETS:
            owner = importlib.import_module(f"heisurf.{module_name}")
            if "." in attr:
                cls_name, attr_name = attr.split(".")
                owner = getattr(owner, cls_name)
                originals[attr] = owner.__dict__[attr_name]
            else:
                originals[attr] = getattr(owner, attr)
        for module_name, attr, _metric, hook_factory, adapter in TARGETS:
            original = originals[attr]
            hook = hook_factory(originals) if hook_factory else None
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(importlib.import_module(f"heisurf.{module_name}"),
                                cls_name)
                self._set(owner, method, self.wrap(attr, original, hook))
                continue
            inner = adapter(self, original) if adapter else original
            traced = self.wrap(attr, inner, hook)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)

    def _set(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to measure one pass from: (span count, counters copy)."""
        return len(self.spans) // _SPAN_FIELDS, Counter(self.counters)

    def summary(self, since: tuple[int, Counter]) -> dict:
        """Per-function calls and self time, and counters, since a mark."""
        first, counters_before = since
        calls: Counter = Counter()
        self_s: dict[str, float] = {}
        spans = self.spans
        for i in range(first * _SPAN_FIELDS, len(spans), _SPAN_FIELDS):
            name = self.names[int(spans[i + 2])]
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + spans[i + 5]
        counters = Counter(self.counters)
        counters.subtract(counters_before)
        return {"calls": dict(calls), "self_s": self_s,
                "counters": {k: v for k, v in counters.items() if v},
                "spans": len(spans) // _SPAN_FIELDS - first}

    def write_spans(self, path: str) -> None:
        """All spans as CSV: ids, function, start and times in seconds."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span,parent,function,start_s,duration_s,self_s\n")
            spans = self.spans
            for i in range(0, len(spans), _SPAN_FIELDS):
                fh.write(f"{int(spans[i])},{int(spans[i + 1])},"
                         f"{self.names[int(spans[i + 2])]},{spans[i + 3]!r},"
                         f"{spans[i + 4]!r},{spans[i + 5]!r}\n")


def layer_metrics(summary: dict) -> dict[str, float]:
    """The traced per-layer metrics of one pass, from `Tracer.summary`."""
    self_by_metric: dict[str, float] = {}
    for name, seconds in summary["self_s"].items():
        metric = _METRIC_OF_SPAN[name]
        self_by_metric[metric] = self_by_metric.get(metric, 0.0) + seconds
    counters = dict(summary["counters"])
    counters["lines.refine.calls"] = summary["calls"].get("crossings", 0)
    out: dict[str, float] = {}
    for metric, (_unit, _better, how) in LAYER_METRICS.items():
        kind = how[0]
        if kind == "self":
            out[metric] = self_by_metric.get(metric, 0.0)
        elif kind == "counter":
            out[metric] = counters.get(how[1], 0)
        elif kind == "calls":
            out[metric] = sum(summary["calls"].get(n, 0) for n in how[1])
        elif kind == "ratio":
            den = counters.get(how[2], 0)
            out[metric] = counters.get(how[1], 0) / den if den else 0.0
        elif kind == "spans":
            out[metric] = summary["spans"]
    return out

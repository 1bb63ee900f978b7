"""The benchmark's tracer still fits the package.

`bench/tracing.py` wraps heisurf functions by name and rebuilds each
competitor with traced ``phi``/``slope``/``phi_y`` fields through
`dataclasses.replace`.  A refactor of ``src/`` that drops a traced name or
turns those fields into methods breaks the benchmark; this test catches it
without running the benchmark.
"""
import importlib.util
import os

import numpy as np

import heisurf.families as families
import heisurf.lines as lines
from heisurf.profilespec import profile_from_string
from heisurf.strips import CallableProfile, broken_plane, strip_surface

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("heisurf_bench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_the_competitor_fields():
    tracing = _load_tracing()
    untraced = families.competitor_compare(1.0)
    build = families.build_competitor
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert families.build_competitor is not build
        comp = families.build_competitor("harmonic", 1.0)
        assert comp.phi(-0.5, -0.2) == build("harmonic", 1.0).phi(-0.5, -0.2)
        report = families.competitor_compare(1.0)
    finally:
        tracer.remove()
    assert families.build_competitor is build
    assert report.area_margin == untraced.area_margin
    assert report.energy_margin == untraced.energy_margin
    calls = tracer.summary((0, tracing.Counter()))["calls"]
    for name in ("build_competitor", "competitor_compare", "patch_area",
                 "patch_energy", "CompetitorSurface.phi",
                 "CompetitorSurface.slope", "CompetitorSurface.phi_y"):
        assert calls.get(name, 0) > 0, name
    assert tracer.counters["families.phi.points"] > 0


def test_tracer_counts_the_census_scan_and_the_crossings_calls():
    tracing = _load_tracing()
    bp = broken_plane(1.0)
    # a library closed-form profile with declared slopes inside the rule is
    # counted from its one cut x, as every census is
    smooth = strip_surface(CallableProfile(
        lambda z: -np.arctan(z), dfn=lambda z: -1.0 / (1.0 + z * z),
        slopes=(-1.0, 0.0)))
    arctan = strip_surface(profile_from_string("arctan(-1)"))
    untraced = [lines.monotonicity_check(s, n=200, seed=101)
                for s in (smooth, bp, arctan)]
    assert untraced[1].max_crossings >= 2  # the census files witnesses
    theta, v, w = lines.sample_lines(1.5, 200, 101)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes = []
        for surface in (arctan, smooth, bp):
            mark = tracer.mark()
            passes.append((lines.monotonicity_check(surface, n=200, seed=101),
                           tracer.summary(mark)))
        hit = lines.crossings(bp, lines.LineSample(0.0, -0.5, 0.0))
        # the scan is read only where called: its offset-point counter
        # reads the count pass's arguments
        scanned = lines.crossing_counts(smooth, theta, v, w, 400)
    finally:
        tracer.remove()
    assert [report for report, _ in passes] == [untraced[2], untraced[0],
                                                untraced[1]]
    assert hit.count == 2
    assert scanned.shape == (200,)
    # every census is counted exactly, from its cuts, without a scan
    for _, summary in passes:
        assert "crossing_counts" not in summary["calls"]
        assert summary["counters"].get("lines.offset_points", 0) == 0
    assert tracer.counters["lines.offset_points"] == 200 * 400
    calls = tracer.summary((0, tracing.Counter()))["calls"]
    assert calls.get("crossings", 0) == 1
    assert calls.get("crossing_counts", 0) == 1
    assert calls.get("monotonicity_check", 0) == 3

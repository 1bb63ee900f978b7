"""The benchmark's tracer still fits the package.

`bench/tracing.py` wraps heisurf functions by name and rebuilds each
competitor with traced ``phi``/``slope``/``phi_y`` fields through
`dataclasses.replace`.  A refactor of ``src/`` that drops a traced name or
turns those fields into methods breaks the benchmark; this test catches it
without running the benchmark.
"""
import importlib.util
import os

import heisurf.families as families
import heisurf.lines as lines
from heisurf.strips import broken_plane

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
    untraced = lines.monotonicity_check(bp, n=200, seed=101)
    assert untraced.max_crossings >= 2  # the census re-counts some lines
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = lines.monotonicity_check(bp, n=200, seed=101)
        hit = lines.crossings(bp, lines.LineSample(0.0, -0.5, 0.0))
    finally:
        tracer.remove()
    assert report == untraced
    assert hit.count == 2
    # the offset-point counter reads the count pass's arguments; the
    # census's re-count and refinement stay inside the crossing kernel
    assert tracer.counters["lines.offset_points"] == 200 * 400
    calls = tracer.summary((0, tracing.Counter()))["calls"]
    assert calls.get("crossings", 0) == 1
    assert calls.get("monotonicity_check", 0) == 1

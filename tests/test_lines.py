"""Line-family geometry, hit sampling, and crossing counts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisurf.core import chord_offset_arr, norm_arr
from heisurf.lines import (
    CalibrationResult,
    LineSample,
    box_volume,
    calibrate_ratio,
    crossing_counts,
    crossings,
    line_ball_distance,
    line_measure_of_ball,
    monotonicity_check,
    perimeter_estimate,
    relative_perimeter,
    sample_lines,
)
from heisurf.strips import PwlProfile, broken_plane, strip_surface

RNG = np.random.default_rng(7)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=math.pi - 1e-9)


@settings(derandomize=True, max_examples=80)
@given(angles, finite, finite)
def test_line_points_are_horizontal_chords(theta, v, w):
    line = LineSample(theta, v, w)
    pts = line.points_at(np.linspace(-2.0, 2.0, 9))
    off = chord_offset_arr(pts[:-1], pts[1:])
    assert np.max(np.abs(off)) < 1e-12


def test_line_through_points_recovers_shortcut_chord():
    # the witness chord of the unit broken plane is a segment of this line
    line = LineSample(0.0, -0.5, 0.0)
    ends = line.points_at([0.5, -0.5])
    assert ends.tolist() == [[0.5, -0.5, 0.125], [-0.5, -0.5, -0.125]]
    # the chord midpoint sits on the line but off the broken plane
    assert line.points_at(0.0).tolist() == [0.0, -0.5, 0.0]


def test_ball_distance_special_cases():
    assert line_ball_distance(0.0, 0.25) == pytest.approx(0.5)
    assert line_ball_distance(0.7, 0.0) == pytest.approx(0.7)
    assert line_ball_distance(0.0, 0.0) == 0.0


def test_ball_distance_matches_grid_minimum():
    vs = RNG.uniform(-2.0, 2.0, size=40)
    ws = RNG.uniform(-6.0, 6.0, size=40)
    ts = np.linspace(-8.0, 8.0, 40001)
    for v, w in zip(vs, ws):
        line = LineSample(0.0, v, w)
        brute = np.min(norm_arr(line.points_at(ts)))
        assert line_ball_distance(v, w) == pytest.approx(brute, abs=1e-6)


def test_sampler_is_deterministic_inside_and_rejects_empty():
    theta, v, w = sample_lines(1.0, 200, seed=3)
    for a, b in zip((theta, v, w), sample_lines(1.0, 200, seed=3)):
        assert np.array_equal(a, b)
    assert theta.shape == v.shape == w.shape == (200,)
    assert np.all(line_ball_distance(v, w) <= 1.0)
    with pytest.raises(ValueError):
        sample_lines(1.0, 0)


def test_measure_scales_like_radius_cubed():
    result = calibrate_ratio(1.0, 2.0, n=120_000, seed=11)
    assert isinstance(result, CalibrationResult)
    assert result.expected == 8.0
    assert abs(result.zscore) < 4.0
    assert result.se < 0.25


def test_measure_is_translation_invariant():
    origin, se0 = line_measure_of_ball(1.0, 150_000, seed=5)
    moved, se1 = line_measure_of_ball(1.0, 150_000, seed=6,
                                      center=(0.6, -0.4, 0.3))
    assert abs(moved - origin) < 3.0 * math.hypot(se0, se1)
    assert se1 < 0.05 * moved


def test_crossings_on_shortcut_chord_line():
    bp = broken_plane(1.0, x_max=1.0)
    # the line through the witness chord (+-1/2, -1/2, +-1/8)
    line = LineSample(0.0, -0.5, 0.0)
    hit = crossings(bp, line)
    assert hit.count == 2
    assert hit.roots == pytest.approx([-0.5, 0.5], abs=1e-6)
    assert not hit.degenerate


def test_plane_crossing_trivia():
    plane = strip_surface(PwlProfile.constant(0.0), x_max=4.0)
    parallel = LineSample(0.0, 1.0, 0.0)  # through (0, 1, 0) along x
    assert crossings(plane, parallel).count == 0
    across = LineSample(math.pi / 2, 0.0, 0.0)  # through the origin along y
    assert crossings(plane, across).count == 1


def test_line_inside_fold_plane_is_not_transversal():
    bp = broken_plane(1.0, x_max=1.0)
    line = LineSample(0.0, 0.0, 0.0)  # the x-axis lies inside the fan
    assert crossings(bp, line).count == 0


def test_vertical_direction_line_crosses_once():
    strip = strip_surface(PwlProfile.from_knots([(-2.0, 2.0), (2.0, -2.0)]),
                          x_max=1.0)
    assert crossings(strip, LineSample(math.pi / 2, 0.5, 0.3)).count == 1


def test_far_line_misses_strip():
    strip = strip_surface(PwlProfile.constant(0.0), x_max=1.0)
    assert crossings(strip, LineSample(0.0, 5.0, 0.0)).count == 0


def test_grazing_pair_is_merged_and_flagged():
    gap = 5e-9
    surface = (lambda pts: (pts[..., 0] - 1.0) * (pts[..., 0] - 1.0 - gap),
               None)
    line = LineSample(0.0, 0.0, 0.0)
    hit = crossings(surface, line, t_window=(1.0 - 4e-9, 1.0 + 9e-9),
                    n_scan=1024)
    assert hit.count == 1
    assert hit.degenerate


def test_graphical_strips_meet_lines_at_most_once():
    # random admissible profiles, random lines: never two transversal hits
    for trial in range(12):
        n = int(RNG.integers(1, 5))
        w = np.concatenate([[0.0], np.cumsum(RNG.uniform(0.2, 2.0, size=n))])
        w = w - w[n // 2]
        slopes = RNG.uniform(-1.9, 1.9, size=n)
        v = np.concatenate([[0.0], np.cumsum(slopes * np.diff(w))])
        sigma = PwlProfile(w, v, RNG.uniform(-1.9, 1.9), RNG.uniform(-1.9, 1.9))
        strip = strip_surface(sigma, x_max=1.0)
        assert strip.is_graphical
        for th, vv, ww in zip(*sample_lines(1.5, 25, seed=100 + trial)):
            line = LineSample(float(th), float(vv), float(ww))
            assert crossings(strip, line, n_scan=600).count <= 1


def test_bulk_counts_match_scalar_counts():
    bp = broken_plane(1.0, x_max=1.0)
    theta, v, w = sample_lines(1.2, 120, seed=21)
    bulk = crossing_counts(bp, theta, v, w, n_scan=400)
    scalar = np.array([
        crossings(bp, LineSample(float(th), float(vv), float(ww)),
                  n_scan=400).count
        for th, vv, ww in zip(theta, v, w)])
    assert np.array_equal(bulk, scalar)


def test_monotonicity_check_passes_admissible_profile():
    sigma = PwlProfile.from_knots([(-2.0, 1.0), (0.0, 0.0), (2.0, 1.0)])
    report = monotonicity_check(sigma, radius=1.5, n=150, seed=2)
    assert report.passed
    assert report.max_crossings <= 1
    assert sum(report.histogram.values()) == 150
    assert report == monotonicity_check(sigma, radius=1.5, n=150, seed=2)


def test_monotonicity_check_flags_broken_plane():
    bp = broken_plane(1.0, x_max=1.0)
    report = monotonicity_check(bp, radius=1.0, n=300, seed=4)
    assert not report.passed
    assert report.max_crossings >= 2
    assert len(report.violations) > 0
    line, roots = report.violations[0]
    assert crossings(bp, line).count >= 2
    assert len(roots) >= 2


def test_relative_perimeter_shares_the_sample():
    plane = strip_surface(PwlProfile.constant(0.0), x_max=1.0)
    bump = strip_surface(PwlProfile.from_knots(
        [(-0.5, 0.0), (0.0, 0.6), (0.5, 0.0)], 0.0, 0.0), x_max=1.0)
    (same_a, _), (same_b, _) = relative_perimeter(plane, plane, 1.0,
                                                  n=2000, seed=8)
    assert same_a == same_b
    (flat, se_flat), (bumped, se_bump) = relative_perimeter(
        plane, bump, 1.0, n=60_000, seed=8)
    assert bumped - flat > 3.0 * math.hypot(se_flat, se_bump)


def test_perimeter_estimate_of_flat_disk():
    # {z = 0, x^2 + y^2 <= 1} has horizontal perimeter pi/3
    disk = (lambda pts: pts[..., 2],
            lambda pts: pts[..., 0] ** 2 + pts[..., 1] ** 2 <= 1.0)
    est, se = perimeter_estimate(disk, radius=1.0, n=9000, seed=9, n_scan=257)
    assert se < 0.06
    assert abs(est - math.pi / 3.0) < 3.5 * se

"""Line-family geometry, hit sampling, and crossing counts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heisurf.lines as lines
from heisurf.core import chord_offset_arr, norm_arr
from heisurf.families import MembershipSlab, sigma_rho_membership
from heisurf.lines import (
    CalibrationResult,
    LineSample,
    _crossings,
    _cut_crossings,
    _line_points,
    _line_polys,
    _merge,
    _poly_roots,
    _window,
    box_volume,
    calibrate_ratio,
    crossing_counts,
    crossings,
    line_ball_distance,
    line_measure_of_ball,
    monotonicity_check,
    sample_lines,
)
from heisurf.strips import (ArctanProfile, BrokenPlane, CallableProfile,
                            PwlProfile, broken_plane, strip_surface)

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
    # two roots of one line 5e-9 apart, within the 1e-8 merge distance
    counts, roots, degenerate = _merge(
        np.zeros(2, dtype=int), 1.0 + np.array([0.0, 5e-9]), np.full(2, 1e-8), 1)
    assert counts.tolist() == [1]
    assert roots.tolist() == [1.0]
    assert degenerate.tolist() == [True]
    # three roots 6e-9 apart: the third is 1.2e-8 from the last kept root,
    # so it stays although it is within 1e-8 of the merged middle one
    counts, roots, degenerate = _merge(
        np.zeros(3, dtype=int), 1.0 + np.array([0.0, 6e-9, 1.2e-8]),
        np.full(3, 1e-8), 1)
    assert counts.tolist() == [2]
    assert roots.tolist() == [1.0, 1.0 + 1.2e-8]
    assert degenerate.tolist() == [True]


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


# recorded from the per-line refinement the crossing kernel replaced: the
# broken plane u = 1 against 2,000 lines of radius 1.5 at seed 101, as
# (theta, v, w) of each witness line and its two roots, bisected to 1e-10
CENSUS_101_WITNESSES = [
    (0.5629207030578826, -0.13871776991974816, -0.061224613946421425,
     (-0.6131925161259058, 0.8827220043020141)),
    (3.0356123662233534, -0.2519048596935569, -0.09100130895370517,
     (-0.2034633118183285, 0.7225053860834469)),
    (0.27592917497158637, 0.6816025159210461, -0.09697296433517977,
     (-0.38078526594294426, 1.2200629364895024)),
    (2.9148454469843537, 0.6279325241177327, 0.053751016789155504,
     (-1.004576606751313, 0.3925029233135843)),
    (3.1246739916841166, -0.7349615338902689, -0.012455286898547246,
     (-0.7105038599235027, 0.7602611143160423)),
    (3.0789210154011317, 0.4790912320628129, -0.030287889300570914,
     (-0.5432468519468906, 0.42251217435656474)),
    (2.573495064939383, -0.28513692414170455, -0.08687580260424621,
     (-0.06295444421977098, 1.2914587136888116)),
    (2.8558727451628627, 0.1404053404297705, 0.010543277221881198,
     (-0.2572069085672154, 0.15018342165866055)),
]


def test_broken_plane_census_is_unchanged_in_few_offset_calls(monkeypatch):
    bp = broken_plane(1.0)
    calls = []
    offset = BrokenPlane.membership_offset

    def counted(self, points):
        calls.append(np.shape(points))
        return offset(self, points)

    monkeypatch.setattr(BrokenPlane, "membership_offset", counted)
    report = monotonicity_check(bp, radius=1.5, n=2000, seed=101)
    assert report.histogram == {0: 672, 1: 1301, 2: 27}
    assert report.degenerate_lines == 0
    assert report.count_method == "exact"
    assert [(line.theta, line.v, line.w) for line, _ in report.violations] \
        == [witness[:3] for witness in CENSUS_101_WITNESSES]
    # the census reads the offset's signs beside the cuts in one call and
    # bisects its witnesses' brackets together, one call a step; a scan, a
    # re-scan and a bisection took 27 calls, refining root by root 1,378
    assert 0 < len(calls) <= 40
    monkeypatch.undo()
    # the scan kernel still reproduces the recorded roots
    theta, v, w = np.array([witness[:3] for witness in CENSUS_101_WITNESSES]).T
    counts, bisected, _ = _crossings(bp, theta, v, w, 800)
    assert counts.tolist() == [2] * len(CENSUS_101_WITNESSES)
    assert bisected == pytest.approx(
        [r for witness in CENSUS_101_WITNESSES for r in witness[3]],
        rel=0.0, abs=1e-12)
    # the census's roots lie within the bisection's tolerance of them
    assert [r for _, roots in report.violations for r in roots] \
        == pytest.approx([r for witness in CENSUS_101_WITNESSES
                          for r in witness[3]], rel=0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# exact counts of piecewise-linear strips, broken planes and PWL slabs


@st.composite
def pwl_profiles(draw, slopes, values=(-1.0, 1.0)):
    """PWL profile with 1-4 knots in [-2.5, 2.5] and every slope drawn."""
    n = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.floats(0.2, 1.5), min_size=n - 1, max_size=n - 1))
    w = np.cumsum([draw(st.floats(-2.5, 0.0))] + gaps)
    s = draw(st.lists(st.floats(*slopes), min_size=n + 1, max_size=n + 1))
    v = np.concatenate([[draw(st.floats(*values))],
                        np.diff(w) * np.asarray(s[1:-1])]).cumsum()
    return PwlProfile(w, v, s[0], s[-1])


piecewise_surfaces = st.one_of(
    pwl_profiles((-1.9, 1.9)).map(strip_surface),
    st.floats(0.0, 3.0, exclude_min=True).map(broken_plane),
    pwl_profiles((0.2, 3.0), (-0.5, 0.5)).map(
        lambda rho: sigma_rho_membership(rho, (0.0, 1.0))))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(piecewise_surfaces, st.integers(0, 2**16))
def test_exact_roots_lie_on_the_surface_and_contain_the_scan(surface, seed):
    theta, v, w = sample_lines(1.5, 120, seed)
    counts, roots, _ = _cut_crossings(surface, theta, v, w)
    multi = counts > 1
    line = np.repeat(np.nonzero(multi)[0], counts[multi])
    pts = _line_points(theta[line], v[line], w[line], roots)
    assert np.all(np.abs(surface.membership_offset(pts)) <= 1e-9)
    # x is evaluated here in another order than in the kernel's window
    assert np.all(np.abs(pts[:, 0]) <= surface.x_max * (1.0 + 1e-12))
    # the scan sees a subset of the transversal crossings
    scanned, _, _ = _crossings(surface, theta, v, w, 4000)
    assert np.all(counts >= scanned)
    # the census verdict does not depend on the count method
    scan_only = MembershipSlab(surface.membership_offset, surface.x_max)
    exact = monotonicity_check(surface, n=120, seed=seed)
    scan = monotonicity_check(scan_only, n=120, seed=seed)
    assert (exact.count_method, scan.count_method) == ("exact", "scan")
    assert exact.passed == scan.passed


def test_line_tangent_to_a_strip_piece_has_no_crossing():
    # along theta = 0, v = 1/4, w = 1/8 the offset of sigma(z) = 8 z is
    # t^2 - t + 1/4 = (t - 1/2)^2: a double root at x = 1/2, where the
    # offset touches zero without changing sign, as the scan also finds
    strip = strip_surface(PwlProfile.line(8.0))
    line = LineSample(0.0, 0.25, 0.125)
    counts, roots, degenerate = _cut_crossings(
        strip, *np.array([[line.theta], [line.v], [line.w]]))
    assert counts.tolist() == [0] and roots.size == 0
    assert degenerate.tolist() == [False]
    assert crossings(strip, line, n_scan=3200).count == 0


def test_lines_through_a_sigma_knot_count_it_once():
    # sigma = 1/2 + |z| crosses its knot z = 0 at the point (1/2, 1/4, 0);
    # lines through it in 64 directions meet the strip there, and only
    # there.  The knot's cut root is the crossing, which the offset's signs
    # beside the root see; at the root itself the offset is zero
    sigma = PwlProfile(np.array([0.0]), np.array([0.5]), -1.0, 1.0)
    strip = strip_surface(sigma)
    theta = np.linspace(0.0, math.pi, 64, endpoint=False)
    cos, sin = np.cos(theta), np.sin(theta)
    t0, v = 0.5 * cos + 0.25 * sin, -0.5 * sin + 0.25 * cos
    w = 0.5 * v * t0
    assert np.abs(_line_points(theta, v, w, t0)
                  - [0.5, 0.25, 0.0]).max() < 1e-15
    counts, roots, degenerate = _cut_crossings(strip, theta, v, w)
    assert counts.tolist() == [1] * 64 and not degenerate.any()
    assert roots.size == 0  # single crossings file no witness roots


def test_pieces_too_short_for_floats_keep_their_crossings():
    # sigma steps from 0 to 4 over a knot gap of 1e-9 or 1e-300: the strip
    # holds the fan {z = 0, 0 <= y/x <= 4} either way, which the exact
    # counts see through sign changes when the piece between the knots is
    # shorter than float spacing along the line
    theta, v, w = sample_lines(1.5, 2000, 5)
    counts = [_cut_crossings(strip_surface(PwlProfile(
        np.array([0.0, gap]), np.array([0.0, 4.0]))), theta, v, w)[0]
        for gap in (1e-9, 1e-300)]
    assert np.array_equal(counts[0], counts[1])
    scanned, _, _ = _crossings(strip_surface(PwlProfile(
        np.array([0.0, 1e-9]), np.array([0.0, 4.0]))), theta, v, w, 4000)
    assert np.all(counts[0] >= scanned) and counts[0].max() == 3


def test_line_inside_the_fan_has_no_exact_crossing():
    # the x-axis lies in the broken plane's fan, where the offset is zero
    counts, roots, _ = _cut_crossings(broken_plane(1.0), np.zeros(1),
                                      np.zeros(1), np.zeros(1))
    assert counts.tolist() == [0] and roots.size == 0


def test_lines_through_an_arctan_strip_axis_count_one():
    # with v = 0 a line passes through the axis x = 0, where the offset of
    # every strip is zero and which is the arctan strip's cut x: the
    # offset's signs beside that root see the crossing there
    strip = strip_surface(ArctanProfile(-1.0))
    theta = np.linspace(0.1, 3.0, 30)
    v, w = np.zeros(30), np.linspace(-1.0, 1.0, 30)
    counts, _, degenerate = _cut_crossings(strip, theta, v, w)
    assert counts.tolist() == [1] * 30 and not degenerate.any()
    for line in zip(theta, v, w):
        assert crossings(strip, LineSample(*line), n_scan=3200).count == 1


# ---------------------------------------------------------------------------
# exact counts of arctan strips and closed-form slabs against the scan


def _dense_counts(surface, theta, v, w, n_scan):
    """`_crossings` at n_scan points per line over each line's whole
    window: its reach (|t| <= 50) is widened to hold every window."""
    reach = float(np.max(np.abs(_window(_line_polys(theta, v, w)[0],
                                        surface.x_max))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lines, "_REACH", max(lines._REACH, reach))
        return _crossings(surface, theta, v, w, n_scan)[0]


def _check_cut_counts(surface, seed):
    """The census's cut counts of 500 lines equal the dense scan's."""
    theta, v, w = sample_lines(1.5, 500, seed)
    counts, roots, _ = _cut_crossings(surface, theta, v, w)
    dense = _dense_counts(surface, theta, v, w, 3200)
    # a line whose two roots share a cell of that grid (as where one of
    # them lies in its 1e-3 padding beyond |x| = x_max) is scanned again,
    # 32 times finer
    for i in np.nonzero(counts != dense)[0]:
        line = theta[i:i + 1], v[i:i + 1], w[i:i + 1]
        assert counts[i] == _dense_counts(surface, *line, 102_400)[0]
    # the witnesses' roots lie on the surface, inside |x| <= x_max (x is
    # evaluated here in another order than in the window)
    multi = counts > 1
    line = np.repeat(np.nonzero(multi)[0], counts[multi])
    pts = _line_points(theta[line], v[line], w[line], roots)
    assert np.all(np.abs(surface.membership_offset(pts)) <= 1e-9)
    assert np.all(np.abs(pts[:, 0]) <= surface.x_max * (1.0 + 1e-12))


#: An increasing closed-form rho whose slope swings from 0.1 to 1.9.
WIGGLE = CallableProfile(lambda m: m + 0.9 * np.sin(m),
                         dfn=lambda m: 1.0 + 0.9 * np.cos(m))

arctan_strips = st.builds(
    lambda k, x_max: strip_surface(ArctanProfile(k), x_max=x_max),
    st.floats(-4.0, 10.0), st.sampled_from((0.5, 1.0, 2.0)))
closed_form_slabs = st.builds(
    sigma_rho_membership,
    # a subnormal k rounds k arctan flat, which the check of rho refuses
    st.floats(0.0, 5.0, exclude_min=True, allow_subnormal=False)
    .map(ArctanProfile) | st.just(WIGGLE),
    st.sampled_from(((0.0, 1.0), (-3.0, 2.0), (-1e3, 1e3))))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(arctan_strips, st.integers(0, 2**16))
def test_arctan_strip_counts_equal_the_dense_scan(surface, seed):
    _check_cut_counts(surface, seed)


@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(closed_form_slabs, st.integers(0, 2**16))
def test_closed_form_slab_counts_equal_the_dense_scan(surface, seed):
    _check_cut_counts(surface, seed)


def test_a_line_crossing_an_arctan_strip_twice_on_one_side_counts_two():
    # x stays in (0.7, 0.9) between the two crossings, and the offset turns
    # between them (sigma' x^2 = 2 at t = -3.0): the window's ends and x = 0
    # alone bracket no sign change
    strip = strip_surface(ArctanProfile(8.0))
    line = LineSample(math.pi / 2 - 0.02, -0.9, 0.0)
    counts, roots, degenerate = _cut_crossings(
        strip, *np.array([[line.theta], [line.v], [line.w]]))
    assert counts.tolist() == [2] and not degenerate.any()
    assert np.all((line.points_at(roots)[:, 0] > 0.7)
                  & (line.points_at(roots)[:, 0] < 0.9))
    dense = crossings(strip, line, n_scan=3200)
    assert dense.count == 2
    assert roots == pytest.approx(dense.roots, rel=0.0, abs=1e-9)


def test_slab_offset_changes_sign_at_most_once_between_its_cuts():
    # the horizontal chords through a point meet the boundary lines at
    # M = (y + 2z) / (2 (1 - x)) and R = (2z - y) / (2 (1 + x)); where
    # a <= M <= b the offset has the sign of rho(M) - R, monotone along the
    # line, and where M < a (M > b) that of the chord clamped at a (b)
    a, b = -3.0, 2.0
    slab = sigma_rho_membership(WIGGLE, (a, b))
    theta, v, w = sample_lines(1.5, 200, 11)
    x, y, z = _line_polys(theta, v, w)
    cuts = slab.line_cuts(x, y, z)
    lo, hi = _window(x, slab.x_max)
    t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 2001)[1:-1]
    px, py, pz = np.moveaxis(_line_points(theta[:, None], v[:, None],
                                          w[:, None], t), -1, 0)
    m = (py + 2.0 * pz) / (2.0 - 2.0 * px)
    r = (2.0 * pz - py) / (2.0 + 2.0 * px)
    sign = np.sign(slab.membership_offset(np.stack([px, py, pz], axis=-1)))
    g = WIGGLE(m) - r
    steps = np.diff(g, axis=1)
    assert np.all((steps <= 1e-12).all(axis=1) | (steps >= -1e-12).all(axis=1))
    inside = (m >= a) & (m <= b)
    assert np.array_equal(sign[inside], np.sign(g[inside]))
    for c, side in ((a, m < a), (b, m > b)):
        clamped = py - 2.0 * c + (px + 1.0) * (c + WIGGLE(c))
        assert np.array_equal(sign[side], np.sign(clamped[side]))
    # the cuts are M = a and M = b
    at = _line_points(theta[:, None, None], v[:, None, None],
                      w[:, None, None], _poly_roots(cuts))
    m_cut = (at[..., 1] + 2.0 * at[..., 2]) / (2.0 - 2.0 * at[..., 0])
    assert np.nanmax(np.abs(m_cut[:, 0] - a)) < 1e-9
    assert np.nanmax(np.abs(m_cut[:, 1] - b)) < 1e-9

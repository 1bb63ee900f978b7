"""Line-family geometry, hit sampling, and crossing counts."""
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import heisurf.cli as cli
import heisurf.lines as lines
from heisurf.core import chord_offset_arr, norm_arr
from heisurf.families import MembershipSlab, sigma_rho_membership
from heisurf.lines import (
    CalibrationResult,
    LineSample,
    _at,
    _count_crossings,
    _line_polys,
    _merge,
    _normalized,
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
from heisurf.profilespec import profile_from_string
from heisurf.strips import (ArctanProfile, BrokenPlane, CallableProfile,
                            ProfileError, PwlProfile, affine_product,
                            broken_plane, constant_poly, is_area_minimizing,
                            strip_surface)

RNG = np.random.default_rng(7)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=math.pi - 1e-9)


def line_points(theta, v, w, ts):
    """Points rot_theta(t, v, w - v t/2) of the lines (theta, v, w) at
    parameters ts (broadcast)."""
    return _at(_line_polys(*np.broadcast_arrays(theta, v, w)),
               np.asarray(ts, dtype=float))


@settings(derandomize=True, max_examples=80)
@given(angles, finite, finite)
def test_line_points_are_horizontal_chords(theta, v, w):
    pts = line_points(theta, v, w, np.linspace(-2.0, 2.0, 9))
    off = chord_offset_arr(pts[:-1], pts[1:])
    assert np.max(np.abs(off)) < 1e-12


def test_line_through_points_recovers_shortcut_chord():
    # the witness chord of the unit broken plane is a segment of this line
    line = LineSample(0.0, -0.5, 0.0)
    ends = line_points(0.0, -0.5, 0.0, [0.5, -0.5])
    assert ends.tolist() == [[0.5, -0.5, 0.125], [-0.5, -0.5, -0.125]]
    # the chord midpoint sits on the line but off the broken plane
    assert line_points(0.0, -0.5, 0.0, 0.0).tolist() == [0.0, -0.5, 0.0]


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
        brute = np.min(norm_arr(line_points(0.0, v, w, ts)))
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


def _measure_of_ball_about(center, radius, n, seed):
    """Monte-Carlo measure of the lines meeting B(center, r), with SE.

    The box is the padded axis-aligned hull of the sheared chart image, so
    agreement with `line_measure_of_ball` about the origin is a real test
    of translation invariance, not an algebraic identity.
    """
    rng = np.random.default_rng(seed)
    gx, gy, gz = center
    r1 = math.hypot(gx, gy)
    vmax = radius + r1
    wmax = 1.5 * radius ** 2 + r1 * vmax + abs(gz) + 0.5 * r1 * r1
    theta = rng.uniform(0.0, math.pi, size=n)
    v = rng.uniform(-vmax, vmax, size=n)
    w = rng.uniform(-wmax, wmax, size=n)
    # shift each line by center^{-1} and test against the origin ball
    cos, sin = np.cos(theta), np.sin(theta)
    a = -(cos * gx + sin * gy)
    b = -(-sin * gx + cos * gy)
    v0 = v + b
    w0 = w + a * v - gz + 0.5 * a * b
    p = float(np.mean(line_ball_distance(v0, w0) <= radius))
    vol = math.pi * 2.0 * vmax * 2.0 * wmax
    return vol * p, vol * math.sqrt(p * (1.0 - p) / n)


def test_measure_is_translation_invariant():
    origin, se0 = line_measure_of_ball(1.0, 150_000, seed=5)
    moved, se1 = _measure_of_ball_about((0.6, -0.4, 0.3), 1.0, 150_000,
                                        seed=6)
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
    # along theta = pi/2, x = -v up to 6.1e-17 t: these lines stay outside
    # |x| <= 1, and the scan's sign changes beyond the window do not count
    for v in (-1.5, 1.5):
        assert crossings(strip, LineSample(math.pi / 2, v, 0.0)).count == 0


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
        assert strip.is_graphical()
        for th, vv, ww in zip(*sample_lines(1.5, 25, seed=100 + trial)):
            line = LineSample(float(th), float(vv), float(ww))
            assert crossings(strip, line, n_scan=600).count <= 1


@pytest.mark.parametrize("sigma, x_max, graphical", [
    (ArctanProfile(-1.0), 1.3, True),
    (ArctanProfile(-1.0), 1.5, False),
    (PwlProfile.line(1.5), 1.0, True),
    (PwlProfile.line(1.5), 1.3, False),
])
def test_the_slope_rule_at_a_half_width_is_the_census_verdict(sigma, x_max,
                                                              graphical):
    # by dilation the rule at half-width x_max is [-2/x_max^2, 2/x_max^2):
    # arctan(-1) breaks it past sqrt(2), linear(1.5) past sqrt(4/3)
    strip = strip_surface(sigma, x_max=x_max)
    assert strip.is_graphical() is is_area_minimizing(strip) is graphical
    report = monotonicity_check(strip, n=100_000, seed=3)
    assert report.passed is graphical
    assert len(report.violations) == (0 if graphical else 8)


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
    assert [(line.theta, line.v, line.w) for line, _ in report.violations] \
        == [witness[:3] for witness in CENSUS_101_WITNESSES]
    # the census reads the offset's signs beside the cuts in one call and
    # bisects its witnesses' brackets together, one call a step; a scan, a
    # re-scan and a bisection took 27 calls, refining root by root 1,378
    assert 0 < len(calls) <= 40
    monkeypatch.undo()
    # the scan kernel still reproduces the recorded roots
    theta, v, w = np.array([witness[:3] for witness in CENSUS_101_WITNESSES]).T
    counts, bisected, _ = _count_crossings(bp, theta, v, w, 800)
    assert counts.tolist() == [2] * len(CENSUS_101_WITNESSES)
    assert bisected == pytest.approx(
        [r for witness in CENSUS_101_WITNESSES for r in witness[3]],
        rel=0.0, abs=1e-12)
    # the census's roots lie within the bisection's tolerance of them
    assert [r for _, roots in report.violations for r in roots] \
        == pytest.approx([r for witness in CENSUS_101_WITNESSES
                          for r in witness[3]], rel=0.0, abs=1e-10)


def _scan_probe_lines(n=2000):
    """n sampled lines and 112 within 1e-2 to 1e-8 of steep, whose
    windows the scan clamps to |t| <= 50."""
    theta, v, w = sample_lines(1.5, n, 11)
    steep = np.array([(math.pi / 2 + sign * 10.0 ** -k, vv, ww)
                      for k in range(2, 9) for sign in (-1, 1)
                      for vv in (-1.4, -0.6, 0.3, 1.2) for ww in (-1.0, 0.5)])
    return [np.concatenate(pair) for pair in zip((theta, v, w), steep.T)]


# sha256 of the scan's counts, roots and degenerate flags at 400 points per
# line (`_count_crossings` with an n_scan) and of its bare counts
# (`crossing_counts`) on the probe lines, recorded from the scan when it had
# a window function of its own with a special rule for steep lines
@pytest.mark.parametrize("surface, digest", [
    (broken_plane(1.0),
     "3c010eba610c93a8edc95dd210d4311af03b3b76c37543694ecc0d224c7bc610"),
    (strip_surface(ArctanProfile(8.0), x_max=2.0),
     "afff6e03382e98dc2b0f0301d263984f7c03788ef2f4cf67282068342a29f17a"),
    (strip_surface(PwlProfile.from_knots([(-1, 1), (0, -1), (1, 1)])),
     "45b9bb8847befd23a8f9cc2bd46b9bef6e72b5e94a51801977013ba3fb62a3ad"),
    (sigma_rho_membership(ArctanProfile(5.0), (-1e3, 1e3)),
     "6735807b5ee93af2246ac5649c017c7cb2dcaac9e745a873d97621b0e1b4666e"),
])
def test_scan_outputs_are_unchanged_on_near_steep_lines(surface, digest):
    theta, v, w = _scan_probe_lines()
    counts, roots, degenerate = _count_crossings(surface, theta, v, w, 400)
    bulk = crossing_counts(surface, theta, v, w, 400)
    sha = hashlib.sha256()
    for array in (counts.astype(np.int64), roots.astype(np.float64),
                  degenerate.astype(bool), bulk.astype(np.int64)):
        sha.update(array.tobytes())
    assert sha.hexdigest() == digest


# the surfaces whose exact outputs are pinned on the probe lines
_PROBE_SURFACES = [
    # positive slopes 0.3, 1.5 and 1.9, all below 2 / x_max^2 = 2
    strip_surface(PwlProfile.from_knots([(-1, 0.5), (0, -0.5), (1, 1.0)],
                                        0.3, 1.9)),
    # of the positive slopes 0.3, 0.4 and 0.8 only 0.8 reaches 2 / 2^2
    strip_surface(PwlProfile.from_knots([(-1, 0.5), (0, -0.5), (1, -0.1)],
                                        0.3, 0.8), x_max=2.0),
    strip_surface(ArctanProfile(8.0), x_max=2.0),
    broken_plane(1.0),
    sigma_rho_membership(ArctanProfile(5.0), (-1e3, 1e3)),
]


# sha256 of the exact kernel's counts, roots and degenerate flags
# (`_count_crossings` with ``least=2``) on the probe lines, recorded before
# the kernel built each chunk's reading points once and dropped the turn
# cuts beyond the slab.  The x_max = 2 PWL strip and arctan(8) were
# re-recorded when the bisection came to stop at each root's own scale:
# their counts and degenerate flags stayed, and their roots on the
# near-steep lines moved by at most 2e-6, inside the old tolerance of 1e-14
# times those lines' windows (up to 4e8 long)
@pytest.mark.parametrize("surface, digest", zip(_PROBE_SURFACES, [
    "58995922b4eae1429015521e9585c9b6bc28fc587881b93d8cc7e2e7d1f8831a",
    "2418a063a310443829566944e15550d03f82e531cb05cbaaf38820efa094d44b",
    "9c0fccdf7a561d942f1a1a7c49256d3b26bfc2e8a793444a850c4c28ec58d713",
    "f96970dd53cc78e2099c45d941bb9b6eec0e885e9f74f807071490aacefe5329",
    "052a03f08ad8417880989cc06e857ec7b6ea80fb4bbab2ea4c9276ea70fa4c50",
]))
def test_exact_outputs_are_unchanged_on_the_probe_lines(surface, digest):
    theta, v, w = _scan_probe_lines()
    counts, roots, degenerate = _count_crossings(surface, theta, v, w,
                                                 least=2)
    sha = hashlib.sha256()
    for array in (counts.astype(np.int64), roots.astype(np.float64),
                  degenerate.astype(bool)):
        sha.update(array.tobytes())
    assert sha.hexdigest() == digest


# sha256, on 8,300 sampled lines and the 112 near-steep ones (three
# 4,096-line kernel chunks), of the exact kernel (`_count_crossings` with
# ``least=2``), of the scan at 400 points per line and of its bare counts
# (`crossing_counts`), recorded before the kernel's chunk loop was merged
# into `_count_crossings`
@pytest.mark.parametrize("surface, digest", zip(_PROBE_SURFACES, [
    "e241b7f2053af791f2c076c901dba6844ce9efcc9b0068417e6685f7f3df71d6",
    "ac7bbac4bb011e71bc819cd5dbb15a20587ea15ffc7857b72a26658f451f6a5c",
    "123de075f9cc3147330a4d4327d4c8f4583db7b38de3d30c1d107bb1b0f1fee5",
    "c149d67b0f6132437acbcc9ad75db2cf744b4580b291ba30b91ee5b448d70ee4",
    "3f452b66812c79df783b2264cfdaaca788b34766cfa321a2a08e6709353d44ec",
]))
def test_the_kernel_is_unchanged_across_chunk_boundaries(surface, digest):
    theta, v, w = _scan_probe_lines(8300)
    assert len(theta) > 2 * lines._CHUNK
    sha = hashlib.sha256()
    for counts, roots, degenerate in (
            _count_crossings(surface, theta, v, w, least=2),
            _count_crossings(surface, theta, v, w, 400)):
        for array in (counts.astype(np.int64), roots.astype(np.float64),
                      degenerate.astype(bool)):
            sha.update(array.tobytes())
    sha.update(crossing_counts(surface, theta, v, w, 400)
               .astype(np.int64).tobytes())
    assert sha.hexdigest() == digest


def test_an_empty_batch_has_empty_counts():
    surface = broken_plane(1.0)
    assert crossing_counts(surface, [], [], [], 400).shape == (0,)
    for n_scan in (None, 400):
        counts, roots, degenerate = _count_crossings(
            surface, *np.empty((3, 0)), n_scan, least=2)
        assert counts.size == roots.size == degenerate.size == 0


def _all_turn_cuts(strip):
    """The strip with every turn cut: k x^2 - 2 (1 + z^2) for sigma =
    k arctan, and for a PWL sigma m x^2 - 2 for every slope m > 0."""
    sigma = strip.sigma

    def cuts(x, y, z):
        if isinstance(sigma, ArctanProfile):
            turn = (sigma.scale * affine_product(x, x)
                    - 2.0 * (constant_poly(1.0) + affine_product(z, z)))
            return np.stack([x, turn], axis=1)
        m = np.unique(sigma.piece_slopes())
        turn = (m[m > 0.0, None] * affine_product(x, x)[:, None, :]
                - constant_poly(2.0))
        return np.concatenate([x[:, None, :],
                               z[:, None, :] - constant_poly(sigma.w), turn],
                              axis=1)
    return MembershipSlab(strip.membership_offset, cuts, strip.x_max)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from((0.5, 1.0, 2.0)),
       st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=4),
       st.floats(-1.0, 1.0), st.integers(0, 2**16), st.floats(-9.0, 3.0))
def test_dropped_turn_cuts_leave_the_exact_counts_unchanged(x_max, offsets,
                                                            value, seed,
                                                            exponent):
    # every slope lies within 1e-9 of 2 / x_max^2, where the turn cuts'
    # roots lie next to the windows' ends: the turn cuts of the slopes
    # below it are dropped, none with a computed root inside a window, and
    # the counts, roots and degenerate flags are those of the whole cut
    # set; where no slope turns the knot cuts drop too, roots inside
    slopes = 2.0 / x_max ** 2 + 1e-9 * np.asarray(offsets)
    w = 0.5 * np.arange(len(slopes) - 1.0) - 0.25 * (len(slopes) - 2)
    v = value + np.concatenate([[0.0], np.cumsum(slopes[1:-1] * 0.5)])
    strip = strip_surface(PwlProfile(w, v, slopes[0], slopes[-1]),
                          x_max=x_max)
    theta, v, w = sample_lines(1.5, 400, seed)
    x, y, z = np.moveaxis(_line_polys(theta, v, w), 1, 0)
    full = _all_turn_cuts(strip)
    every, cuts = full.line_cuts(x, y, z), strip.line_cuts(x, y, z)
    dropped = np.array([not any(np.array_equal(c, k)
                                for k in cuts.swapaxes(0, 1))
                        for c in every.swapaxes(0, 1)])
    m = np.unique(strip.sigma.piece_slopes())
    below = m * x_max ** 2 < 2.0 * (1.0 - 1e-10)
    assert np.count_nonzero(dropped) >= np.count_nonzero(below)
    turn = np.arange(every.shape[1]) > len(strip.sigma.w)
    roots = _poly_roots(_normalized(every[:, dropped & turn]))
    lo, hi = _window(x, x_max)
    inside = (roots > lo[:, None, None]) & (roots < hi[:, None, None])
    assert not inside.any()
    pruned = _count_crossings(strip, theta, v, w, least=2)
    for got, want in zip(pruned,
                         _count_crossings(full, theta, v, w, least=2)):
        assert np.array_equal(got, want)
    # k arctan with k from -1e-9 to -1e3 keeps only the cut x, since its
    # turn cut k x^2 - 2 (1 + z^2) is at most -2; near-steep lines included
    arctan = strip_surface(ArctanProfile(-10.0 ** exponent), x_max=x_max)
    probe = _scan_probe_lines()
    x, y, z = np.moveaxis(_line_polys(*probe), 1, 0)
    assert arctan.line_cuts(x, y, z).shape[1] == 1
    for got, want in zip(_count_crossings(arctan, *probe, least=2),
                         _count_crossings(_all_turn_cuts(arctan), *probe,
                                          least=2)):
        assert np.array_equal(got, want)


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


@st.composite
def rule_strips(draw):
    """A PWL or arctan strip at x_max in {0.5, 1, 2} whose slopes, times
    x_max^2, are drawn from [-3, 0], [-3, 1.9], [-1.9, 1.9], [1, 3] or
    [2, 3]: its highest slope lies on either side of the turning rule, its
    lowest on either side of the slope floor."""
    x_max = draw(st.sampled_from((0.5, 1.0, 2.0)))
    k = 1.0 / (x_max * x_max)
    slopes = draw(st.sampled_from(((-3.0, 0.0), (-3.0, 1.9), (-1.9, 1.9),
                                   (1.0, 3.0), (2.0, 3.0))))
    if draw(st.booleans()):
        sigma = ArctanProfile(k * draw(st.floats(*slopes)))
    else:
        p = draw(pwl_profiles(slopes))
        sigma = PwlProfile(p.w, k * p.v, k * p.slope_left, k * p.slope_right)
    return strip_surface(sigma, x_max=x_max)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(rule_strips(), st.integers(0, 2**16))
@example(strip_surface(PwlProfile.line(-2.5)), 0)
@example(strip_surface(PwlProfile.line(-2.001)), 0)
@example(strip_surface(profile_from_string("samples(-1,0,0,-3,1,-2)")), 0)
def test_the_census_cuts_count_as_every_turn_cut(strip, seed):
    # a strip with no turning slope is read beside the one cut x; its
    # census and the census beside every knot and turn cut give one count
    # and one degenerate flag per line, and roots within the bisection's
    # tolerance, max(1e-10, 1e-14 |root|)
    theta, v, w = sample_lines(1.5, 300, seed)
    x, y, z = np.moveaxis(_line_polys(theta, v, w), 1, 0)
    top = strip.sigma.slope_bounds()[1] * strip.x_max ** 2
    if top < 2.0 * (1.0 - 1e-9):
        assert strip.line_cuts(x, y, z).shape[1] == 1
    oracle = _all_turn_cuts(strip)
    counts, roots, degenerate = _count_crossings(strip, theta, v, w,
                                                 least=2)
    want = _count_crossings(oracle, theta, v, w, least=2)
    assert np.array_equal(counts, want[0])
    assert np.array_equal(degenerate, want[2])
    assert np.all(np.abs(roots - want[1])
                  <= np.maximum(1e-10, 1e-14 * np.abs(want[1])))
    report = monotonicity_check(strip, n=300, seed=seed)
    expected = monotonicity_check(oracle, n=300, seed=seed)
    assert report.histogram == expected.histogram
    assert report.degenerate_lines == expected.degenerate_lines
    assert [line for line, _ in report.violations] == [
        line for line, _ in expected.violations]


def _reading_counts(surface, theta, v, w):
    """Each line's sign changes in the exact readings beside its cuts: its
    true count, with no bisection and no merge."""
    return _count_crossings(surface, theta, v, w, least=math.inf)[0]


@pytest.mark.parametrize("profile, x_max", [
    *((profile, x_max) for profile in (
        "linear(1)", "linear(-2.5)", "samples(-1,0,0,-3,1,-2)", "arctan(1)",
        "arctan(-1)") for x_max in ("1e-200", "1e200")),
    ("linear(0)", "1e300"),
])
def test_a_census_at_an_extreme_width_ends_in_the_true_verdict(
        tmp_path, profile, x_max):
    # neither the reach x_max (1 + 1e-12 (1 + (x0 / x_max)^2)) nor the
    # turning test forms x_max^2, and an offset y - x sigma(z) whose product
    # passes the largest float is the infinity of its sign.  No sampled
    # line meets the strip at 1e-200; at 1e200 every sloped profile has
    # lines crossing it twice, O(1) apart on windows 1e200 long, and the
    # census counts each crossing the readings of every cut see
    code = cli.main(["monotonicity", "--surface", "strip", "--profile",
                     profile, "--x-max", x_max, "--lines", "200",
                     "--output-dir", str(tmp_path)])
    with open(tmp_path / "monotonicity.json", encoding="ascii") as fh:
        payload = json.load(fh)
    assert code == (0 if x_max == "1e-200" or profile == "linear(0)" else 1)
    strip = strip_surface(profile_from_string(profile), x_max=float(x_max))
    counts = _reading_counts(_all_turn_cuts(strip),
                             *sample_lines(payload["radius"], 200,
                                           payload["seed"]))
    assert payload["histogram"] == {
        str(k): int(c) for k, c in enumerate(np.bincount(counts)) if c}
    assert payload["degenerate_lines"] == 0


def test_witness_roots_on_windows_1e200_long_are_bisected_to_their_scale(
        tmp_path):
    # the lines' windows are about 1e200 long; a bisection stopped at 1e-14
    # times that left brackets 2e186 wide and reported the first witness's
    # roots as -0.648 and 1.7e186.  Along a line the offset y - x z of
    # sigma(z) = z is quadratic in t, so the two sign changes a dense scan
    # of |t| <= 100 finds are all of its crossings (the farthest is at 84)
    assert cli.main(["monotonicity", "--surface", "strip", "--profile",
                     "linear(1)", "--x-max", "1e200",
                     "--output-dir", str(tmp_path)]) == 1
    with open(tmp_path / "monotonicity.json", encoding="ascii") as fh:
        payload = json.load(fh)
    assert payload["histogram"] == {"0": 156, "2": 244}
    assert payload["violations"][0]["roots"] == [-0.2792468875495714,
                                                 3.2270977874556355]
    strip = strip_surface(PwlProfile.line(1.0), x_max=1e200)
    for witness in payload["violations"]:
        line = np.array([[witness["theta"]], [witness["v"]], [witness["w"]]])
        roots = _scanned_roots(strip, line, np.linspace(-100.0, 100.0, 6400))
        assert len(roots) == 2 and roots[1] - roots[0] > 1e-8
        assert witness["roots"] == pytest.approx(roots, rel=0.0, abs=1e-9)


def _scanned_roots(surface, line, t):
    """The roots of the membership offset along one line (theta, v, w)
    where its readings at the parameters t change sign, each bisected to
    adjacent floats."""
    polys = _line_polys(*line)

    def offset(t):
        return surface.membership_offset(_at(polys, t[None]))[0]
    f = offset(t)
    i = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
    a, b, fa = t[i], t[i + 1], f[i]
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = offset(m)
        left = np.sign(fm) == np.sign(fa)
        a, b, fa = np.where(left, m, a), np.where(left, b, m), \
            np.where(left, fm, fa)
    return 0.5 * (a + b)


@pytest.mark.parametrize("exponent", [8, 10, 12])
def test_roots_on_a_near_steep_line_merge_at_their_own_scale(exponent):
    # at theta = pi/2 + 10^-exponent the windows are about 2 10^exponent
    # long; a merge distance of 1e-8 times that (2 to 2e4) joined
    # crossings 0.066 or more apart (t = -6.88, -1.20, 7.37 on line 9) and
    # flagged 8, 56 and 56 lines degenerate
    theta, v, w = sample_lines(1.5, 400, 11)
    theta = np.full_like(theta, math.pi / 2 + 10.0 ** -exponent)
    strip = strip_surface(ArctanProfile(8.0), x_max=1.0)
    counts, roots, degenerate = _count_crossings(strip, theta, v, w,
                                                 least=2)
    assert np.array_equal(counts, _reading_counts(strip, theta, v, w))
    assert np.count_nonzero(counts == 3) == 56
    assert not degenerate.any()
    assert np.all(np.diff(roots.reshape(-1, 3), axis=1) > 0.05)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(piecewise_surfaces, st.integers(0, 2**16))
def test_exact_roots_lie_on_the_surface_and_contain_the_scan(surface, seed):
    theta, v, w = sample_lines(1.5, 120, seed)
    counts, roots, _ = _count_crossings(surface, theta, v, w, least=2)
    multi = counts > 1
    line = np.repeat(np.nonzero(multi)[0], counts[multi])
    pts = line_points(theta[line], v[line], w[line], roots)
    assert np.all(np.abs(surface.membership_offset(pts)) <= 1e-9)
    # x is evaluated here in another order than in the kernel's window
    assert np.all(np.abs(pts[:, 0]) <= surface.x_max * (1.0 + 1e-12))
    # the scan sees a subset of the transversal crossings
    scanned, _, _ = _count_crossings(surface, theta, v, w, 4000)
    assert np.all(counts >= scanned)
    # the census verdict is that of a dense scan of the same lines
    exact = monotonicity_check(surface, n=120, seed=seed)
    assert exact.passed == (_dense_counts(surface, theta, v, w, 3200).max()
                            <= 1)


def _histogram(counts):
    bins, sizes = np.unique(counts, return_counts=True)
    return dict(zip(bins.tolist(), sizes.tolist()))


@pytest.mark.parametrize("seed", range(12))
def test_scanned_census_files_lines_as_the_exact_census(seed):
    # a sign change beyond |x| = x_max is no crossing: the dense scan reads
    # the window only, so a line that never meets the strip inside it is
    # filed in bin 0 by both
    v_strip = strip_surface(PwlProfile.from_knots([(-1, 1), (0, -1), (1, 1)]))
    exact = monotonicity_check(v_strip, n=2000, seed=seed)
    dense = _dense_counts(v_strip, *sample_lines(1.5, 2000, seed), 3200)
    assert exact.histogram == _histogram(dense)


def test_line_tangent_to_a_strip_piece_has_no_crossing():
    # along theta = 0, v = 1/4, w = 1/8 the offset of sigma(z) = 8 z is
    # t^2 - t + 1/4 = (t - 1/2)^2: a double root at x = 1/2, where the
    # offset touches zero without changing sign, as the scan also finds
    strip = strip_surface(PwlProfile.line(8.0))
    line = LineSample(0.0, 0.25, 0.125)
    counts, roots, degenerate = _count_crossings(
        strip, *np.array([[line.theta], [line.v], [line.w]]), least=2)
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
    assert np.abs(line_points(theta, v, w, t0)
                  - [0.5, 0.25, 0.0]).max() < 1e-15
    counts, roots, degenerate = _count_crossings(strip, theta, v, w,
                                                 least=2)
    assert counts.tolist() == [1] * 64 and not degenerate.any()
    assert roots.size == 0  # single crossings file no witness roots


def test_pieces_too_short_for_floats_keep_their_crossings():
    # sigma steps from 0 to 4 over a knot gap of 1e-9 or 1e-300: the strip
    # holds the fan {z = 0, 0 <= y/x <= 4} either way, which the exact
    # counts see through sign changes when the piece between the knots is
    # shorter than float spacing along the line
    theta, v, w = sample_lines(1.5, 2000, 5)
    counts = [_count_crossings(strip_surface(PwlProfile(
        np.array([0.0, gap]), np.array([0.0, 4.0]))), theta, v, w,
        least=2)[0]
        for gap in (1e-9, 1e-300)]
    assert np.array_equal(counts[0], counts[1])
    scanned, _, _ = _count_crossings(strip_surface(PwlProfile(
        np.array([0.0, 1e-9]), np.array([0.0, 4.0]))), theta, v, w, 4000)
    assert np.all(counts[0] >= scanned) and counts[0].max() == 3


def test_line_inside_the_fan_has_no_exact_crossing():
    # the x-axis lies in the broken plane's fan, where the offset is zero
    counts, roots, _ = _count_crossings(broken_plane(1.0), np.zeros(1),
                                        np.zeros(1), np.zeros(1), least=2)
    assert counts.tolist() == [0] and roots.size == 0


def test_lines_through_an_arctan_strip_axis_count_one():
    # with v = 0 a line passes through the axis x = 0, where the offset of
    # every strip is zero and which is the arctan strip's cut x: the
    # offset's signs beside that root see the crossing there
    strip = strip_surface(ArctanProfile(-1.0))
    theta = np.linspace(0.1, 3.0, 30)
    v, w = np.zeros(30), np.linspace(-1.0, 1.0, 30)
    counts, _, degenerate = _count_crossings(strip, theta, v, w, least=2)
    assert counts.tolist() == [1] * 30 and not degenerate.any()
    for line in zip(theta, v, w):
        assert crossings(strip, LineSample(*line), n_scan=3200).count == 1


# ---------------------------------------------------------------------------
# exact counts of arctan strips and closed-form slabs against the scan


def _dense_counts(surface, theta, v, w, n_scan):
    """The sign changes of the membership offset read at n_scan points
    across each line's whole window |x| <= x_max, its ends included."""
    polys = _line_polys(theta, v, w)
    lo, hi = _window(polys[:, 0], surface.x_max)
    t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, n_scan)
    sign = np.sign(surface.membership_offset(_at(polys[:, None], t)))
    return np.count_nonzero(sign[:, :-1] * sign[:, 1:] < 0, axis=1)


def _check_cut_counts(surface, seed):
    """The census's cut counts of 500 lines equal the dense scan's."""
    theta, v, w = sample_lines(1.5, 500, seed)
    counts, roots, _ = _count_crossings(surface, theta, v, w, least=2)
    dense = _dense_counts(surface, theta, v, w, 3200)
    # a line whose two roots share a cell of that grid is scanned again,
    # 32 times finer
    for i in np.nonzero(counts != dense)[0]:
        line = theta[i:i + 1], v[i:i + 1], w[i:i + 1]
        assert counts[i] == _dense_counts(surface, *line, 102_400)[0]
    # the witnesses' roots lie on the surface, inside |x| <= x_max (x is
    # evaluated here in another order than in the window)
    multi = counts > 1
    line = np.repeat(np.nonzero(multi)[0], counts[multi])
    pts = line_points(theta[line], v[line], w[line], roots)
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


def _sine(k, slopes):
    """The closed-form profile k sin z, with ``slopes`` declared."""
    return CallableProfile(lambda z: k * np.sin(z),
                           dfn=lambda z: k * np.cos(z), slopes=slopes,
                           name=f"{k!r} sin")


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(st.floats(-1.9, 1.9), st.sampled_from((0.5, 1.0, 2.0)),
       st.floats(2.0, 3.0), st.integers(0, 2**16))
def test_a_closed_form_strip_inside_the_rule_is_counted_exactly(
        amplitude, x_max, over, seed):
    # k sin z with |k| x_max^2 <= 1.9 has its declared slopes [-|k|, |k|]
    # inside the rule, so no slope turns and the one cut is x: the census
    # is exact, and equals a dense scan of the same lines
    k = amplitude / (x_max * x_max)
    strip = strip_surface(_sine(k, (-abs(k), abs(k))), x_max=x_max)
    theta, v, w = sample_lines(1.5, 500, seed)
    counts = _count_crossings(strip, theta, v, w, least=2)[0]
    assert np.array_equal(counts, _dense_counts(strip, theta, v, w, 3200))
    report = monotonicity_check(strip, n=500, seed=seed)
    assert report.histogram == _histogram(counts)
    assert report.passed and report.degenerate_lines == 0
    # a slope that turns on the slab needs turn cuts k sin does not locate
    k = over / (x_max * x_max)
    turning = strip_surface(_sine(k, (-k, k)), x_max=x_max)
    with pytest.raises(ProfileError, match="turn cuts"):
        monotonicity_check(turning, n=50, seed=seed)
    # and undeclared slopes give the census no rule to read
    with pytest.raises(ProfileError, match="not declared"):
        monotonicity_check(_sine(k, None), n=50, seed=seed)
    # a slab hands the census its cuts; it has no default of none
    with pytest.raises(TypeError):
        MembershipSlab(strip.membership_offset)


def test_a_line_crossing_an_arctan_strip_twice_on_one_side_counts_two():
    # x stays in (0.7, 0.9) between the two crossings, and the offset turns
    # between them (sigma' x^2 = 2 at t = -3.0): the window's ends and x = 0
    # alone bracket no sign change
    strip = strip_surface(ArctanProfile(8.0))
    line = LineSample(math.pi / 2 - 0.02, -0.9, 0.0)
    counts, roots, degenerate = _count_crossings(
        strip, *np.array([[line.theta], [line.v], [line.w]]), least=2)
    assert counts.tolist() == [2] and not degenerate.any()
    x = line_points(line.theta, line.v, line.w, roots)[:, 0]
    assert np.all((x > 0.7) & (x < 0.9))
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
    x, y, z = np.moveaxis(_line_polys(theta, v, w), 1, 0)
    cuts = slab.line_cuts(x, y, z)
    lo, hi = _window(x, slab.x_max)
    t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 2001)[1:-1]
    px, py, pz = np.moveaxis(line_points(theta[:, None], v[:, None],
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
    at = line_points(theta[:, None, None], v[:, None, None],
                     w[:, None, None], _poly_roots(cuts))
    m_cut = (at[..., 1] + 2.0 * at[..., 2]) / (2.0 - 2.0 * at[..., 0])
    assert np.nanmax(np.abs(m_cut[:, 0] - a)) < 1e-9
    assert np.nanmax(np.abs(m_cut[:, 1] - b)) < 1e-9

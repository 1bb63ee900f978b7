"""Profiles, exact transforms, graphical strips, and the broken plane."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heisurf.core import chord_offset_arr
from heisurf.families import _PROBES, RuledEntireGraph, scaling_limit
from heisurf.profilespec import ProfileSpec
from heisurf.strips import (
    ArctanProfile,
    BrokenPlane,
    CallableProfile,
    GraphicalStrip,
    ProfileError,
    PwlProfile,
    SolverError,
    _float_mid,
    alpha_to_sigma,
    broken_plane,
    eta_of,
    is_area_minimizing,
    sigma_to_alpha,
    strip_surface,
)

RNG = np.random.default_rng(42)


def triangle_bump() -> PwlProfile:
    return PwlProfile.from_knots([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])


# ---------------------------------------------------------------------------
# profile basics


def test_constant_and_line_profiles():
    c = PwlProfile.constant(2.5)
    assert c(-7.0) == 2.5 and c(3.0) == 2.5
    line = PwlProfile.line(0.5, 1.0)
    assert line(4.0) == pytest.approx(3.0)
    assert line.derivative(-10.0) == 0.5


@pytest.mark.parametrize("w, v, message", [
    # the shape check comes first, then the order, then finiteness
    ([[0.0, 1.0]], [[0.0, 1.0]], "matching non-empty"),
    ([0.0, 1.0], [0.0], "matching non-empty"),
    ([], [], "matching non-empty"),
    ([math.nan, 0.0], [math.inf], "matching non-empty"),
    ([0.0, math.nan, 2.0], [0.0, 0.0, 0.0], "strictly increasing"),
    ([1.0, 0.0], [math.inf, 0.0], "strictly increasing"),
    ([0.0, 1.0], [0.0, math.inf], "knots must be finite"),
    ([0.0, math.inf], [0.0, 1.0], "knots must be finite"),
    ([math.nan], [0.0], "knots must be finite"),
])
def test_knots_are_refused_in_a_fixed_order(w, v, message):
    with pytest.raises(ProfileError, match=message):
        PwlProfile(np.array(w), np.array(v))


def test_a_scalar_knot_becomes_a_one_knot_array():
    p = PwlProfile(1.5, -2.0, 0.5, 0.5)
    assert p.w.shape == p.v.shape == (1,)
    assert (p.w.tolist(), p.v.tolist()) == ([1.5], [-2.0])
    assert p(3.5) == -1.0
    assert PwlProfile(1.5, [-2.0]).v.tolist() == [-2.0]


def test_triangle_bump_evaluation_and_slopes():
    p = triangle_bump()
    assert p(-0.5) == pytest.approx(0.5)
    assert p(0.5) == pytest.approx(0.5)
    assert p(5.0) == 0.0 and p(-5.0) == 0.0
    assert p.derivative(-0.5) == 1.0
    assert p.derivative(0.0) == -1.0  # right-continuous at the knot
    assert p.slope_bounds() == (-1.0, 1.0)


def test_profile_algebra_is_pointwise():
    p = triangle_bump()
    w = RNG.uniform(-3.0, 3.0, size=50)
    assert np.allclose((2.5 * p)(w), 2.5 * p(w), atol=1e-12)


def test_preimage_is_the_leftmost_point_at_a_level():
    # a plateau at level 1 on [1, 2], a rising left tail, a flat right tail
    p = PwlProfile.from_knots([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)],
                              slope_left=0.5, slope_right=0.0)
    assert p.preimages([-1.0, 0.0, 0.25, 1.0]).tolist() == [
        -2.0, 0.0, 0.25, 1.0]
    assert np.isnan(p.preimages([1.5])).all()


def _reference_preimage(p, v):
    """The per-level preimage: the first knot at level v, the interpolant
    on the piece rising through it, a tail's root, or None."""
    w, vals = p.w, p.v
    if v < vals[0]:
        return (float(w[0] - (vals[0] - v) / p.slope_left)
                if p.slope_left > 0 else None)
    if v > vals[-1]:
        return (float(w[-1] + (v - vals[-1]) / p.slope_right)
                if p.slope_right > 0 else None)
    i = int(np.searchsorted(vals, v, side="left"))
    if vals[i] == v:
        return float(w[i])
    frac = (v - vals[i - 1]) / (vals[i] - vals[i - 1])
    return float(w[i - 1] + frac * (w[i] - w[i - 1]))


def test_preimages_read_each_level_in_its_own_branch_only():
    # 1e10 / 1e-300 would overflow in the left tail's arithmetic, and
    # warnings are errors here
    p = PwlProfile(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1e-300, 1.0)
    levels = [-1.0, 0.5, 1e10]
    assert p.preimages(levels).tolist() == [_reference_preimage(p, v)
                                            for v in levels]


@st.composite
def nondecreasing_profiles(draw):
    """1-5 knots on a 1/4 grid, rises drawn from {0, 1/4, ..., 1} and
    random values (so plateaus and levels shared with other profiles
    occur), and tails that are flat or rise."""
    n = draw(st.integers(1, 5))
    w = np.cumsum(draw(st.lists(st.integers(1, 4), min_size=n,
                                max_size=n))) * 0.25 - 1.5
    rise = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                   st.floats(0.0, 2.0)),
                         min_size=n - 1, max_size=n - 1))
    v = draw(st.sampled_from([-0.5, 0.0, 0.25])) + np.concatenate(
        [[0.0], np.cumsum(rise)])
    tails = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0]),
                      st.floats(1e-3, 3.0))
    return PwlProfile(w, v, draw(tails), draw(tails))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(nondecreasing_profiles(), nondecreasing_profiles())
def test_preimages_are_the_per_level_loop(outer, inner):
    # another profile's knots as levels, which fall below, on and above the
    # inner knots, plateaus and flat tails (no preimage) included
    levels = np.concatenate([outer.w, inner.v, inner.v + 0.125])
    want = [_reference_preimage(inner, v) for v in levels]
    got = inner.preimages(levels)
    assert [None if math.isnan(g) else g for g in got.tolist()] == want


# ---------------------------------------------------------------------------
# the questions a profile answers, against dense evaluation

#: Slopes of the drawn pieces and tails, the rule's ends -2 and 2 included.
#: Knots lie on a grid of quarters and every value is a dyadic sum, so each
#: piece's slope is exact and distinct slopes differ by at least 0.5.
SLOPES = (-3.0, -2.5, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
#: The oracle's heights: a grid of 1/64 that holds every drawn knot, with
#: room for a tail on both sides; an infinite end of an interval is read at
#: its edge.
GRID = np.arange(-16.0, 16.0 + 1.0 / 128.0, 1.0 / 64.0)
ENDS = (-math.inf, -3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.5, 4.0, math.inf)


@st.composite
def samples_specs(draw):
    slopes = st.sampled_from(SLOPES)
    w = draw(st.sampled_from((-2.0, -1.0, 0.0, 0.5)))
    v = draw(st.sampled_from((-1.0, 0.0, 1.5)))
    points = [(w, v)]
    for _ in range(draw(st.integers(0, 4))):
        gap = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))
        w, v = w + gap, v + draw(slopes) * gap
        points.append((w, v))
    return ProfileSpec("samples", {"points": points,
                                   "slope_left": draw(slopes),
                                   "slope_right": draw(slopes)})


def _spec(kind, *names):
    return lambda *values: ProfileSpec(kind, dict(zip(names, values)))


PROFILE_SPECS = st.one_of(
    samples_specs(),
    st.builds(_spec("linear", "slope", "intercept"), st.sampled_from(SLOPES),
              st.sampled_from((-1.0, 0.0, 1.5))),
    st.builds(_spec("triangle-bump", "height", "halfwidth"),
              st.sampled_from((-2.0, -1.0, 0.5, 1.0, 2.0, 3.0)),
              st.sampled_from((0.25, 0.5, 1.0, 2.0))),
    st.builds(_spec("broken-plane-alpha", "u"),
              st.sampled_from((0.0, 0.5, 1.0, 2.0))),
    st.builds(_spec("constant", "value"), st.sampled_from((-1.0, 0.0, 0.7))),
    st.builds(_spec("arctan", "scale"),
              st.sampled_from((-3.0, -2.0, -0.5, 0.5, 2.0, 3.0))),
)


def _grid_slopes(profile):
    """Difference quotients of the profile on the cells of `GRID`."""
    return np.diff(np.asarray(profile(GRID), dtype=float)) * 64.0


def _check_where_slope(spec, profile):
    if spec.kind == "arctan":
        s = profile.scale
        assert profile.where_slope(s) == (0.0, 0.0)
        h = 1e-6
        assert (profile(h) - profile(-h)) / (2 * h) == pytest.approx(s)
        for z in (-1e-2, 1e-2):
            outside = (profile(z + h) - profile(z - h)) / (2 * h)
            assert abs(outside - s) > 1e-6
        return
    cells = _grid_slopes(profile)
    mid = GRID[:-1] + 1.0 / 128.0
    for s in np.unique(cells.round(9)):
        a, b = profile.where_slope(float(s))
        inside = (mid > a) & (mid < b)
        assert inside.any() and np.allclose(cells[inside], s, atol=1e-9)
        # the run is the first one, and it is maximal on both sides
        assert not np.any(np.isclose(cells[mid < a], s, atol=1e-9))
        if math.isfinite(b):
            assert not math.isclose(cells[np.searchsorted(mid, b)], s,
                                    abs_tol=1e-9)


def _expected_direction(profile, a, b):
    z = GRID[(GRID >= a) & (GRID <= b)]
    d = np.diff(np.asarray(profile(z), dtype=float))
    return 1 if np.all(d > 0.0) else -1 if np.all(d <= 0.0) else 0


def _check_tail_limits(profile):
    lo, hi = profile.tail_limits()
    for limit, z in ((lo, -1e15), (hi, 1e15)):
        value = float(profile(z))
        if math.isinf(limit):
            assert math.copysign(1.0, value) == math.copysign(1.0, limit)
            assert abs(value) > 1e14
        else:
            assert value == pytest.approx(limit, rel=1e-12, abs=1e-300)
    return lo, hi


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(PROFILE_SPECS, st.sampled_from(ENDS), st.sampled_from(ENDS))
@example(ProfileSpec("linear", {"slope": 2.0}), -math.inf, math.inf)
@example(ProfileSpec("linear", {"slope": -2.0}), -1.0, 1.0)
@example(ProfileSpec("arctan", {"scale": -2.0}), -math.inf, 0.0)
# an interval that ends on a knot, where the next piece turns
@example(ProfileSpec("triangle-bump", {"height": 1.0, "halfwidth": 1.0}),
         -0.5, 0.0)
@example(ProfileSpec("samples", {"points": [(0.0, 0.0), (1.0, 2.0),
                                            (2.0, 2.0), (3.0, 0.0)],
                                 "slope_left": -2.0, "slope_right": 2.0}),
         0.25, 2.5)
def test_profiles_answer_as_their_dense_evaluation_does(spec, a, b):
    profile = spec.build()
    _check_where_slope(spec, profile)
    if a != b:
        a, b = min(a, b), max(a, b)
        assert profile.direction(a, b) == _expected_direction(profile, a, b)
    lo, hi = _check_tail_limits(profile)
    if _expected_direction(profile, -math.inf, math.inf) == -1:
        report = scaling_limit(RuledEntireGraph(profile))
        assert (report.kind == "plane") == (lo == hi)


# ---------------------------------------------------------------------------
# transforms between slope and graph profiles


@st.composite
def admissible_sigma(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    gaps = np.asarray(draw(st.lists(st.floats(0.1, 4.0), min_size=n,
                                    max_size=n)))
    interior = np.asarray(draw(st.lists(st.floats(-1.95, 1.95), min_size=n,
                                        max_size=n)))
    ends = draw(st.tuples(st.floats(-1.95, 1.95), st.floats(-1.95, 1.95)))
    w = np.concatenate([[0.0], np.cumsum(gaps)])
    v = np.concatenate([[0.0], np.cumsum(interior * gaps)])
    return PwlProfile(w, v, ends[0], ends[1])


@given(admissible_sigma())
@settings(derandomize=True, max_examples=60)
def test_transform_roundtrip_is_exact(sigma):
    back = alpha_to_sigma(sigma_to_alpha(sigma))
    assert np.allclose(back.w, sigma.w, atol=1e-10)
    assert np.allclose(back.v, sigma.v, atol=1e-10)
    assert back.slope_left == pytest.approx(sigma.slope_left, abs=1e-10)
    assert back.slope_right == pytest.approx(sigma.slope_right, abs=1e-10)


def test_transform_slope_maps():
    sigma = PwlProfile.line(1.0)
    alpha = sigma_to_alpha(sigma)
    assert alpha.derivative(0.0) == pytest.approx(2.0)
    steep = PwlProfile.line(-2.0)  # slope -2 is admissible on this side
    assert sigma_to_alpha(steep).derivative(0.0) == pytest.approx(-1.0)
    assert alpha_to_sigma(PwlProfile.line(-1.0)).derivative(0.0) == \
        pytest.approx(-2.0)


def test_transforms_keep_surface_points():
    sigma = PwlProfile.from_knots([(-1.0, 0.4), (1.0, -0.8)],
                                  slope_left=0.0, slope_right=1.2)
    alpha = sigma_to_alpha(sigma)
    # alpha is the graph value along x = 1: at w = z - sigma(z)/2.
    for z in (-2.0, -1.0, -0.3, 0.9, 2.4):
        w = z - float(sigma(z)) / 2.0
        assert float(alpha(w)) == pytest.approx(float(sigma(z)), abs=1e-12)


def test_fan_and_fold_profiles_are_refused():
    fan = PwlProfile.from_knots([(-0.5, 1.0), (0.5, -1.0)])
    with pytest.raises(ProfileError, match="plateau"):
        alpha_to_sigma(fan)
    fold = PwlProfile.from_knots([(-0.5, 1.0), (0.5, -2.0)])
    with pytest.raises(ProfileError, match="not graphical"):
        alpha_to_sigma(fold)
    with pytest.raises(ProfileError, match="height change"):
        sigma_to_alpha(PwlProfile.line(2.0))


def test_eta_is_the_height_map():
    alpha = triangle_bump()
    eta = eta_of(alpha)
    w = RNG.uniform(-3.0, 3.0, size=40)
    assert np.allclose(eta(w), w + alpha(w) / 2.0, atol=1e-12)
    assert eta.derivative(-0.5) == pytest.approx(1.5)
    assert eta.derivative(0.5) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# graphical strips


def test_strip_points_and_membership():
    strip = GraphicalStrip(PwlProfile.line(0.5))
    x = RNG.uniform(-1.0, 1.0, size=30)
    z = RNG.uniform(-2.0, 2.0, size=30)
    pts = np.stack([x, x * strip.sigma(z), z], axis=-1)
    assert np.all(np.abs(strip.membership_offset(pts)) < 1e-14)
    off = pts.copy()
    off[:, 1] += 1e-3
    assert np.all(np.abs(strip.membership_offset(off)) > 1e-9)


def test_only_the_offsets_product_may_overflow():
    # x sigma(z) past the largest float is the infinity of its sign; a
    # sigma that overflows by itself is still a floating-point fault
    wide = GraphicalStrip(PwlProfile.line(1.0), x_max=1e200)
    pts = np.array([[1e200, 0.0, 1e200], [-1e200, 0.0, 1e200]])
    assert wide.membership_offset(pts).tolist() == [-math.inf, math.inf]
    steep = GraphicalStrip(PwlProfile.line(10.0))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        steep.membership_offset(np.array([1.0, 0.0, 1e308]))


def test_strip_rulings_are_horizontal_lines():
    strip = GraphicalStrip(triangle_bump())
    assert strip.sigma(0.5) == pytest.approx(0.5)
    ts = np.linspace(-1.0, 1.0, 7)
    ruling = np.stack([ts, ts * strip.sigma(0.5), np.full_like(ts, 0.5)],
                      axis=-1)
    assert np.all(np.abs(strip.membership_offset(ruling)) <= 1e-12)
    assert np.max(np.abs(chord_offset_arr(ruling[:1], ruling))) <= 1e-14


def strip_graph(sigma, x, zp):
    """Graph function of a strip: x sigma(z) at the ruling height of (x, z')."""
    return x * np.asarray(sigma(sigma.solve(-0.5 * x * x, zp)))


def test_graph_field_matches_closed_form():
    sigma = PwlProfile.line(-1.0)
    x = RNG.uniform(-1.0, 1.0, size=25)
    zp = RNG.uniform(-1.0, 1.0, size=25)
    expected = -x * zp / (1.0 + 0.5 * x * x)
    assert np.allclose(strip_graph(sigma, x, zp), expected, atol=1e-9)


def test_graph_field_points_lie_on_strip():
    sigma = PwlProfile.from_knots([(-0.5, 0.3), (0.5, -0.6)],
                                  slope_left=-1.5, slope_right=1.0)
    strip = GraphicalStrip(sigma)
    x = RNG.uniform(-1.0, 1.0, size=40)
    zp = RNG.uniform(-2.0, 2.0, size=40)
    vals = strip_graph(sigma, x, zp)
    pts = np.stack([x, vals, zp + 0.5 * x * vals], axis=-1)
    assert np.all(np.abs(strip.membership_offset(pts)) < 1e-9)


def test_nongraphical_strip_refuses_graph_field():
    strip = GraphicalStrip(PwlProfile.line(2.5))
    assert not strip.is_graphical()
    # z - x^2 sigma(z)/2 decreases at x = 1: no ruling height to solve for
    with pytest.raises(SolverError):
        strip.sigma.solve(-0.5, 0.0)


# ---------------------------------------------------------------------------
# the equation solver, against a plain bisection oracle


def bisect_reference(f, q, c, lo, hi, steps=200):
    """200 halvings of [lo, hi] for w + q f(w) = c (left side increasing,
    root inside [lo, hi])."""
    q, c = np.broadcast_arrays(np.asarray(q, dtype=float),
                               np.asarray(c, dtype=float))
    a = np.full(c.shape, float(lo))
    b = np.full(c.shape, float(hi))
    for _ in range(steps):
        m = 0.5 * (a + b)
        below = m + q * np.asarray(f(m), dtype=float) < c
        a = np.where(below, m, a)
        b = np.where(below, b, m)
    return 0.5 * (a + b)


def assert_matches(got, ref):
    got = np.asarray(got, dtype=float)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12


GRAPHICAL_PWL = PwlProfile.from_knots(
    [(-1.0, 0.2), (-0.3, 0.9), (0.4, -0.4), (1.5, 0.3)],
    slope_left=-1.5, slope_right=1.9)


@pytest.mark.parametrize("window", [
    (-0.3, 0.4),    # knots on both edges
    (-0.5, 1.0),    # knots inside
    (2.0, 3.0),     # every knot to the left
    (-5.0, -2.0),   # every knot to the right
    (-1e3, 1e3),    # wide
])
def test_pwl_solve_matches_bisection(window):
    # heights around the window put the roots among, left of and right of
    # the knots
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, 4000)
    lo, hi = window
    span = hi - lo
    zp = rng.uniform(lo - 0.5 * span - 1.0, hi + 0.5 * span + 1.0, 4000)
    q = -0.5 * x * x
    got = GRAPHICAL_PWL.solve(q, zp)
    assert_matches(got, bisect_reference(GRAPHICAL_PWL, q, zp, -1e6, 1e6))


def test_pwl_solve_is_exact_on_one_piece():
    line = PwlProfile.line(1.0)
    assert line.solve(0.5, 0.75) == 0.5
    assert line.solve(-0.5, -2.0) == -4.0
    assert np.shape(line.solve(0.0, np.zeros((2, 3)))) == (2, 3)


@pytest.mark.parametrize("sigma, x_max", [
    (GRAPHICAL_PWL, 1.0),
    # a non-increasing profile keeps the ruling equation monotone for all x
    (CallableProfile(lambda z: -np.arctan(z),
                     dfn=lambda z: -1.0 / (1.0 + np.asarray(z) ** 2)), 20.0),
], ids=["pwl", "arctan(-1)"])
def test_unbounded_ruling_height_matches_bisection(sigma, x_max):
    rng = np.random.default_rng(11)
    x = rng.uniform(-x_max, x_max, 3000)
    zp = rng.uniform(-500.0, 500.0, 3000)
    ref = bisect_reference(sigma, -0.5 * x * x, zp, -1e6, 1e6)
    got = sigma.solve(-0.5 * x * x, zp)
    assert_matches(got, ref)
    residual = got - 0.5 * x * x * np.asarray(sigma(got)) - zp
    assert np.max(np.abs(residual) / np.maximum(1.0, np.abs(zp))) < 1e-12


def rising_profile() -> CallableProfile:
    """2z - 2 atan z: at x = 1 the left side z - sigma(z)/2 is atan z."""
    return CallableProfile(
        lambda z: 2.0 * z - 2.0 * np.arctan(z),
        dfn=lambda z: 2.0 - 2.0 / (1.0 + np.asarray(z) ** 2))


def step_profile() -> CallableProfile:
    """The step of acceptance gate 7: 1 below zero, -1 above, 0 at 0."""
    return CallableProfile(
        lambda z: np.where(np.asarray(z) < 0.0, 1.0,
                           np.where(np.asarray(z) > 0.0, -1.0, 0.0)),
        name="step")


@pytest.mark.parametrize("sigma", [
    ArctanProfile(-1.0),
    ArctanProfile(-8.0),
    step_profile(),
    CallableProfile(lambda z: -np.arctan(z)),  # slopes by differences
    # steep at 0: the roots near 0 lie far inside brackets up to 1e302 wide
    ArctanProfile(-1e30),
    ArctanProfile(-1e300),
], ids=["arctan(-1)", "arctan(-8)", "step", "-arctan-no-dfn", "arctan(-1e30)",
        "arctan(-1e300)"])
def test_ruling_height_lies_in_the_bracket_of_the_contract(sigma):
    # the probe points of `scaling_limit` at each dilation t, then random
    # points: for q <= 0 and a non-increasing sigma the root is within
    # |q sigma(c)| of c
    t = np.repeat([2.0, 4.0, 8.0, 16.0], len(_PROBES))
    rng = np.random.default_rng(5)
    x = np.concatenate([t * np.tile(_PROBES[:, 0], 4),
                        rng.uniform(-20.0, 20.0, 3000)])
    zp = np.concatenate([t * t * np.tile(_PROBES[:, 1], 4),
                         rng.uniform(-500.0, 500.0, 3000)])
    q = -0.5 * x * x
    got = sigma.solve(q, zp)
    r = np.abs(q * np.asarray(sigma(zp)))
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - zp) <= r + 8.0 * eps * (r + np.abs(zp)))
    assert_matches(got, bisect_reference(sigma, q, zp, -1e6, 1e6))


@settings(derandomize=True, database=None, max_examples=200)
@given(st.floats(allow_nan=False), st.floats(allow_nan=False))
def test_float_midpoints_halve_the_floats_between_the_ends(a, b):
    lo, hi = np.array([min(a, b)]), np.array([max(a, b)])
    mid = _float_mid(lo, hi)
    assert lo <= mid <= hi
    # the ends' positions in the order of the floats, counted from 0
    pos = [np.sign(v) * np.abs(v).view(np.int64).astype(float)
           for v in (lo, mid, hi)]
    assert abs((pos[1] - pos[0]) - (pos[2] - pos[1])) <= 1.0 + 1e-3 * (
        pos[2] - pos[0])


def test_float_midpoints_reach_adjacent_floats_in_64_halvings():
    lo, hi = np.array([-1e300, 5e-324, 1.0]), np.array([1e300, 1e300, 3.0])
    for _ in range(64):
        mid = _float_mid(lo, hi)
        lo, hi = np.where(mid < 0.5, mid, lo), np.where(mid < 0.5, hi, mid)
    assert np.all(np.nextafter(lo, np.inf) >= hi)


def test_a_rising_profile_is_outside_the_bracket():
    # atan(z) = 1 has the root tan(1), but sigma rises, and tan(1) lies
    # beyond the bracket 1 + |sigma(1)|/2 the contract gives
    with pytest.raises(SolverError):
        rising_profile().solve(-0.5, 1.0)


def test_ruling_height_without_a_root_raises():
    # x = 1: z - sigma(z)/2 = atan(z) never reaches 5
    bounded = rising_profile()
    with pytest.raises(SolverError):
        bounded.solve(-0.5, np.array([0.0, 5.0, 1.0]))
    # slope 2 at x = 1: the left side is flat, no height solves it
    with pytest.raises(SolverError):
        PwlProfile.line(2.0, 1.0).solve(-0.5, 0.0)


# ---------------------------------------------------------------------------
# broken plane


def test_broken_plane_value_and_membership():
    bp = broken_plane(1.0)
    assert bp.value(1.0, 0.25) == pytest.approx(-0.5)
    assert bp.value(1.0, 0.75) == pytest.approx(-1.0)
    assert bp.value(1.0, -0.75) == pytest.approx(1.0)
    upper = np.array([0.7, -0.7, 0.3])
    lower = np.array([0.7, 0.7, -0.3])
    sector = np.array([0.8, 0.5, 0.0])
    for p in (upper, lower, sector):
        assert bp.membership_offset(p) == pytest.approx(0.0, abs=1e-12)
    assert abs(bp.membership_offset(np.array([0.7, 0.6, 0.3]))) > 1e-9


def test_broken_plane_witness_chord_is_frozen():
    bp = broken_plane(1.0)
    p = np.array([0.5, -0.5, 0.125])
    q = np.array([-0.5, -0.5, -0.125])
    assert chord_offset_arr(p, q) == 0.0
    assert bp.membership_offset(p) == 0.0 and bp.membership_offset(q) == 0.0
    # chord midpoint (x = 0) lies off the surface: the chord is a shortcut
    mid = np.array([0.0, -0.5, 0.0])
    assert abs(bp.membership_offset(mid)) > 0.1


def test_minimality_classification():
    assert is_area_minimizing(GraphicalStrip(triangle_bump()))
    assert is_area_minimizing(strip_surface(PwlProfile.line(-2.0)))
    assert not is_area_minimizing(GraphicalStrip(PwlProfile.line(2.5)))
    assert not is_area_minimizing(broken_plane(1.0))
    assert is_area_minimizing(broken_plane(0.0))
    with pytest.raises(TypeError):
        is_area_minimizing(object())


@pytest.mark.parametrize("slope, graphical", [
    (-8.0, True), (-8.0000000039, True), (-8.1, False),
    (7.999999, True), (8.0, False),
])
def test_the_slope_rule_at_half_width_one_half_is_four_times_wider(
        slope, graphical):
    # at half-width x_max the rule is [-2/x_max^2, 2/x_max^2), with the
    # tolerance below the floor scaled alike
    strip = strip_surface(PwlProfile.line(slope), x_max=0.5)
    assert strip.is_graphical() is is_area_minimizing(strip) is graphical


@pytest.mark.parametrize("x_max", [1e154, 1e155, 1e200])
@pytest.mark.parametrize("slope, graphical", [
    (0.0, True), (1e-300, False), (-1e-300, False),
])
def test_the_slope_rule_holds_where_x_max_squared_overflows(
        x_max, slope, graphical):
    # x_max^2 is 1e308 at 1e154 and inf from about 1.4e154 on: a zero
    # slope stays inside the rule, as the census of a flat strip finds,
    # and 1e-300 times either is far outside it
    strip = strip_surface(PwlProfile.line(slope), x_max=x_max)
    assert strip.is_graphical() is is_area_minimizing(strip) is graphical


def test_strip_surface_from_alpha_profile():
    strip = strip_surface(PwlProfile.line(2.0), kind="alpha")
    assert float(strip.sigma(3.0)) == pytest.approx(3.0)
    assert strip.is_graphical()


def test_callable_profile_arctan():
    sigma = CallableProfile(np.arctan, dfn=lambda w: 1.0 / (1.0 + w * w),
                            slopes=(0.0, 1.0))
    assert float(sigma.derivative(1.0)) == pytest.approx(0.5)
    noderiv = CallableProfile(np.arctan)
    assert float(noderiv.derivative(1.0)) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ProfileError):
        noderiv.slope_bounds()
    assert GraphicalStrip(sigma).is_graphical()

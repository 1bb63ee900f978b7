"""Profiles, exact transforms, graphical strips, and the broken plane."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisurf.core import chord_offset_arr
from heisurf.strips import (
    BrokenPlane,
    CallableProfile,
    GraphicalStrip,
    ProfileError,
    PwlProfile,
    SolverError,
    _solve_height,
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
    q = PwlProfile.line(0.3, -0.2)
    w = RNG.uniform(-3.0, 3.0, size=50)
    assert np.allclose((p - q)(w), p(w) - q(w), atol=1e-12)
    assert np.allclose((2.5 * p)(w), 2.5 * p(w), atol=1e-12)


def test_inverse_of_increasing_profile():
    p = PwlProfile.from_knots([(0.0, 0.0), (1.0, 2.0), (3.0, 3.0)],
                              slope_left=1.0, slope_right=0.5)
    w = RNG.uniform(-4.0, 6.0, size=50)
    assert np.allclose(p.inverse()(p(w)), w, atol=1e-12)
    with pytest.raises(ProfileError, match="increasing"):
        triangle_bump().inverse()


def test_compose_is_exact():
    p = triangle_bump()
    q = PwlProfile.from_knots([(0.0, -0.5), (2.0, 1.5)],
                              slope_left=0.7, slope_right=2.0)
    comp = p.compose(q)
    w = RNG.uniform(-3.0, 4.0, size=80)
    assert np.allclose(comp(w), p(q(w)), atol=1e-12)


def test_preimage_is_the_leftmost_point_at_a_level():
    # a plateau at level 1 on [1, 2], a rising left tail, a flat right tail
    p = PwlProfile.from_knots([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)],
                              slope_left=0.5, slope_right=0.0)
    assert p.preimage(-1.0) == -2.0
    assert p.preimage(0.0) == 0.0
    assert p.preimage(0.25) == 0.25
    assert p.preimage(1.0) == 1.0
    assert p.preimage(1.5) is None


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
    return x * np.asarray(sigma(_solve_height(sigma, x, zp)))


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
        _solve_height(strip.sigma, 1.0, 0.0)


# ---------------------------------------------------------------------------
# the equation solver, against a plain bisection oracle


def bisect_reference(f, p, q, c, lo, hi, steps=200):
    """200 halvings of [lo, hi] for p w + q f(w) = c (left side increasing).

    Where the left side keeps one sign the halvings run into lo or hi,
    which is the clamp `Profile.solve` promises.
    """
    p, q, c = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                    for a in (p, q, c)))
    a = np.full(c.shape, float(lo))
    b = np.full(c.shape, float(hi))
    for _ in range(steps):
        m = 0.5 * (a + b)
        below = p * m + q * np.asarray(f(m), dtype=float) < c
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
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, 4000)
    lo, hi = window
    span = hi - lo
    # heights reaching past both ends exercise the clamp
    zp = rng.uniform(lo - 0.5 * span - 1.0, hi + 0.5 * span + 1.0, 4000)
    q = -0.5 * x * x
    got = GRAPHICAL_PWL.solve(1.0, q, zp, lo, hi)
    assert_matches(got, bisect_reference(GRAPHICAL_PWL, 1.0, q, zp, lo, hi))
    assert np.any(got == lo) and np.any(got == hi)


def test_pwl_solve_is_exact_on_one_piece():
    line = PwlProfile.line(1.0)
    assert line.solve(0.25, 0.75, 0.5, 0.0, 1.0) == 0.5
    assert line.solve(0.25, 0.75, -2.0, 0.0, 1.0) == 0.0
    assert line.solve(0.25, 0.75, 7.0, 0.0, 1.0) == 1.0
    assert np.shape(line.solve(1.0, 0.0, np.zeros((2, 3)))) == (2, 3)


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
    ref = bisect_reference(sigma, 1.0, -0.5 * x * x, zp, -1e6, 1e6)
    got = _solve_height(sigma, x, zp)
    assert_matches(got, ref)
    residual = got - 0.5 * x * x * np.asarray(sigma(got)) - zp
    assert np.max(np.abs(residual) / np.maximum(1.0, np.abs(zp))) < 1e-12


def test_ruling_height_without_a_root_raises():
    # x = 1: z - sigma(z)/2 = atan(z) never reaches 5
    bounded = CallableProfile(
        lambda z: 2.0 * z - 2.0 * np.arctan(z),
        dfn=lambda z: 2.0 - 2.0 / (1.0 + np.asarray(z) ** 2))
    assert _solve_height(bounded, 1.0, 1.0) == pytest.approx(math.tan(1.0))
    with pytest.raises(SolverError):
        _solve_height(bounded, np.ones(3), np.array([0.0, 5.0, 1.0]))
    # slope 2 at x = 1: the left side is flat, no height solves it
    with pytest.raises(SolverError):
        _solve_height(PwlProfile.line(2.0, 1.0), 1.0, 0.0)


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

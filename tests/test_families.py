"""Blow-down classification, the equal-area spanning family, competitors.

Frozen oracles.  The identity reparametrization over [0, 1] spans with area
(2/3)(2 sqrt 5 + asinh 2) = 3.9438476201189268; that surface coincides with
the strip of profile sigma(z) = -2z, giving an independent quadrature route.
The guide hyperbola with foci (-1, +-u) has semi-axes A = sqrt(u^2+1) - 1 and
B^2 = 2A; at u = 1 its y-intercept is a = -A sqrt(1 + 1/B^2)
= -0.6153695283651586 and the horizontal lift of the arc exits at height
b = 0.6091646732156043 (closed form via the antiderivative
(A/2)(B asinh(w/B) + sqrt(B^2 + w^2)/B), w = x + 1).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisurf.core import chord_offset_arr, project_arr
from heisurf.families import (
    ChordObstructionReport,
    CompetitorSurface,
    RuledEntireGraph,
    broken_plane_area,
    broken_plane_energy,
    broken_plane_graph_value,
    build_competitor,
    chord_obstruction_check,
    competitor_compare,
    hyperbola_constants,
    hyperbola_intercept,
    hyperbola_lift_z,
    hyperbola_slope,
    hyperbola_y,
    patch_area,
    patch_energy,
    scaling_limit,
    sigma_rho_area,
    sigma_rho_area_quadrature,
    sigma_rho_membership,
    sigma_rho_surface,
    tail_slope_limits,
    tangent_bisection_residual,
    wedge_area,
)
from heisurf.lines import monotonicity_check
from heisurf.profilespec import profile_from_string
from heisurf.quadrature import QuadConfig
from heisurf.strips import CallableProfile, GraphicalStrip, ProfileError, PwlProfile
from heisurf.surfaces import strip_patch

AREA_ID = (2.0 / 3.0) * (2.0 * math.sqrt(5.0) + math.asinh(2.0))
A_INTERCEPT_1 = -0.6153695283651586
B_EXIT_1 = 0.6091646732156043

RHO_ID = CallableProfile(lambda z: z, dfn=lambda z: np.ones_like(z), name="id")
RHO_CUBE = CallableProfile(lambda z: z ** 3, dfn=lambda z: 3.0 * z ** 2,
                           name="cube")


def rho_exp(k: float) -> CallableProfile:
    """Strictly increasing reparametrization of [0, 1] fixing both endpoints."""
    k = float(k)
    if k == 0.0:
        return RHO_ID
    den = math.expm1(k)
    return CallableProfile(lambda z: np.expm1(k * z) / den,
                           dfn=lambda z: k * np.exp(k * z) / den,
                           name=f"exp({k})")


def step_profile(u: float) -> CallableProfile:
    """Ruling-slope profile of the broken plane with opening u."""
    return CallableProfile(
        lambda z: np.where(z < 0.0, u, np.where(z > 0.0, -u, 0.0)),
        name=f"step({u})")


# ---------------------------------------------------------------------------
# blow-down classification


def test_constant_profile_classifies_as_plane():
    m = 0.7
    graph = RuledEntireGraph(PwlProfile.constant(m))
    rep = scaling_limit(graph)
    assert rep.kind == "plane"
    assert rep.u == 0.0
    assert rep.theta == pytest.approx(math.atan(m), abs=1e-12)
    assert max(rep.errors) < 1e-9
    assert rep.converged()


def test_step_profile_recovers_broken_plane_opening():
    graph = RuledEntireGraph(step_profile(1.0))
    rep = scaling_limit(graph)
    assert rep.kind == "broken-plane"
    assert rep.theta == pytest.approx(0.0, abs=1e-9)
    assert rep.u == pytest.approx(1.0, abs=1e-9)
    # the graph is exactly self-similar, so every dilation agrees with the
    # limit up to solver resolution
    assert max(rep.errors) < 1e-9
    assert rep.converged()


@pytest.mark.parametrize("profile, u", [
    # tails 1 and -1, where tan((atan 1 - atan(-1))/2) rounds below 1
    (PwlProfile.from_knots([(-1.0, 1.0), (1.0, -1.0)]), 1.0),
    # an infinite tail: +inf and 0, then 3 and -inf
    (PwlProfile.from_knots([(0.0, 0.0)], slope_left=-1.0), 1.0),
    (PwlProfile.from_knots([(0.0, 3.0)], slope_right=-1.0),
     3.0 + math.sqrt(10.0)),
    # tails +-1e200, where 1 + ab overflows
    (PwlProfile.from_knots([(-1.0, 1e200), (1.0, -1e200)]), 1e200),
])
def test_exact_tail_limits_give_an_exact_opening(profile, u):
    assert scaling_limit(RuledEntireGraph(profile)).u == u


def test_arctan_profile_opening_matches_tail_limits():
    graph = RuledEntireGraph(CallableProfile(lambda z: -np.arctan(z)))
    rep = scaling_limit(graph, window=1e3)
    assert rep.kind == "broken-plane"
    assert rep.theta == pytest.approx(0.0, abs=1e-6)
    assert rep.u == pytest.approx(0.5 * math.pi, abs=1e-3)
    assert rep.converged()
    assert rep.errors[-1] < rep.errors[0]


def test_shifted_tails_give_rotated_broken_plane():
    graph = RuledEntireGraph(
        CallableProfile(lambda z: 2.0 - (2.0 / math.pi) * np.arctan(z)))
    rep = scaling_limit(graph)
    assert rep.slope_neg_limit == pytest.approx(3.0, abs=1e-6)
    assert rep.slope_pos_limit == pytest.approx(1.0, abs=1e-6)
    assert rep.theta == pytest.approx(0.5 * (math.atan(3.0) + math.atan(1.0)),
                                      abs=1e-6)
    assert rep.u == pytest.approx(
        math.tan(0.5 * (math.atan(3.0) - math.atan(1.0))), abs=1e-6)
    assert rep.converged()


def test_linear_profile_blows_down_to_vertical_plane():
    graph = RuledEntireGraph(PwlProfile.line(-1.0))
    rep = scaling_limit(graph)
    assert rep.kind == "vertical-plane-limit"
    assert rep.u == math.inf
    assert rep.errors == ()


def test_tail_limits_of_reciprocal_tail_are_extrapolated_exactly():
    lo, hi = tail_slope_limits(CallableProfile(lambda z: -np.arctan(z)))
    assert lo == pytest.approx(0.5 * math.pi, abs=1e-6)
    assert hi == pytest.approx(-0.5 * math.pi, abs=1e-6)


def test_increasing_profile_is_rejected():
    with pytest.raises(ProfileError):
        RuledEntireGraph(CallableProfile(lambda z: np.arctan(z)))


def test_window_too_small_for_dilations_raises():
    graph = RuledEntireGraph(step_profile(1.0))
    with pytest.raises(ValueError, match="window too small"):
        scaling_limit(graph, t_grid=(2.0, 4.0, 8.0, 16.0, 32.0), window=1e3)


def test_limit_graph_rejects_misordered_or_infinite_slopes():
    with pytest.raises(ValueError):
        broken_plane_graph_value(0.0, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        broken_plane_graph_value(math.inf, 0.0, 0.5, 0.5)


def test_step_graph_value_matches_limit_closed_form():
    graph = RuledEntireGraph(step_profile(1.0))
    xs, zs = np.meshgrid(np.linspace(-2, 2, 21), np.linspace(-2, 2, 21))
    got = graph.graph_value(xs, zs)
    want = broken_plane_graph_value(1.0, -1.0, xs, zs)
    assert np.max(np.abs(got - want)) < 1e-9


@settings(derandomize=True, max_examples=50)
@given(st.floats(-3.0, 3.0), st.floats(0.1, 3.0),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_limit_graph_is_self_similar(m, du, x, zp):
    big, small = m + du, m
    t = 2.5
    lhs = broken_plane_graph_value(big, small, t * x, t * t * zp)
    rhs = t * broken_plane_graph_value(big, small, x, zp)
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))


@settings(derandomize=True, max_examples=30)
@given(st.floats(-2.0, 2.0))
def test_every_constant_profile_blows_down_to_its_own_plane(m):
    rep = scaling_limit(RuledEntireGraph(PwlProfile.constant(m)))
    assert rep.kind == "plane"
    assert rep.theta == pytest.approx(math.atan(m) % math.pi, abs=1e-9)


# ---------------------------------------------------------------------------
# the equal-area spanning family


def test_identity_rho_area_closed_form():
    assert AREA_ID == pytest.approx(3.9438476201189268, abs=1e-12)
    assert sigma_rho_area(RHO_ID, 0.0, 1.0) == pytest.approx(AREA_ID, rel=1e-12)


def test_identity_rho_surface_is_the_linear_strip():
    surf = sigma_rho_surface(RHO_ID, (0.0, 1.0))
    assert surf.area() == pytest.approx(AREA_ID, rel=1e-5)
    strip = strip_patch(GraphicalStrip(PwlProfile.line(-2.0)), (0.0, 1.0))
    assert strip.area() == pytest.approx(AREA_ID, rel=1e-5)


def test_cubic_rho_spans_with_exactly_the_same_area():
    assert sigma_rho_area(RHO_CUBE, 0.0, 1.0) == sigma_rho_area(RHO_ID, 0.0, 1.0)
    assert sigma_rho_area_quadrature(RHO_CUBE, 0.0, 1.0) == \
        pytest.approx(AREA_ID, rel=1e-5)


def test_quadrature_route_agrees_for_a_curved_reparametrization():
    rho = rho_exp(1.7)
    assert sigma_rho_area(rho, 0.0, 1.0) == pytest.approx(AREA_ID, rel=1e-12)
    assert sigma_rho_area_quadrature(rho, 0.0, 1.0) == \
        pytest.approx(AREA_ID, rel=1e-5)


def test_every_chord_of_a_curved_member_is_horizontal():
    surf = sigma_rho_surface(rho_exp(-2.3), (0.0, 1.0))
    assert surf.horizontality_residual() < 1e-12


def test_empty_window_is_zero_and_reversed_window_raises():
    assert sigma_rho_area(RHO_ID, 0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        sigma_rho_area(RHO_ID, 1.0, 0.0)
    with pytest.raises(ValueError):
        sigma_rho_surface(RHO_ID, (1.0, 0.0))


def test_decreasing_reparametrization_is_rejected():
    bad = CallableProfile(lambda z: -z, dfn=lambda z: -np.ones_like(z))
    with pytest.raises(ProfileError):
        sigma_rho_area(bad, 0.0, 1.0)


def test_chord_height_interpolates_the_endpoint_heights():
    # the chord from (-1, 2w, w) to (1, -2 rho(w), rho(w)) has intrinsic
    # height z - xy/2 = w (x-1)^2 / 2 + rho(w) (x+1)^2 / 2 at abscissa x
    surface = sigma_rho_surface(RHO_CUBE, (0.0, 1.0))
    w = np.linspace(0.05, 0.95, 7)[:, None]
    pts = surface.point(w, np.linspace(0.0, 1.0, 17)[None, :])
    x = pts[..., 0]
    height = project_arr(pts)[..., 1]
    expected = 0.5 * w * (x - 1.0) ** 2 + 0.5 * w ** 3 * (x + 1.0) ** 2
    assert np.allclose(height, expected, rtol=0.0, atol=1e-14)
    assert np.allclose(height[:, 0], 2.0 * w[:, 0], rtol=0.0, atol=1e-14)
    assert np.allclose(height[:, -1], 2.0 * w[:, 0] ** 3, rtol=0.0,
                       atol=1e-14)


def test_interior_cross_chords_are_never_horizontal():
    rep = chord_obstruction_check(RHO_CUBE, 0.25, 0.75, n=4000, seed=7)
    assert isinstance(rep, ChordObstructionReport)
    assert rep.ok
    assert rep.min_abs_offset > 0.0
    assert rep.corner_offset < 1e-12
    assert rep.n_pairs == 4000


def test_obstruction_check_needs_two_distinct_rulings():
    with pytest.raises(ValueError):
        chord_obstruction_check(RHO_ID, 0.5, 0.5)


def test_membership_offset_vanishes_on_the_surface():
    rho = rho_exp(1.1)
    memb = sigma_rho_membership(rho, (0.0, 1.0))
    z = np.linspace(0.05, 0.95, 40)
    x = np.linspace(-0.95, 0.95, 40)
    r = np.asarray(rho(z))
    y = 2.0 * z - (x + 1.0) * (z + r)
    h = z + 0.5 * (x + 1.0) * (r - z)
    off = memb.membership_offset(np.stack([x, y, h], axis=-1))
    assert np.max(np.abs(off)) < 1e-10


def test_line_census_against_a_spanning_member_is_clean():
    memb = sigma_rho_membership(rho_exp(0.8), (0.0, 1.0))
    rep = monotonicity_check(memb, radius=1.0, n=200, seed=11)
    assert rep.passed
    assert rep.max_crossings <= 1


def sweep_bisection(rho, s, z, lo, hi, steps=200):
    """200 halvings of [lo, hi] for the sweep equation (1-s) w + s rho(w) = z.

    The left side increases, so heights outside its range run into lo or
    hi: the clamp the membership offset relies on.
    """
    s, z = np.broadcast_arrays(np.asarray(s, dtype=float),
                               np.asarray(z, dtype=float))
    a = np.full(z.shape, float(lo))
    b = np.full(z.shape, float(hi))
    for _ in range(steps):
        m = 0.5 * (a + b)
        below = (1.0 - s) * m + s * np.asarray(rho(m), dtype=float) < z
        a = np.where(below, m, a)
        b = np.where(below, b, m)
    return 0.5 * (a + b)


SWEEP_PWL = PwlProfile.from_knots([(-0.4, -0.1), (0.2, 0.5), (0.6, 0.55),
                                   (1.0, 1.4)], slope_left=0.3,
                                  slope_right=2.0)


@pytest.mark.parametrize("rho, window", [
    (SWEEP_PWL, (0.0, 1.0)),         # knots inside and on the edge
    (SWEEP_PWL, (0.2, 0.6)),         # knots on both edges
    (SWEEP_PWL, (1.5, 4.0)),         # every knot to the left
    (SWEEP_PWL, (-3.0, -1.0)),       # every knot to the right
    (SWEEP_PWL, (-1e3, 1e3)),
    (profile_from_string("id"), (0.0, 1.0)),
    (profile_from_string("arctan(1)"), (0.0, 1.0)),
    (profile_from_string("arctan(1)"), (-1e3, 1e3)),
    (rho_exp(0.8), (0.0, 1.0)),
], ids=["pwl-inside", "pwl-edges", "pwl-left", "pwl-right", "pwl-wide",
        "id", "arctan(1)", "arctan(1)-wide", "exp(0.8)"])
def test_sweep_parameter_solve_matches_bisection(rho, window):
    rng = np.random.default_rng(5)
    a, b = window
    s = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 3998)])
    lo_h = min(float(rho(a)), a)
    hi_h = max(float(rho(b)), b)
    pad = 0.25 * (hi_h - lo_h) + 0.5
    z = rng.uniform(lo_h - pad, hi_h + pad, 4000)
    got = np.asarray(rho.solve(1.0 - s, s, z, a, b), dtype=float)
    ref = sweep_bisection(rho, s, z, a, b)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12
    assert np.any(got == a) and np.any(got == b)


# recorded from the 60-step bisection the exact solvers replaced:
# 500 lines, radius 1.5, 400 scan points, as in the benchmark's census
CENSUS_HISTOGRAMS = {
    ("id", 3): {0: 192, 1: 308},
    ("id", 20210518): {0: 176, 1: 324},
    ("arctan(1)", 3): {0: 197, 1: 303},
    ("arctan(1)", 20210518): {0: 187, 1: 313},
}


@pytest.mark.parametrize("spec, seed", sorted(CENSUS_HISTOGRAMS))
def test_sigma_rho_census_histograms_are_unchanged(spec, seed):
    memb = sigma_rho_membership(profile_from_string(spec), (0.0, 1.0))
    rep = monotonicity_check(memb, radius=1.5, n=500, seed=seed)
    assert dict(rep.histogram) == CENSUS_HISTOGRAMS[spec, seed]


@settings(derandomize=True, max_examples=60)
@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_boundary_to_boundary_chords_are_horizontal_for_any_pairing(z, r):
    p = np.array([-1.0, 2.0 * z, z])
    q = np.array([1.0, -2.0 * r, r])
    assert abs(float(chord_offset_arr(p, q))) < 1e-12


@settings(derandomize=True, max_examples=25)
@given(st.floats(-2.5, 2.5))
def test_endpoint_data_determines_the_spanning_area(k):
    assert sigma_rho_area(rho_exp(k), 0.0, 1.0) == \
        pytest.approx(AREA_ID, rel=1e-12)


# ---------------------------------------------------------------------------
# the guide hyperbola and the competitor surfaces


def test_hyperbola_constants_at_unit_opening():
    a_axis, b2 = hyperbola_constants(1.0)
    assert a_axis == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)
    assert b2 == pytest.approx(2.0 * a_axis, abs=1e-15)


def test_hyperbola_passes_through_the_far_corner_and_focal_property():
    for u in (0.5, 1.0, 2.0):
        assert hyperbola_y(u, 1.0) == pytest.approx(-u, abs=1e-12)
        a_axis, _ = hyperbola_constants(u)
        x = np.linspace(0.0, 1.0, 33)
        y = hyperbola_y(u, x)
        d_up = np.hypot(x + 1.0, y - u)
        d_lo = np.hypot(x + 1.0, y + u)
        assert np.max(np.abs((d_up - d_lo) - 2.0 * a_axis)) < 1e-12


def test_intercept_value_and_position_below_the_nexus():
    assert hyperbola_intercept(1.0) == pytest.approx(A_INTERCEPT_1, abs=1e-15)
    a_axis, b2 = hyperbola_constants(1.0)
    recomputed = -a_axis * math.sqrt(1.0 + 1.0 / b2)
    assert hyperbola_intercept(1.0) == pytest.approx(recomputed, abs=1e-15)
    for u in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert hyperbola_intercept(u) < -0.5 * u


def test_lift_height_matches_numeric_integration_of_the_lift_ode():
    for u in (0.5, 1.0, 2.0):
        x = np.linspace(0.0, 1.0, 200_001)
        y = hyperbola_y(u, x)
        dy = hyperbola_slope(u, x)
        integrand = 0.5 * (x * dy - y)
        ref = -0.5 * hyperbola_intercept(u) + \
            np.concatenate([[0.0], np.cumsum((integrand[1:] + integrand[:-1])
                                             * 0.5 * np.diff(x))])
        got = hyperbola_lift_z(u, x[:: 10_000])
        assert np.max(np.abs(got - ref[:: 10_000])) < 1e-9


def test_exit_height_frozen_value_and_range():
    assert hyperbola_lift_z(1.0, 1.0) == pytest.approx(B_EXIT_1, abs=1e-12)
    assert 0.5 < B_EXIT_1 < 1.0
    assert hyperbola_lift_z(1.0, 0.0) == pytest.approx(-0.5 * A_INTERCEPT_1,
                                                       abs=1e-15)


def test_tangent_bisects_the_focal_chords():
    for u in (0.5, 1.0, 2.0):
        assert tangent_bisection_residual(u) < 1e-8


def spine(kind: str, u: float, x) -> np.ndarray:
    """Points (x, y, z) of a competitor's spine, the horizontal lift of its
    guide: the nexus y = -u(1+x)/2 at height u(1+x)/4, or the hyperbola
    arc at `hyperbola_lift_z`."""
    x = np.asarray(x, dtype=float)
    if kind == "harmonic":
        return np.stack([x, -0.5 * u * (1.0 + x), 0.25 * u * (1.0 + x)],
                        axis=-1)
    return np.stack([x, hyperbola_y(u, x), hyperbola_lift_z(u, x)], axis=-1)


@pytest.mark.parametrize("kind", ["harmonic", "minimal"])
@pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
def test_spine_chords_are_horizontal(kind, u):
    # consecutive spine points span horizontal chords up to the
    # arc-to-chord sliver ~|y''| dx^3 / 12 of the curved guide
    points = spine(kind, u, np.linspace(0.0, 1.0, 4097))
    assert np.max(np.abs(chord_offset_arr(points[:-1], points[1:]))) < 1e-12


def test_harmonic_slope_balance_holds_and_is_harmonic_only():
    comp = build_competitor("harmonic", 1.0)
    assert comp.nexus_slope_residual() < 1e-12
    with pytest.raises(ValueError):
        build_competitor("minimal", 1.0).nexus_slope_residual()


def test_competitor_anchor_points():
    # the spine runs from the apex (0, apex_y, -apex_y/2) to the far
    # corner (1, -u, exit_height), and the graph passes through both
    h = build_competitor("harmonic", 1.0)
    assert (h.apex_y, h.exit_height) == (-0.5, 0.5)
    m = build_competitor("minimal", 1.0)
    assert m.apex_y == pytest.approx(A_INTERCEPT_1, abs=1e-12)
    assert m.exit_height == pytest.approx(B_EXIT_1, abs=1e-12)
    for comp in (h, m):
        ends = spine(comp.kind, 1.0, [0.0, 1.0])
        assert np.allclose(ends, [[0.0, comp.apex_y, -0.5 * comp.apex_y],
                                  [1.0, -1.0, comp.exit_height]])
        assert np.allclose(comp.phi(ends[:, 0], ends[:, 1]), ends[:, 2])


@pytest.mark.parametrize("kind", ["harmonic", "minimal"])
def test_graph_function_is_continuous_across_the_seams(kind):
    comp = build_competitor(kind, 1.0)
    eps = 1e-9
    # fan chords, x <= 0
    x = np.linspace(-0.9, -0.05, 23)
    for side in (-1.0, 1.0):
        yc = comp.apex_y + (comp.apex_y - side * comp.u) * x
        jump = comp.phi(x, yc + eps) - comp.phi(x, yc - eps)
        assert np.max(np.abs(jump)) < 1e-7
    # sweep guide, x > 0
    x = np.linspace(0.05, 0.9, 23)
    guide = (-0.5 * (1.0 + x) if kind == "harmonic"
             else hyperbola_y(1.0, x))
    jump = comp.phi(x, guide + eps) - comp.phi(x, guide - eps)
    assert np.max(np.abs(jump)) < 1e-7


def test_graph_function_interpolates_spine_and_boundary_heights():
    comp = build_competitor("minimal", 1.0)
    sp = spine("minimal", 1.0, np.linspace(0.0, 1.0, 65))
    assert np.max(np.abs(comp.phi(sp[:, 0], sp[:, 1]) - sp[:, 2])) < 1e-10
    h = build_competitor("harmonic", 1.0)
    sp = spine("harmonic", 1.0, np.linspace(0.0, 1.0, 4097))
    assert np.max(np.abs(h.phi(sp[:, 0], sp[:, 1]) - sp[:, 2])) < 1e-12
    # the wedge top edge y = -u x is the doubling seam: one horizontal
    # segment at the exit height for either sweep
    x = np.linspace(-0.95, 0.95, 31)
    for c in (comp, h):
        assert np.max(np.abs(c.phi(x, -x) - c.exit_height)) < 1e-10


@pytest.mark.parametrize("kind", ["harmonic", "minimal"])
def test_y_partial_closed_form_matches_differencing(kind):
    comp = build_competitor(kind, 1.0)
    rng = np.random.default_rng(5)
    for reg in comp.regions.values():
        xs = rng.uniform(reg.x0 + 0.05, reg.x1 - 0.05, 120)
        lo, hi = reg.bounds(xs)
        keep = hi - lo > 0.2
        xs = xs[keep]
        ys = lo[keep] + (hi - lo)[keep] * rng.uniform(0.3, 0.7, keep.sum())
        h = 1e-6
        fd = (comp.phi(xs, ys + h) - comp.phi(xs, ys - h)) / (2.0 * h)
        assert np.max(np.abs(fd - comp.phi_y(xs, ys))) < 1e-8


@pytest.mark.parametrize("kind", ["harmonic", "minimal"])
def test_spine_is_a_characteristic_curve(kind):
    comp = build_competitor(kind, 1.0)
    sp = spine(kind, 1.0, np.linspace(0.0, 1.0, 4097)[1:-1:97])
    res = np.abs(comp.phi_y(sp[:, 0], sp[:, 1]) - 0.5 * sp[:, 0])
    assert np.max(res) < 1e-12


def test_patch_area_agrees_with_the_differencing_route():
    from heisurf.graphs import zgraph_area

    comp = build_competitor("minimal", 1.0)
    cfg = QuadConfig(rel_tol=1e-3, max_levels=8, n0=4)
    fd_total = sum(zgraph_area(comp.phi, reg, cfg=cfg)
                   for reg in comp.regions.values())
    assert patch_area(comp) == pytest.approx(fd_total, rel=1e-2)


def test_build_competitor_validates_inputs():
    with pytest.raises(ValueError):
        build_competitor("fan", 1.0)
    with pytest.raises(ValueError):
        build_competitor("minimal", 0.0)


# ---------------------------------------------------------------------------
# window bookkeeping and the comparison


def test_reference_patch_values_at_unit_opening():
    assert wedge_area(1.0) == pytest.approx(
        (math.sqrt(2.0) + math.asinh(1.0)) / 3.0, abs=1e-15)
    assert broken_plane_area(1.0, 2.0) == pytest.approx(
        wedge_area(1.0) + 8.0 * math.sqrt(2.0), abs=1e-12)
    assert broken_plane_energy(1.0, 2.0) == pytest.approx(1.0 / 9.0 + 4.0,
                                                          abs=1e-15)


@pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
def test_both_competitors_beat_the_broken_plane(u):
    rep = competitor_compare(u)
    assert rep.area_margin > 0.0
    assert rep.energy_margin > 0.0
    assert rep.area_competitor == pytest.approx(
        2.0 * (rep.area_pieces["patch"] + rep.area_pieces["flats"]
               + rep.area_pieces["wall"]), rel=1e-12)
    assert rep.energy_competitor == pytest.approx(
        2.0 * (rep.energy_pieces["patch"] + rep.energy_pieces["wall"]),
        rel=1e-12)


def test_comparison_pieces_at_unit_opening_are_pinned():
    # recorded from the separate harmonic and minimal builders the shared
    # sweep replaced; the patch pieces are quadratures of phi_y and slope
    rep = competitor_compare(1.0)
    assert rep.area_pieces["patch"] == pytest.approx(1.7764093892167814,
                                                     rel=1e-12)
    assert rep.area_pieces["flats"] == pytest.approx(0.2183293464312086,
                                                     rel=1e-12)
    assert rep.energy_pieces["patch"] == pytest.approx(0.45327126877516938,
                                                       rel=1e-12)
    assert rep.area_margin == pytest.approx(0.22167401548856169, rel=1e-12)


def test_margins_do_not_depend_on_the_window_height():
    # the cap's bands cancel between the sides; at 1e300 they would swamp
    # the margins if the margins were taken as differences of the totals
    r1 = competitor_compare(1.0, z_cap=2.0)
    for z_cap in (5.0, 1e300):
        r2 = competitor_compare(1.0, z_cap=z_cap)
        assert r1.area_margin == r2.area_margin
        assert r1.energy_margin == r2.energy_margin
    assert r1.area_margin == pytest.approx(
        r1.area_reference - r1.area_competitor, abs=1e-14)
    assert r1.energy_margin == pytest.approx(
        r1.energy_reference - r1.energy_competitor, abs=1e-14)


def test_window_below_the_sweep_exit_is_rejected():
    with pytest.raises(ValueError):
        competitor_compare(1.0, z_cap=0.5)


def test_energy_of_the_harmonic_patch_is_less_than_the_fan_band():
    # doubled patch + wall vs fan + planes, piece by piece sanity
    rep = competitor_compare(1.0)
    assert rep.energy_pieces["patch"] < rep.energy_pieces["reference_fan"] + \
        rep.energy_pieces["reference_planes"]
    assert patch_energy(build_competitor("harmonic", 1.0)) == pytest.approx(
        rep.energy_pieces["patch"], rel=1e-9)

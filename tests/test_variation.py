"""Closed-form deformed areas and the second-variation experiment.

Frozen oracles.  For the flat profile (alpha = 0) deformed by the unit tent
tau on [-1, 1], the deformed slope is linear on each side with peak -lam, and
the half-strip area over any window containing the support satisfies

    A(lam tau) - A(0) = 2 G(lam)/lam - 2,
    A(lam) + A(-lam) - 2 A(0) = 2 (sqrt(1+lam^2) + asinh(lam)/lam - 2)
                              = (2/3) lam^2 - (1/10) lam^4 + ...

matching II(tent) = int (1-|w|)^2 dw = 2/3.  Shifting the strip to alpha = 1
divides II by 2^{3/2}.  For the fan-edge profile alpha = clamp(-2w, -1, 1)
the middle piece carries weight (1 + alpha') = -1 and contributes
-int dw/(1+4w^2)^{3/2} = -1/sqrt(2), giving II = -1/sqrt(2) + 2^{-3/2}(2/3):
negative, so that surface admits an area-decreasing ruled deformation.
"""
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heisurf import variation
from heisurf.strips import ProfileError, PwlProfile, eta_of
from heisurf.surfaces import RuledSurface
from heisurf.variation import (
    SecondVariationResult,
    delta_profile,
    g_primitive,
    ruled_area_closed_form,
    second_variation,
    second_variation_experiment,
    zeta_profile,
)

TENT = PwlProfile.from_knots([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
ZERO = PwlProfile.constant(0.0)
FAN_EDGE = PwlProfile.from_knots([(-0.5, 1.0), (0.5, -1.0)])


def deformed_surface(alpha, tau, lam, window, half=True):
    """Ambient ruled patch of the strip alpha deformed by lam tau: rulings
    at heights eta(w) with plane slope delta(w), from the axis (half) or
    from x = -1, to x = 1."""
    eta, delta = eta_of(alpha), delta_profile(alpha, tau * lam)
    x = 0.0 if half else -1.0
    return RuledSurface((x, x, delta, eta), (1.0, 1.0, delta, eta), window)


def auto_window(alpha, tau):
    """The working window the experiment picks for (alpha, tau)."""
    return second_variation_experiment(alpha, tau).window


def test_zeta_profile_shifts_heights():
    zeta = zeta_profile(TENT)
    assert float(zeta(-1.0)) == -1.0
    assert float(zeta(0.0)) == -0.5
    assert float(zeta(1.0)) == 1.0
    assert zeta.derivative(-0.5) == pytest.approx(0.5)
    assert zeta.derivative(0.5) == pytest.approx(1.5)
    with pytest.raises(ProfileError, match="too steep"):
        zeta_profile(3.0 * TENT)


def test_delta_profile_peaks_at_minus_lambda():
    lam = 0.3
    delta = delta_profile(ZERO, lam * TENT)
    assert float(delta(-lam / 2.0)) == pytest.approx(-lam, abs=1e-14)
    assert float(delta(-1.0)) == pytest.approx(0.0, abs=1e-14)
    assert float(delta(1.0)) == pytest.approx(0.0, abs=1e-14)
    assert float(delta(-2.0)) == 0.0 and float(delta(2.0)) == 0.0


def test_closed_form_area_matches_exact_formula():
    for lam in (0.3, -0.45, 0.9):
        area = ruled_area_closed_form(ZERO, lam * TENT, (-2.0, 2.0))
        expected = 2.0 + 2.0 * g_primitive(lam) / lam
        assert area == pytest.approx(expected, abs=1e-12)


def test_area_window_only_adds_flat_measure():
    lam = 0.25
    small = ruled_area_closed_form(ZERO, lam * TENT, (-2.0, 2.0))
    large = ruled_area_closed_form(ZERO, lam * TENT, (-5.0, 5.0))
    assert large - small == pytest.approx(6.0, abs=1e-12)


def test_sweep_reversal_is_refused():
    # rising strip plus a steeply falling deformation folds the sweep back
    rising = PwlProfile.line(1.8)
    steep = -3.0 * PwlProfile.from_knots([(-1.0, 0.0), (0.0, 1.0), (3.0, 0.0)])
    with pytest.raises(ProfileError, match="sweep reverses"):
        ruled_area_closed_form(rising, steep, (-4.0, 4.0))


def test_second_variation_of_flat_strip():
    assert second_variation(ZERO, TENT) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_second_variation_of_shifted_strip():
    one = PwlProfile.constant(1.0)
    expected = (2.0 / 3.0) / 2.0 ** 1.5
    assert second_variation(one, TENT) == pytest.approx(expected, abs=1e-12)


def test_second_variation_of_fan_edge_profile_is_negative():
    value = second_variation(FAN_EDGE, TENT)
    expected = -1.0 / math.sqrt(2.0) + (2.0 / 3.0) / 2.0 ** 1.5
    assert value == pytest.approx(expected, abs=1e-12)
    assert value < 0


def test_experiment_on_flat_strip_matches_all_oracles():
    res = second_variation_experiment(ZERO, TENT)
    assert res.second_variation == pytest.approx(2.0 / 3.0, abs=1e-12)
    for lam, d in zip(res.lambdas, res.delta_areas):
        exact = 2.0 * (math.sqrt(1.0 + lam * lam)
                       + math.asinh(lam) / lam - 2.0)
        assert d == pytest.approx(exact, abs=1e-12)
    # the two-term even fit carries a small lam^6 bias
    assert res.quadratic_fit == pytest.approx(2.0 / 3.0, abs=2e-6)
    assert res.quartic_fit == pytest.approx(-0.1, abs=1e-2)
    assert 3.5 < res.residual_order < 4.5
    assert res.consistent()


def test_experiment_on_tilted_strip():
    alpha = PwlProfile.line(-2.0 / 3.0)  # edge profile of sigma(z) = -z
    res = second_variation_experiment(alpha, TENT)
    assert res.quadratic_fit == pytest.approx(res.second_variation, rel=1e-6)
    assert res.residual_order > 2.7
    assert res.consistent()


def test_closed_form_agrees_with_patch_quadrature():
    alpha = PwlProfile.line(-2.0 / 3.0)
    window = auto_window(alpha, TENT)
    lam = 0.3
    closed = ruled_area_closed_form(alpha, TENT * lam, window)
    quad_half = deformed_surface(alpha, TENT, lam, window).area()
    assert quad_half == pytest.approx(closed, rel=2e-5)
    quad_full = deformed_surface(alpha, TENT, lam, window, half=False).area()
    assert quad_full == pytest.approx(2.0 * closed, rel=2e-5)


def test_auto_window_covers_support():
    assert second_variation_experiment(ZERO, TENT).window == (-3.0, 3.0)
    with pytest.raises(ProfileError, match="compactly supported"):
        second_variation_experiment(ZERO, PwlProfile.line(1.0))


def test_fan_edge_deformation_handles_the_plateau_heights_exactly():
    # the fan edge maps its whole middle piece to one ruling height
    # (eta' = 1 + alpha'/2 = 0); the deformed profile pulls the plateau
    # through the generalized inverse, shifting the fan down by
    # lam tau(zeta^{-1}(0)) while keeping the slope -2 piece intact.
    # Here zeta(w) = w - 0.2 tau(w) fixes w* = 1/11, tau(w*) = 5/11.
    tau = PwlProfile.from_knots([(-1.0, 0.0), (0.0, 0.5), (1.0, 0.0)])
    delta = delta_profile(FAN_EDGE, tau * 0.4)
    assert isinstance(delta, PwlProfile)
    assert float(delta(0.0)) == pytest.approx(-2.0 / 11.0, abs=1e-12)
    assert (float(delta(0.4)) - float(delta(-0.4))) / 0.8 == pytest.approx(
        -2.0, abs=1e-12)
    assert float(delta(-2.0)) == 1.0 and float(delta(2.0)) == -1.0


def test_fan_edge_closed_form_area_matches_patch_quadrature():
    window = auto_window(FAN_EDGE, TENT)
    for lam in (0.0, 0.3):
        closed = ruled_area_closed_form(FAN_EDGE, TENT * lam, window)
        quad = deformed_surface(FAN_EDGE, TENT, lam, window).area()
        assert quad == pytest.approx(closed, rel=2e-5)


def test_fan_edge_experiment_decreases_area_at_the_predicted_rate():
    # plateaued sweeps add an odd |lam|^3 residual, so the fitted
    # coefficient lands a couple of percent above the analytic value and
    # the residual order drops from ~4 to ~3
    res = second_variation_experiment(FAN_EDGE, TENT)
    assert res.second_variation < 0
    assert all(d < 0 for d in res.delta_areas)
    assert res.quadratic_fit == pytest.approx(res.second_variation, rel=0.05)
    assert 2.7 <= res.residual_order <= 3.3
    assert not res.consistent()  # the default 1e-4 gate is for smooth taus
    assert res.consistent(rel_tol=0.05)


def test_compose_is_refused_for_a_decreasing_inner_profile():
    falling = PwlProfile.from_knots([(-1.0, 1.0), (1.0, -1.0)])
    with pytest.raises(ProfileError, match="nondecreasing inner"):
        TENT.compose(falling)


def test_deformed_sweep_near_the_fan_edge_stays_injective():
    # deform a steep (but nondegenerate) edge profile by a half-height
    # tent: the rulings' intrinsic projections are the parabolas
    # x -> eta(w) - x^2 delta(w) / 2, and the sweep stays injective while
    # the density eta' - x^2 delta'/2 keeps one sign on |x| <= 1
    alpha = PwlProfile.from_knots([(-0.5, 0.9), (0.5, -0.9)])
    tau = PwlProfile.from_knots([(-1.0, 0.0), (0.0, 0.5), (1.0, 0.0)])
    window = auto_window(alpha, tau)
    lam = 0.4
    eta = eta_of(alpha)
    delta = delta_profile(alpha, tau * lam)
    w = np.linspace(window[0], window[1], 2001)
    d_eta = np.diff(eta(w))
    d_delta = np.diff(np.asarray(delta(w)))
    assert np.all(d_eta > 0.0)
    assert np.all(d_eta - 0.5 * d_delta > 0.0)

    surf = deformed_surface(alpha, tau, lam, window, half=False)
    ws = np.linspace(window[0], window[1], 41)
    ss = np.linspace(0.0, 1.0, 11)
    pts = np.stack([surf.point(np.full_like(ss, wv), ss) for wv in ws])
    flat = pts.reshape(-1, 3)
    # Pi(x, y, z) = (x, z - xy/2), applied arraywise
    proj = np.stack([flat[:, 0],
                     flat[:, 2] - 0.5 * flat[:, 0] * flat[:, 1]], axis=-1)
    diff = proj[:, None, :] - proj[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1e-4


# ---------------------------------------------------------------------------
# the array kernels against the per-piece loops they replaced


def reference_area(alpha, tau, window):
    """`ruled_area_closed_form` as a per-piece loop of scalar evaluations."""
    a, b = map(float, window)
    if not b > a:
        raise ValueError("empty window")
    delta = delta_profile(alpha, tau)
    eta = eta_of(alpha)
    cuts = np.concatenate([[a], delta.w[(delta.w > a) & (delta.w < b)], [b]])
    total = 0.0
    for w0, w1 in zip(cuts[:-1], cuts[1:]):
        d0 = float(delta(w0))
        d1 = float(delta(w1))
        mid = 0.5 * (w0 + w1)
        ep = float(eta.derivative(mid))
        g = (d1 - d0) / (w1 - w0)
        if g > 2.0 * ep:
            raise ProfileError("ruling sweep reverses: deformation too large")
        if abs(d1 - d0) < 1e-8 * (1.0 + abs(d0)):
            dm = 0.5 * (d0 + d1)
            total += ep * math.sqrt(1.0 + dm * dm) * (w1 - w0)
        else:
            total += ep * (g_primitive(d1) - g_primitive(d0)) / g
    total -= (g_primitive(float(delta(b))) - g_primitive(float(delta(a)))) / 6.0
    return total


def reference_second_variation(alpha, tau, window):
    """`second_variation` as a per-piece loop of 40-node quadratures."""
    a, b = map(float, window)
    eta = eta_of(alpha)
    cuts = {a, b}
    cuts.update(float(w) for w in alpha.w if a < w < b)
    base = np.unique(np.concatenate([[a], alpha.w[(alpha.w > a) & (alpha.w < b)],
                                     [b]]))
    for w0, w1 in zip(base[:-1], base[1:]):
        e0, e1 = float(eta(w0)), float(eta(w1))
        for v in tau.w:
            if (e0 - v) * (e1 - v) < 0:
                cuts.add(w0 + (v - e0) / (e1 - e0) * (w1 - w0))
    cuts = np.array(sorted(cuts))
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(40)
    total = 0.0
    for w0, w1 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (w0 + w1)
        slope = float(alpha.derivative(mid))
        nodes = mid + 0.5 * (w1 - w0) * gl_nodes
        weights = 0.5 * (w1 - w0) * gl_weights
        avals = np.asarray(alpha(nodes))
        tvals = np.asarray(tau(np.asarray(eta(nodes))))
        total += float(np.sum(
            weights * tvals ** 2 * (1.0 + slope)
            / (1.0 + avals ** 2) ** 1.5))
    return total


def experiment_outcome(alpha, tau):
    try:
        return second_variation_experiment(alpha, tau)
    except ProfileError as exc:
        return f"ProfileError: {exc}"


@st.composite
def strip_profiles(draw):
    """PWL alpha with 1-7 knots, every slope above -1, each tail flat or
    sloped."""
    n = draw(st.integers(1, 7))
    w = sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n,
                             unique=True)))
    slopes = draw(st.lists(st.floats(-1.0, 3.0, exclude_min=True),
                           min_size=n + 1, max_size=n + 1))
    v = [draw(st.floats(-2.0, 2.0))]
    for w0, w1, s in zip(w, w[1:], slopes[1:]):
        v.append(v[-1] + s * (w1 - w0))
    left, right = (s if draw(st.booleans()) else 0.0
                   for s in (slopes[0], slopes[-1]))
    return PwlProfile(np.array(w), np.array(v), left, right)


@st.composite
def triangle_bumps(draw):
    centre = draw(st.floats(-2.0, 2.0))
    half = draw(st.floats(0.05, 2.0))
    height = draw(st.floats(-3.0, 3.0))
    return PwlProfile.from_knots([(centre - half, 0.0), (centre, height),
                                  (centre + half, 0.0)])


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(strip_profiles(), triangle_bumps())
# a tau too steep for the largest lambda
@example(ZERO, PwlProfile.from_knots([(-0.05, 0.0), (0.0, 3.0), (0.05, 0.0)]))
def test_experiment_equals_the_per_piece_loops(alpha, tau):
    # every float of the experiment, and every refusal, is what the
    # per-piece loops give
    got = experiment_outcome(alpha, tau)
    with mock.patch.object(variation, "ruled_area_closed_form",
                           reference_area), \
            mock.patch.object(variation, "second_variation",
                              reference_second_variation):
        want = experiment_outcome(alpha, tau)
    assert got == want
    assert repr(got) == repr(want)  # the signs of zeros too


def test_an_exact_quadratic_model_has_no_residual_order():
    # alpha' = -1 throughout: II and every area excess are exactly 0.0
    res = second_variation_experiment(PwlProfile.line(-1.0), TENT)
    assert res.second_variation == 0.0
    assert res.delta_areas == (0.0,) * 4
    assert res.residual_order is None
    assert res.consistent()
    # one nonzero residual still fits an order
    assert second_variation_experiment(ZERO, TENT).residual_order is not None


_ORACLES_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import test_families, test_variation
test_variation.test_experiment_equals_the_per_piece_loops()
test_families.test_scaling_limit_errors_are_the_per_t_deviations()
"""


def test_the_oracles_do_not_depend_on_the_cpu_dispatch(without_dispatch):
    # the array kernels equal the per-piece loops, and the batched
    # dilations the per-t ones, with every dispatched numpy kernel this CPU
    # runs switched off
    without_dispatch(_ORACLES_SCRIPT, os.path.dirname(os.path.abspath(__file__)))

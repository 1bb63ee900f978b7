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

import numpy as np
import pytest

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

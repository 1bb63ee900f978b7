"""Ruled patch quadrature against closed-form areas."""
import math

import numpy as np
import pytest

from heisurf.core import chord_offset_arr
from heisurf.strips import GraphicalStrip, PwlProfile
from heisurf.surfaces import RuledSurface, strip_patch
from heisurf.variation import g_primitive

G1 = g_primitive(1.0)


def test_flat_strip_patch_area_is_its_measure():
    strip = GraphicalStrip(PwlProfile.constant(0.0))
    patch = strip_patch(strip, (0.0, 2.0))
    assert patch.area() == pytest.approx(4.0, abs=1e-9)
    assert strip_patch(strip, (0.0, 2.0), half=True).area() == \
        pytest.approx(2.0, abs=1e-9)


def test_tilted_plane_patch_area_and_energy():
    c = 0.8
    strip = GraphicalStrip(PwlProfile.constant(c))
    patch = strip_patch(strip, (0.0, 2.0))
    assert patch.area() == pytest.approx(4.0 * math.sqrt(1.0 + c * c), rel=1e-8)
    assert patch.intrinsic_energy() == pytest.approx(c * c * 2.0, rel=1e-8)
    half = strip_patch(strip, (0.0, 2.0), half=True)
    assert half.area() == pytest.approx(2.0 * math.sqrt(1.0 + c * c), rel=1e-8)
    assert half.intrinsic_energy() == pytest.approx(c * c, rel=1e-8)


def test_linear_slope_patch_matches_primitive_formula():
    # sigma(z) = -z over [-1, 1]: full width area is (14/3) G(1)
    strip = GraphicalStrip(PwlProfile.line(-1.0))
    patch = strip_patch(strip, (-1.0, 1.0))
    assert patch.area() == pytest.approx(14.0 * G1 / 3.0, rel=1e-6)


def test_patch_points_stay_on_horizontal_rulings():
    strip = GraphicalStrip(PwlProfile.line(0.7, 0.2))
    patch = strip_patch(strip, (-1.0, 1.0))
    w = np.linspace(-1.0, 1.0, 11)
    ends = np.asarray(patch.a(w))
    for s in (0.25, 0.5, 0.9):
        mids = patch.point(w, np.full_like(w, s))
        assert np.max(np.abs(chord_offset_arr(ends, mids))) < 1e-14
    assert patch.horizontality_residual() < 1e-14


def test_knots_of_piecewise_profile_are_collected():
    sigma = PwlProfile.from_knots([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    patch = strip_patch(GraphicalStrip(sigma), (-0.5, 1.5))
    assert patch.knots == (0.0, 1.0)


def test_broken_horizontality_is_detected():
    strip = GraphicalStrip(PwlProfile.constant(0.3))
    good = strip_patch(strip, (0.0, 1.0))

    def bad_b(w):
        out = np.array(good.b(w), dtype=float)
        out[..., 2] += 0.01
        return out

    bad = RuledSurface(good.a, bad_b, (0.0, 1.0), da=good.da, db=good.db)
    assert bad.horizontality_residual() == pytest.approx(0.01, rel=1e-10)


def test_vertical_rulings_have_euclidean_area_but_no_energy():
    a = lambda w: np.stack(np.broadcast_arrays(
        0.0 * np.asarray(w), 0.0 * np.asarray(w), np.asarray(w, float)), axis=-1)
    b = lambda w: np.stack(np.broadcast_arrays(
        0.0 * np.asarray(w), 1.0 + 0.0 * np.asarray(w), np.asarray(w, float)),
        axis=-1)
    up = lambda w: np.stack(np.broadcast_arrays(
        0.0 * np.asarray(w), 0.0 * np.asarray(w), 1.0 + 0.0 * np.asarray(w)),
        axis=-1)
    patch = RuledSurface(a, b, (0.0, 3.0), da=up, db=up)
    assert patch.horizontality_residual() < 1e-15
    assert patch.area() == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ValueError, match="vertical ruling"):
        patch.intrinsic_energy()

"""Intrinsic-graph areas, horizontal loops, z-graphs.

Closed-form oracles.  The two-half-plane surface with a flat fan at height
zero (y = -u x for z > 0, y = u x for z < 0, the sector |y| <= u|x| in
{z = 0}) has intrinsic graph function

    b_u(x, z) = -u x            for z >  u x^2 / 2
              = -2 z / x        for |z| <= u x^2 / 2   (the fan wedge)
              =  u x            for z < -u x^2 / 2

with gradient -2z/x^2 on the wedge and -+u outside.  The wedge area (u=1,
|x| <= 1) via z = (x^2/2) s:

    area   = int |x|^2/2 * sqrt(1+s^2) ds dx = (sqrt(2) + asinh 1) / 3.

The horizontal lift of a closed planar loop climbs by its enclosed signed
area.  A z-graph z = phi has perimeter density |(phi_x + y/2, phi_y - x/2)|:
for phi = +-xy/2 over the unit square this is |y| resp. |x| (area 1/2), and
for phi = 0 over the unit disk it is r/2 (area pi/3).
"""
import math

import numpy as np
import pytest

from heisurf.core import mul_arr
from heisurf.graphs import (
    DomainError,
    ScalarField,
    graph_area,
    intrinsic_gradient,
    zgraph_area,
)
from heisurf.quadrature import VRegion

WEDGE_AREA = (math.sqrt(2.0) + math.asinh(1.0)) / 3.0


def fan_field(u: float = 1.0) -> ScalarField:
    def fn(x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        safe = np.where(x != 0.0, x, 1.0)
        fan = -2.0 * z / safe
        return np.where(z > 0.5 * u * x * x, -u * x,
                        np.where(z < -0.5 * u * x * x, u * x, fan))

    return ScalarField.from_function(fn, (-1.0, 1.0, -1.0, 1.0),
                                     entire=True, name="fan")


def wedge_region(u: float = 1.0) -> VRegion:
    return VRegion(-1.0, 1.0,
                   lambda x: -0.5 * u * np.asarray(x) ** 2,
                   lambda x: 0.5 * u * np.asarray(x) ** 2)


def linear_field(m: float) -> ScalarField:
    return ScalarField.from_function(lambda x, z: m * x + 0.0 * z,
                                     (0.0, 1.0, 0.0, 1.0), entire=True)


# ---------------------------------------------------------------------------
# gradients


def test_gradient_of_linear_field_is_slope():
    f = linear_field(0.75)
    g = intrinsic_gradient(f, 0.3, 0.4)
    assert g == pytest.approx(0.75, abs=1e-10)


def test_gradient_on_fan_matches_closed_form():
    f = fan_field(1.0)
    g = intrinsic_gradient(f, 1.0, 0.25)
    assert g == pytest.approx(-0.5, abs=1e-6)
    g2 = intrinsic_gradient(f, 0.8, 0.31, clip=wedge_region())
    assert g2 == pytest.approx(-2.0 * 0.31 / 0.64, abs=1e-6)


def test_gradient_outside_fan_is_constant():
    f = fan_field(1.0)
    upper = VRegion(-1.0, 1.0, lambda x: 0.5 * np.asarray(x) ** 2,
                    lambda x: np.full(np.shape(x), 1.0))
    g = intrinsic_gradient(f, 0.8, 0.33, clip=upper)
    assert g == pytest.approx(-1.0, abs=1e-8)


def test_gradient_is_second_order():
    f = ScalarField.from_function(lambda x, z: np.sin(x) * np.cos(z),
                                  (-2.0, 2.0, -2.0, 2.0), entire=True)
    x, z = 0.3, 0.7
    exact = math.cos(x) * math.cos(z) + math.sin(x) ** 2 * math.cos(z) * math.sin(z)
    e1 = abs(intrinsic_gradient(f, x, z, h=1e-3) - exact)
    e2 = abs(intrinsic_gradient(f, x, z, h=5e-4) - exact)
    order = math.log2(e1 / e2)
    assert order > 1.9


def test_gradient_without_room_for_stencil_fails():
    f = ScalarField.from_function(lambda x, z: 0.0 * x, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(DomainError, match="boundary stencil"):
        intrinsic_gradient(f, 0.0, 0.5)


# ---------------------------------------------------------------------------
# area


def test_area_of_tilted_plane_is_exact():
    f = linear_field(0.75)
    assert graph_area(f) == pytest.approx(math.sqrt(1.5625), abs=1e-10)


def test_fan_wedge_area_matches_closed_form():
    area = graph_area(fan_field(1.0), wedge_region())
    assert area == pytest.approx(WEDGE_AREA, rel=1e-4)


def test_area_over_empty_region_is_zero():
    empty = VRegion(0.0, 1.0, lambda x: np.full(np.shape(x), 1.0),
                    lambda x: np.full(np.shape(x), 0.0))
    assert graph_area(linear_field(0.5), empty) == 0.0


# ---------------------------------------------------------------------------
# graph map


def test_fan_graph_lands_on_the_two_half_planes():
    f = fan_field(1.0)
    for x in (-1.0, -0.5, 0.3, 1.0):
        for z in (-0.6, -0.1, 0.0, 0.1, 0.6):
            val = float(f(np.array(x), np.array(z)))
            # graph map: (x, 0, z) * (0, f(x, z), 0)
            px, py, pz = mul_arr([x, 0.0, z], [0.0, val, 0.0])
            if pz > 1e-12:
                assert py == pytest.approx(-px, abs=1e-12)
            elif pz < -1e-12:
                assert py == pytest.approx(px, abs=1e-12)
            else:
                assert abs(py) <= abs(px) + 1e-12


# ---------------------------------------------------------------------------
# horizontal loops


def loop_endpoint(xy: np.ndarray, z0: float) -> np.ndarray:
    """End of the horizontal lift of a planar polyline started at height z0.

    Each vertex is the previous one times the horizontal step (dx, dy, 0).
    """
    p = np.array([xy[0, 0], xy[0, 1], z0])
    for dx, dy in np.diff(xy, axis=0):
        p = mul_arr(p, [dx, dy, 0.0])
    return p


def test_lift_of_square_loop_climbs_by_enclosed_area():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.0, 0.0]])
    end = loop_endpoint(square, 0.0)
    assert end.tolist() == [0.0, 0.0, 1.0]


def test_lift_of_circle_climbs_by_pi():
    n = 200
    t = np.linspace(0.0, 2.0 * math.pi, n + 1)
    circle = np.stack([np.cos(t), np.sin(t)], axis=-1)
    end = loop_endpoint(circle, -1.0)
    assert end[2] + 1.0 == pytest.approx(math.pi, rel=3e-4)


# ---------------------------------------------------------------------------
# z-graphs


def test_zgraph_area_of_lateral_planes():
    square = VRegion.rect(0.0, 1.0, 0.0, 1.0)
    a1 = zgraph_area(lambda x, y: 0.5 * x * y, square)
    a2 = zgraph_area(lambda x, y: -0.5 * x * y, square)
    assert a1 == pytest.approx(0.5, abs=1e-10)
    assert a2 == pytest.approx(0.5, abs=1e-10)


def test_zgraph_area_of_flat_disk():
    # the inner integral over y has a kink at x = 0, the cone point of the
    # integrand; splitting the disk there puts the kink on an edge
    def half(x):
        return np.sqrt(np.clip(1.0 - np.asarray(x) ** 2, 0.0, None))

    area = sum(zgraph_area(lambda x, y: 0.0 * x,
                           VRegion(lo, hi, lambda x: -half(x), half))
               for lo, hi in ((-1.0, 0.0), (0.0, 1.0)))
    assert area == pytest.approx(math.pi / 3.0, rel=1e-3)

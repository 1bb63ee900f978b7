"""Group arithmetic, metric, projections, lines and symmetries as array kernels."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisurf.core import (
    chord_offset_arr,
    dilate_arr,
    inv_arr,
    mul_arr,
    norm_arr,
    project_arr,
)
from heisurf.lines import _points

coords = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
points = st.builds(lambda x, y, z: np.array([x, y, z]), coords, coords, coords)


def line_points(base, m, t):
    """Points base * (t, m t, 0) of the horizontal line of slope m through base."""
    t = np.asarray(t, dtype=float)
    step = np.stack([t, m * t, np.zeros_like(t)], axis=-1)
    return mul_arr(base, step)


def test_multiply_examples():
    assert mul_arr([1, 0, 0], [0, 1, 0]).tolist() == [1.0, 1.0, 0.5]
    q = mul_arr(inv_arr([-1, 2, 1]), [1, -10, 5])
    assert q.tolist() == [2.0, -12.0, 0.0]


def test_center_is_central():
    center = np.array([0.0, 0.0, 3.7])
    p = np.array([1.2, -0.4, 0.9])
    assert np.array_equal(mul_arr(center, p), mul_arr(p, center))


@settings(max_examples=100, derandomize=True)
@given(points, points, points)
def test_group_axioms(p, q, r):
    lhs = mul_arr(mul_arr(p, q), r)
    rhs = mul_arr(p, mul_arr(q, r))
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-9)
    e = mul_arr(p, inv_arr(p))
    assert np.all(np.abs(e) < 1e-12)
    assert np.array_equal(mul_arr(p, np.zeros(3)), p)


def test_koranyi_norm_values():
    assert norm_arr([1, 0, 0]) == 1.0
    assert norm_arr([0, 0, 1]) == 1.0
    assert norm_arr([0, 0, 4]) == 2.0
    assert math.isclose(norm_arr([1, 1, 0]), 2.0 ** 0.5)


@settings(max_examples=100, derandomize=True)
@given(points, points, points)
def test_distance_left_invariant_and_symmetric(g, p, q):
    d = norm_arr(mul_arr(inv_arr(p), q))
    gp, gq = mul_arr(g, p), mul_arr(g, q)
    d_translated = norm_arr(mul_arr(inv_arr(gp), gq))
    assert math.isclose(d, d_translated, rel_tol=1e-10, abs_tol=1e-10)
    d_back = norm_arr(mul_arr(inv_arr(q), p))
    assert math.isclose(d, d_back, rel_tol=1e-12, abs_tol=1e-12)


def test_dilation_scales_distance_exactly():
    rng = np.random.default_rng(7)
    p = rng.normal(size=(64, 3))
    q = rng.normal(size=(64, 3))
    for t in (0.25, 2.0, 13.0):
        d0 = norm_arr(mul_arr(inv_arr(p), q))
        d1 = norm_arr(mul_arr(inv_arr(dilate_arr(t, t, p)), dilate_arr(t, t, q)))
        assert np.allclose(d1, t * d0, rtol=1e-12)


def test_intrinsic_project_example_and_section():
    assert project_arr([1, 2, 3]).tolist() == [1.0, 2.0]
    rng = np.random.default_rng(1)
    for x, z in rng.normal(size=(32, 2)):
        val = x * z - 0.3 * x  # arbitrary graph value
        # graph map u * Y^val is a section of the projection
        back = project_arr(mul_arr([x, 0.0, z], [0.0, val, 0.0]))
        assert np.allclose(back, [x, z], rtol=0.0, atol=1e-12)


def test_project_constant_on_vertical_cosets():
    u = np.array([0.7, 0.0, -0.2])
    for s in (-2.0, 0.3, 5.0):
        pr = project_arr(mul_arr(u, [0.0, s, 0.0]))
        assert math.isclose(pr[0], 0.7, abs_tol=1e-14)
        assert math.isclose(pr[1], -0.2, abs_tol=1e-14)


def test_line_parabola_examples():
    # a horizontal line of slope m projects to a parabola z' = c0 + c1 x + c2 x^2
    x = np.linspace(-2.0, 2.0, 9)
    proj = project_arr(line_points([0.0, 0.0, 0.0], 1.0, x))
    assert np.allclose(proj[:, 1], -0.5 * x ** 2, rtol=0.0, atol=1e-15)
    proj = project_arr(line_points([0.0, 1.0, 0.0], 0.0, x))
    assert np.allclose(proj[:, 1], -x, rtol=0.0, atol=1e-15)
    proj = project_arr(line_points([1.0, 0.0, 0.0], 2.0, x - 1.0))
    assert np.allclose(proj[:, 1], -(x - 1.0) ** 2, rtol=0.0, atol=1e-14)


def test_line_parabola_matches_projected_samples():
    rng = np.random.default_rng(3)
    for _ in range(20):
        base = rng.normal(size=3)
        m = float(rng.normal())
        proj = project_arr(line_points(base, m, np.linspace(-2, 2, 100)))
        c2, c1, c0 = np.polyfit(proj[:, 0], proj[:, 1], 2)
        assert c2 == pytest.approx(-0.5 * m, abs=1e-10)
        fitted = c0 + c1 * proj[:, 0] + c2 * proj[:, 0] ** 2
        assert np.max(np.abs(fitted - proj[:, 1])) <= 1e-10


def test_vertical_line_projects_to_point():
    # a Y-parallel horizontal line (theta = pi/2) projects to one point of V0
    theta = math.pi / 2
    proj = project_arr(_points(np.cos(theta), np.sin(theta), -0.5, 0.1,
                               np.linspace(-3, 3, 7)))
    assert np.ptp(proj[:, 0]) <= 1e-15
    assert np.max(np.abs(proj[:, 1] - proj[0, 1])) <= 1e-12


def test_chord_offset_examples():
    # wedge chord of the unit broken plane: horizontal, oracle via the product
    p = np.array([0.5, -0.5, 0.125])
    q = np.array([-0.5, -0.5, -0.125])
    assert chord_offset_arr(p, q) == 0.0
    assert mul_arr(inv_arr(p), q)[2] == 0.0
    assert chord_offset_arr([0, 0, 0], [0, 0, 1]) == 1.0
    assert chord_offset_arr([1, 0, 0], [1, 1, 0]) == -0.5


@settings(max_examples=100, derandomize=True)
@given(points, points)
def test_chord_offset_is_z_of_quotient(p, q):
    off = chord_offset_arr(p, q)
    assert math.isclose(off, mul_arr(inv_arr(p), q)[2], rel_tol=1e-9,
                        abs_tol=1e-9)
    assert math.isclose(chord_offset_arr(q, p), -off, rel_tol=1e-9,
                        abs_tol=1e-9)


def test_points_of_line_have_zero_offset():
    rng = np.random.default_rng(5)
    for _ in range(16):
        base = rng.normal(size=3)
        m = float(rng.normal())
        pts = line_points(base, m, rng.normal(size=8))
        offs = chord_offset_arr(pts[:1], pts)
        assert np.max(np.abs(offs)) <= 1e-12


def test_similarity_examples():
    flip = np.array([1.0, 2.0, 3.0])
    assert dilate_arr(-1.0, -1.0, flip).tolist() == [-1.0, -2.0, 3.0]
    p = np.array([0.3, -0.7, 0.1])
    assert np.array_equal(dilate_arr(-1.0, -1.0, dilate_arr(-1.0, -1.0, p)), p)


def test_horizontal_plane_contains_own_lines():
    # every point of a line through p lies in the horizontal plane of p
    base = np.array([0.2, -1.4, 0.8])
    for m in (-2.0, 0.0, 0.7):
        pts = line_points(base, m, [-1.5, 0.4, 2.2])
        assert np.max(np.abs(chord_offset_arr(base, pts))) < 1e-12

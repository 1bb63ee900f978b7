"""Ruled patch quadrature against closed-form areas, and pinned outputs."""
import hashlib
import json
import math

import numpy as np
import pytest

import heisurf.cli as cli
from heisurf.core import chord_offset_arr
from heisurf.strips import CallableProfile, GraphicalStrip, PwlProfile
from heisurf.surfaces import IDENTITY, RuledSurface, strip_patch
from heisurf.variation import g_primitive

G1 = g_primitive(1.0)


def half_patch(patch):
    """The half of a strip patch swept from the axis to its right edge."""
    _, _, sigma, height = patch.right
    return RuledSurface((0.0, 0.0, sigma, height), patch.right, patch.w_range)


def test_flat_strip_patch_area_is_its_measure():
    strip = GraphicalStrip(PwlProfile.constant(0.0))
    patch = strip_patch(strip, (0.0, 2.0))
    assert patch.area() == pytest.approx(4.0, abs=1e-9)
    assert half_patch(patch).area() == pytest.approx(2.0, abs=1e-9)


def test_tilted_plane_patch_area_and_energy():
    c = 0.8
    strip = GraphicalStrip(PwlProfile.constant(c))
    patch = strip_patch(strip, (0.0, 2.0))
    assert patch.area() == pytest.approx(4.0 * math.sqrt(1.0 + c * c), rel=1e-8)
    assert patch.intrinsic_energy() == pytest.approx(c * c * 2.0, rel=1e-8)
    half = half_patch(patch)
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
    ends = patch.point(w, np.zeros_like(w))
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
    x, c, sigma, _ = good.right
    raised = (x, c, sigma, PwlProfile.line(1.0, 0.01))
    bad = RuledSurface(good.left, raised, good.w_range)
    assert bad.horizontality_residual() == pytest.approx(0.01, rel=1e-10)


def test_vertical_rulings_have_euclidean_area_but_no_energy():
    # the unit segments from (0, 0, w) to (0, 1, w) sweep a vertical square
    one = PwlProfile.constant(1.0)
    patch = RuledSurface((0.0, 0.0, one, IDENTITY), (0.0, 1.0, one, IDENTITY),
                         (0.0, 3.0))
    assert patch.horizontality_residual() < 1e-15
    assert patch.area() == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ValueError, match="vertical ruling"):
        patch.intrinsic_energy()


def test_the_height_profile_adds_no_quadrature_split():
    # w -> w has no knot: a closed-form sigma leaves one region
    sigma = CallableProfile(np.arctan, dfn=lambda z: 1.0 / (1.0 + z * z),
                            slopes=(0.0, 1.0))
    assert strip_patch(GraphicalStrip(sigma), (-1.0, 1.0)).knots == ()
    assert IDENTITY.derivative(np.array([-3.0, 2.0])).tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# pinned outputs of the ruled-patch commands (17 significant digits)

PWL_SIGMA = "samples(-2,0.3,0,0.8,1,-0.2,3,0.1)"
PWL_RHO = "samples(-1,-1,0.5,1,2,1.5)"

PINNED_VALUES = [
    ("area", "strip", PWL_SIGMA, "-1,2", "1", 6.8020377560810381),
    ("area", "strip", PWL_SIGMA, "-1,2", "0.5", 3.3226927943542521),
    ("area", "strip", "arctan(-1)", "-1,2", "1", 7.9620075098581804),
    ("area", "strip", "arctan(-1)", "-1,2", "0.5", 3.7105780977142637),
    ("area", "strip", "linear(-1)", "-1,1", "1", 5.3563689993468584),
    ("energy", "strip", PWL_SIGMA, "-1,2", "1", 0.66091662979125987),
    ("energy", "strip", PWL_SIGMA, "-1,2", "0.5", 0.32698957872390755),
    ("energy", "strip", "arctan(-1)", "-1,2", "1", 1.5436824072294699),
    ("energy", "strip", "arctan(-1)", "-1,2", "0.5", 0.73347473555889864),
    ("area", "sigma-rho", "id", "0,1", None, 3.9438476201189268),
    ("area", "sigma-rho", "arctan(1)", "0,1", None, 3.3312798734952609),
    ("area", "sigma-rho", PWL_RHO, "0,1", None, 4.0048598295604059),
    ("energy", "sigma-rho", "id", "0,1", None, 1.7777773539225261),
    ("energy", "sigma-rho", "arctan(1)", "0,1", None, 1.2647150271390681),
    ("energy", "sigma-rho", PWL_RHO, "0,1", None, 2.2520572778619363),
]


@pytest.mark.parametrize("command,surface,profile,window,x_max,value",
                         PINNED_VALUES)
def test_ruled_patch_values_are_pinned(tmp_path, command, surface, profile,
                                       window, x_max, value):
    flag = "--profile" if surface == "strip" else "--rho"
    argv = [command, "--surface", surface, flag, profile, "--window", window]
    if x_max is not None:
        argv += ["--x-max", x_max]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 0
    text = (tmp_path / f"{command}.json").read_text(encoding="ascii")
    assert json.loads(text)["value"] == value


@pytest.mark.parametrize("rho,digest", [
    ("id", "59b645fa2c4b36da4eac886248b2693b0fc5e0ad79d3336b45af7a7416bdc8ed"),
    ("arctan(1)",
     "423bb1cd88e3c8503ea374ab87768cd341d8eab1dbc63ba49f160dd48dc3a52c"),
    (PWL_RHO,
     "4e579925d7303166221897a630f5a8a0fa09b02a729f1cc7c657a5fe5a0bb74e"),
])
def test_sigma_rho_obj_bytes_are_pinned(tmp_path, monkeypatch, rho, digest):
    # the output directory comes from the environment so that the OBJ
    # header, which repeats the command line, does not name tmp_path
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main(["export-obj", "--surface", "sigma-rho", "--rho", rho,
                     "--window", "0,1", "--res", "8"]) == 0
    data = (tmp_path / "sigma-rho.obj").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest

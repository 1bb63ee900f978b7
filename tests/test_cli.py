"""Exit codes, verdict lines, and artifact determinism of the command line."""
import hashlib
import json
import math
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import heisurf.cli as cli
import heisurf.profilespec as profilespec
import heisurf.strips as strips
from heisurf.quadrature import QuadratureError

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

AREA_ID = (2.0 / 3.0) * (2.0 * math.sqrt(5.0) + math.asinh(2.0))


def run(tmp_path, *argv):
    return cli.main([*argv, "--output-dir", str(tmp_path)])


def load(tmp_path, name):
    with open(os.path.join(str(tmp_path), name), "r", encoding="ascii") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verdict commands


def test_check_strip_accepts_a_graphical_strip(tmp_path):
    assert run(tmp_path, "check-strip", "--profile", "arctan(-1)") == 0
    data = load(tmp_path, "check-strip.json")
    assert data["verdict"] is True
    assert data["command"] == "check-strip"


def test_check_strip_rejects_a_steep_profile(tmp_path):
    assert run(tmp_path, "check-strip", "--profile", "linear(-3)",
               "--kind", "alpha") == 1
    assert load(tmp_path, "check-strip.json")["verdict"] is False


def test_check_strip_refuses_the_alpha_fan_like_export_obj(
        tmp_path, capsys):
    # slope -2 in the alpha chart is a fan, not a strip: export-obj refuses
    # the same profile, so check-strip must not pass it
    argv = ("--kind", "alpha", "--profile", "broken-plane-alpha(1)")
    assert run(tmp_path, "check-strip", *argv) == 1
    assert "witness slope -2 on [-0.5,0.5]" in capsys.readouterr().out
    assert load(tmp_path, "check-strip.json")["witness"]["slope"] == -2.0
    assert run(tmp_path, "export-obj", "--surface", "strip", *argv,
               "--window", "-1,1", "--res", "2") == 2


def test_check_strip_has_no_width_flag(tmp_path, capsys):
    # the slope rule is the graphical condition on the slab |x| < 1 only;
    # at x_max = 2 this profile's strip is crossed twice by a census line
    assert run(tmp_path, "check-strip", "--x-max", "2",
               "--profile", "linear(0.6)") == 2
    assert "unrecognized arguments: --x-max" in capsys.readouterr().err
    assert run(tmp_path, "check-minimal", "--x-max", "2",
               "--profile", "linear(0.6)") == 2
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("kind, profile", [
    ("alpha", "samples(0,0,1,-1.5)"),
    ("sigma", "samples(0,0,0.25,-1.5)"),  # the same surface, sigma chart
])
def test_check_strip_charts_agree_on_one_surface(tmp_path, kind, profile):
    assert run(tmp_path, "check-strip", "--kind", kind,
               "--profile", profile) == 1


def test_check_strip_accepts_arctan_in_the_alpha_chart(tmp_path):
    assert run(tmp_path, "check-strip", "--kind", "alpha",
               "--profile", "arctan(-1)") == 0


@pytest.mark.parametrize("profile, graphical", [
    ("linear(-2.0000000001)", True),  # within the tolerance below -2
    ("linear(-2.1)", False),
    ("linear(1.9999999)", True),
    ("linear(2)", False),
    ("arctan(-2.0000000001)", True),
])
def test_check_strip_and_the_library_share_one_slope_rule(tmp_path, profile,
                                                          graphical):
    strip = strips.strip_surface(profilespec.profile_from_string(profile))
    assert strip.is_graphical() is strips.is_area_minimizing(strip) is graphical
    assert run(tmp_path, "check-strip", "--profile", profile) == \
        (0 if graphical else 1)


def test_check_minimal_flags_the_broken_plane_with_a_witness(tmp_path, capsys):
    rc = run(tmp_path, "check-minimal", "--profile", "broken-plane-alpha(1)")
    out = capsys.readouterr().out
    assert rc == 1
    assert "witness slope -2" in out
    data = load(tmp_path, "check-minimal.json")
    assert data["verdict"] is False
    assert data["witness"]["slope"] == -2.0


@pytest.mark.parametrize("command, kind", [
    ("check-strip", "sigma"), ("check-minimal", "alpha"),
    ("check-minimal", "sigma")])
def test_an_arctan_witness_is_its_lowest_slope_at_zero(tmp_path, capsys,
                                                       command, kind):
    # the slope -3 / (1 + z^2) of arctan(-3) is lowest at z = 0 exactly
    assert run(tmp_path, command, "--kind", kind,
               "--profile", "arctan(-3)") == 1
    assert "witness slope -3 on [0,0]" in capsys.readouterr().out
    assert load(tmp_path, f"{command}.json")["witness"] == {
        "slope": -3.0, "interval": [0.0, 0.0]}


def test_check_minimal_accepts_the_flat_plane(tmp_path):
    assert run(tmp_path, "check-minimal", "--profile", "constant(0)") == 0


# ---------------------------------------------------------------------------
# scalar commands


def test_area_of_the_flat_strip_is_the_window_measure(tmp_path):
    rc = run(tmp_path, "area", "--surface", "strip", "--profile",
             "constant(0)", "--window", "-1,1")
    assert rc == 0
    assert load(tmp_path, "area.json")["value"] == 4.0


def test_area_of_the_identity_spanning_surface(tmp_path):
    rc = run(tmp_path, "area", "--surface", "sigma-rho", "--rho", "id",
             "--window", "0,1")
    assert rc == 0
    assert load(tmp_path, "area.json")["value"] == pytest.approx(
        AREA_ID, rel=1e-12)


def test_energy_of_the_broken_plane(tmp_path):
    rc = run(tmp_path, "energy", "--surface", "broken-plane", "--u", "1",
             "--z-cap", "2")
    assert rc == 0
    assert load(tmp_path, "energy.json")["value"] == pytest.approx(
        1.0 / 9.0 + 4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# experiments


def test_second_variation_writes_csv_and_detects_instability(tmp_path):
    rc = run(tmp_path, "second-variation", "--alpha",
             "broken-plane-alpha(1)", "--tau", "triangle-bump(1,1)")
    assert rc == 0
    data = load(tmp_path, "second-variation.json")
    assert data["quadratic_fit"] < 0.0
    assert data["second_variation"] == pytest.approx(
        -1.0 / math.sqrt(2.0) + (2.0 / 3.0) / 2.0 ** 1.5, rel=1e-12)
    csv_lines = (tmp_path / "second-variation.csv").read_text().splitlines()
    assert csv_lines[0] == "lambda,delta_area,quadratic_model"
    assert len(csv_lines) == 5
    assert all(float(line.split(",")[1]) < 0.0 for line in csv_lines[1:])


def test_monotonicity_passes_on_a_strip_and_fails_on_the_broken_plane(
        tmp_path):
    assert run(tmp_path, "monotonicity", "--surface", "strip",
               "--profile", "arctan(-1)") == 0
    assert load(tmp_path, "monotonicity.json")["violations"] == []
    assert run(tmp_path, "monotonicity", "--surface", "broken-plane",
               "--u", "1") == 1
    data = load(tmp_path, "monotonicity.json")
    assert data["max_crossings"] >= 2
    assert len(data["violations"]) >= 1


def test_scaling_limit_classifies_three_regimes(tmp_path):
    assert run(tmp_path, "scaling-limit", "--profile", "arctan(-1)") == 0
    data = load(tmp_path, "scaling-limit.json")
    assert data["kind"] == "broken-plane"
    assert data["u"] == pytest.approx(math.pi / 2.0, abs=1e-3)
    assert run(tmp_path, "scaling-limit", "--profile", "constant(0)") == 0
    assert load(tmp_path, "scaling-limit.json")["kind"] == "plane"
    assert run(tmp_path, "scaling-limit", "--profile", "linear(-1)") == 0
    assert load(tmp_path, "scaling-limit.json")["kind"] == \
        "vertical-plane-limit"


def test_scaling_limit_rejects_an_increasing_slope_profile(tmp_path):
    assert run(tmp_path, "scaling-limit", "--profile", "arctan(1)") == 2


def test_scaling_limit_refuses_a_repeated_t(tmp_path, capsys):
    # equal errors never shrink by the factor convergence asks for
    assert run(tmp_path, "scaling-limit", "--profile", "arctan(-1)",
               "--t-grid", "2,2") == 2
    assert capsys.readouterr().err == (
        "error: t grid must be positive and strictly increasing\n")
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("profile", [
    "samples(-1,0,30,-1,40,0,200,-2)",
    # the same rise past |z| = 64, where the tails are still read
    "samples(-1,0,100,-1,150,0,200,-2)",
])
def test_scaling_limit_rejects_a_rise_anywhere_in_a_pwl_profile(
        tmp_path, capsys, profile):
    assert run(tmp_path, "scaling-limit", "--profile", profile) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: sigma_plus must be non-increasing"]
    assert not os.listdir(str(tmp_path))


#: rho falls on [0.5, 0.5005], between two of 513 probes of [0, 1]
NARROW_DIP = "samples(0,0,0.5,0.5,0.5005,0.4999,1,1)"


@pytest.mark.parametrize("argv", [
    ("sigma-rho", "--rho", NARROW_DIP, "--window", "0,1"),
    ("area", "--surface", "sigma-rho", "--rho", NARROW_DIP, "--window", "0,1"),
    ("export-obj", "--surface", "sigma-rho", "--rho", NARROW_DIP,
     "--window", "0,1", "--res", "4"),
])
def test_sigma_rho_rejects_a_narrow_dip_in_a_pwl_rho(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: rho must be strictly increasing "
                                "on the window"]
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("window", ["0,0.5", "0.5005,1", "0.6,1"])
def test_sigma_rho_accepts_a_pwl_rho_that_dips_outside_the_window(
        tmp_path, window):
    assert run(tmp_path, "sigma-rho", "--rho", NARROW_DIP,
               "--window", window) == 0


def test_sigma_rho_reports_area_and_chord_obstruction(tmp_path):
    rc = run(tmp_path, "sigma-rho", "--rho", "id", "--window", "0,1",
             "--check-chords", "50")
    assert rc == 0
    data = load(tmp_path, "sigma-rho.json")
    assert data["area"] == pytest.approx(AREA_ID, rel=1e-12)
    assert data["relative_gap"] <= 1e-6
    assert data["obstruction"]["ok"] is True
    assert data["obstruction"]["n_pairs"] == 50


def test_competitor_compare_beats_the_broken_plane(tmp_path):
    assert run(tmp_path, "competitor", "--u", "1") == 0
    data = load(tmp_path, "competitor.json")
    assert data["area_margin"] > 0.0
    assert data["energy_margin"] > 0.0
    assert (tmp_path / "competitor.csv").exists()


def test_competitor_has_no_resolution_flag(tmp_path, capsys):
    # no verdict or artifact depended on the stored segment count
    assert run(tmp_path, "competitor", "--u", "1", "--resolution", "9") == 2
    assert "unrecognized arguments: --resolution" in capsys.readouterr().err
    assert not os.listdir(str(tmp_path))


def test_calibrate_lines_reproduces_the_cubed_radius_ratio(tmp_path):
    assert run(tmp_path, "calibrate-lines", "--lines", "20000") == 0
    data = load(tmp_path, "calibrate-lines.json")
    assert data["expected"] == 8.0
    assert abs(data["zscore"]) <= 4.0


# ---------------------------------------------------------------------------
# mesh export


def test_export_obj_strip_matches_the_grid_contract(tmp_path):
    rc = run(tmp_path, "export-obj", "--surface", "strip", "--profile",
             "constant(0)", "--window", "-1,1", "--res", "2")
    assert rc == 0
    lines = (tmp_path / "strip.obj").read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 9
    assert sum(1 for l in lines if l.startswith("f ")) == 8


def test_export_obj_sigma_rho_spans_the_requested_grid(tmp_path):
    rc = run(tmp_path, "export-obj", "--surface", "sigma-rho", "--rho", "id",
             "--window", "-2,2", "--res", "10", "--x-res", "4")
    assert rc == 0
    lines = (tmp_path / "sigma-rho.obj").read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 11 * 5
    assert sum(1 for l in lines if l.startswith("f ")) == 2 * 10 * 4


def test_export_obj_honors_out_name(tmp_path):
    rc = run(tmp_path, "export-obj", "--surface", "broken-plane", "--u", "1",
             "--window", "-1,1", "--res", "4", "--out", "bp")
    assert rc == 0
    assert (tmp_path / "bp.obj").exists()


def test_export_obj_competitor_assembles_all_pieces(tmp_path):
    rc = run(tmp_path, "export-obj", "--surface", "competitor", "--u", "1",
             "--competitor-kind", "minimal", "--res", "8")
    assert rc == 0
    text = (tmp_path / "competitor.obj").read_text()
    assert text.splitlines()[0].startswith("# heisurf export-obj")


# ---------------------------------------------------------------------------
# error classes


def test_usage_errors_exit_with_two(tmp_path):
    assert cli.main(["no-such-command"]) == 2
    assert run(tmp_path, "check-strip", "--profile", "nope(1)") == 2
    assert run(tmp_path, "area", "--surface", "strip", "--rho", "id") == 2
    assert run(tmp_path, "sigma-rho", "--rho", "id", "--window", "1,0") == 2
    assert run(tmp_path, "export-obj", "--surface", "strip", "--profile",
               "constant(0)", "--res", "2") == 2  # unbounded window


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_numeric_failures_exit_with_three(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise QuadratureError("synthetic quadrature breakdown", (0.0, 1.0))

    monkeypatch.setattr("heisurf.families.sigma_rho_area_quadrature",
                        explode)
    assert run(tmp_path, "sigma-rho", "--rho", "id", "--window", "0,1") == 3
    assert os.listdir(str(tmp_path)) == []


def test_unbracketed_root_exits_with_three(tmp_path, monkeypatch, capsys):
    # with no room to widen the search step, the ruling heights of the
    # dilated graph (far from z') cannot be bracketed
    monkeypatch.setattr(strips, "_BRACKET_DOUBLINGS", 0)
    assert run(tmp_path, "scaling-limit", "--profile", "arctan(-1)") == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: no root bracketed")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, text", [
    # a radius that meets no line, or every line, has no hit-fraction spread
    (("calibrate-lines", "--lines", "1"), "radius 1 met no line of 1"),
    (("calibrate-lines", "--lines", "1", "--r1", "1.5", "--r2", "1.5"),
     "radius 1.5 met no line of 1"),
    (("calibrate-lines", "--lines", "1", "--seed", "2"),
     "radius 1 met every line of 1"),
    # the opening is too small for the mesh's triangles to have area
    (("export-obj", "--surface", "competitor", "--u", "1e-12", "--res", "3"),
     "degenerate (zero-area) triangle"),
    # the guide's constants lose every digit, so the sweep's exit height is
    # not finite: both competitor commands fail as it is built
    *((argv, "build_competitor: the minimal sweep's exit height is not "
             "finite at u=1e+200") for argv in (
        ("competitor", "--u", "1e200"),
        ("export-obj", "--surface", "competitor", "--u", "1e200", "--res", "2"),
        ("export-obj", "--surface", "competitor", "--u", "1e200", "--res", "2",
         "--z-cap", "1e305"))),
])
def test_degenerate_numerics_exit_with_three(tmp_path, capsys, argv, text):
    assert run(tmp_path, *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and text in err
    assert err.count("\n") == 1 and "float division" not in err
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("argv", [
    ("check-strip", "--profile", "samples(0,0,1e-310,4)"),
    ("check-minimal", "--kind", "sigma", "--profile", "samples(0,0,1e-310,4)"),
    ("monotonicity", "--surface", "strip", "--profile",
     "samples(0,0,1e-310,4)"),
    ("export-obj", "--surface", "strip", "--profile", "samples(0,0,1e-310,4)",
     "--window", "-1,1", "--res", "4"),
    ("scaling-limit", "--profile", "samples(0,0,1e-310,-4)"),
])
def test_knot_pair_with_overflowing_slope_exits_with_two(tmp_path, capsys,
                                                          argv):
    # 4 / 1e-310 overflows; every command refuses the profile as it parses
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err == ("error: samples slope between w=0.0 and w=1e-310 is not "
                   "finite\n")
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("argv", [
    # u^2 z_cap overflows to inf without a floating-point warning
    ("area", "--surface", "broken-plane", "--u", "1", "--z-cap", "1e308"),
    ("energy", "--surface", "broken-plane", "--u", "1", "--z-cap", "1e308"),
    ("area", "--surface", "broken-plane", "--u", "1e300", "--z-cap", "1"),
    # the competitor's pieces overflow to inf and its margins to nan
    ("competitor", "--u", "1", "--z-cap", "1e308"),
])
def test_a_non_finite_result_exits_with_three_and_writes_nothing(
        tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("bad, key", [
    (np.array([math.nan]), "1"),
    (types.MappingProxyType({"x": math.nan}), "x"),
], ids=["ndarray", "mapping"])
def test_a_nan_inside_any_container_exits_with_three_and_writes_nothing(
        tmp_path, monkeypatch, capsys, bad, key):
    # the NaN sits in a numpy array or a mapping that is not a dict; the
    # walk that writes the JSON is the one that finds it
    import heisurf.lines as lines
    report = types.SimpleNamespace(
        passed=True, n_lines=1, seed=0, radius=1.5, histogram={1: bad},
        degenerate_lines=0, count_method="exact", violations=[],
        max_crossings=1)
    monkeypatch.setattr(lines, "monotonicity_check", lambda *a, **k: report)
    assert run(tmp_path, "monotonicity", "--surface", "broken-plane",
               "--u", "1") == 3
    assert capsys.readouterr() == (
        "", f"numeric failure: {key} is nan, not finite\n")
    assert not os.listdir(str(tmp_path))


def test_a_failed_verdict_may_record_an_unbounded_witness(tmp_path):
    assert run(tmp_path, "check-strip", "--profile", "linear(-2.5)") == 1
    assert load(tmp_path, "check-strip.json")["witness"] == {
        "slope": -2.5, "interval": [-math.inf, 0.0]}


@pytest.mark.parametrize("argv", [
    ("area", "--surface", "broken-plane", "--u", "nan", "--z-cap", "1"),
    ("area", "--surface", "broken-plane", "--u", "inf", "--z-cap", "1"),
    ("energy", "--surface", "broken-plane", "--u", "-1", "--z-cap", "1"),
    ("energy", "--surface", "broken-plane", "--u", "nan", "--z-cap", "1"),
    ("monotonicity", "--surface", "broken-plane", "--u", "-0.5"),
    ("competitor", "--u", "nan"),
    ("export-obj", "--surface", "broken-plane", "--u", "inf", "--window",
     "-1,1", "--res", "2"),
])
def test_bad_opening_exits_with_two(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err.startswith("error: --u must be")
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("argv", [
    ("monotonicity", "--surface", "sigma-rho", "--rho", "id", "--window",
     "0,1", "--lines", "0"),
    ("calibrate-lines", "--lines", "0"),
    ("calibrate-lines", "--lines", "-3"),
])
def test_too_few_lines_exit_with_two(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lines must be at least 1")
    assert "Warning" not in err
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("argv", [
    ("area", "--surface", "sigma-rho", "--rho", "id", "--window", "0,inf"),
    ("monotonicity", "--surface", "sigma-rho", "--rho", "id", "--window",
     "0,inf", "--lines", "10"),
    ("area", "--surface", "strip", "--profile", "arctan(-1)", "--window",
     "0,inf"),
    ("sigma-rho", "--rho", "id", "--window", "0,inf"),
    ("energy", "--surface", "strip", "--profile", "arctan(-1)", "--window",
     "1,-1"),
    ("export-obj", "--surface", "broken-plane", "--u", "1", "--window",
     "nan,1", "--res", "2"),
    ("area", "--surface", "strip", "--profile", "arctan(-1)", "--window",
     "-1,1", "--x-max", "-1"),
    ("monotonicity", "--surface", "strip", "--profile", "arctan(-1)",
     "--x-max", "inf", "--lines", "10"),
    # flags a fixed-width surface would ignore
    ("area", "--surface", "broken-plane", "--u", "1", "--z-cap", "2",
     "--window", "0,1"),
    ("area", "--surface", "broken-plane", "--u", "1", "--z-cap", "2",
     "--x-max", "2"),
    ("energy", "--surface", "broken-plane", "--u", "1", "--z-cap", "2",
     "--window", "0,1"),
    ("energy", "--surface", "broken-plane", "--u", "1", "--z-cap", "2",
     "--x-max", "0.5"),
    ("monotonicity", "--surface", "sigma-rho", "--rho", "id", "--window",
     "0,1", "--x-max", "3", "--lines", "10"),
    ("area", "--surface", "sigma-rho", "--rho", "id", "--window", "0,1",
     "--x-max", "2"),
    ("energy", "--surface", "sigma-rho", "--rho", "id", "--window", "0,1",
     "--x-max", "2"),
    ("export-obj", "--surface", "sigma-rho", "--rho", "id", "--window",
     "0,1", "--x-max", "2", "--res", "2"),
])
def test_out_of_domain_window_or_width_exits_with_two(tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, *argv) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith(("error: --window must be", "error: --x-max must be"))
    assert err.count("\n") == 1 and "Warning" not in err
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("argv, message", [
    # out of domain: each used to run on and give a verdict or a failure
    (("competitor", "--u", "1", "--z-cap", "nan"), "--z-cap must be"),
    # the competitor takes no floor: every floor compared a band with itself
    (("competitor", "--u", "1", "--z-floor", "1"),
     "unrecognized arguments: --z-floor"),
    (("calibrate-lines", "--r1", "nan", "--lines", "10"), "--r1 must be"),
    (("calibrate-lines", "--max-z", "nan", "--lines", "10"),
     "--max-z must be"),
    (("monotonicity", "--surface", "broken-plane", "--u", "1", "--radius",
      "nan", "--lines", "10"), "--radius must be"),
    (("monotonicity", "--surface", "broken-plane", "--u", "1", "--radius",
      "0", "--lines", "10"), "--radius must be"),
    (("scaling-limit", "--profile", "arctan(-1)", "--window", "inf"),
     "--window must be"),
    (("second-variation", "--alpha", "broken-plane-alpha(1)", "--tau",
      "triangle-bump(1,1)", "--lambdas", "0"), "--lambdas must be"),
    # surface flags the chosen surface does not read
    (("export-obj", "--surface", "competitor", "--u", "1", "--res", "2",
      "--window", "0,1"), "--window must be omitted"),
    (("monotonicity", "--surface", "broken-plane", "--u", "1", "--window",
      "0,1", "--lines", "10"), "--window must be omitted"),
    (("export-obj", "--surface", "broken-plane", "--u", "1", "--window",
      "-1,1", "--res", "2", "--z-cap", "3"), "--z-cap must be omitted"),
    (("area", "--surface", "sigma-rho", "--rho", "id", "--window", "0,1",
      "--kind", "alpha"), "--kind must be omitted"),
    (("area", "--surface", "strip", "--profile", "arctan(-1)", "--window",
      "0,1", "--rho", "id"), "--rho must be omitted"),
    (("area", "--surface", "sigma-rho", "--rho", "id", "--window", "0,1",
      "--x-max", "1"), "--x-max must be omitted"),
    (("area", "--surface", "strip", "--window", "0,1"),
     "--profile is required"),
    # the census no longer takes a scan resolution
    (("monotonicity", "--surface", "broken-plane", "--u", "1", "--scan", "2"),
     "unrecognized arguments: --scan"),
])
def test_flag_outside_the_tables_exits_with_two(tmp_path, capfd, argv,
                                                message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, *argv) == 2
    assert not caught
    err = capfd.readouterr().err
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1
    assert not os.listdir(str(tmp_path))


def test_scaling_limit_writes_null_for_an_infinite_opening(tmp_path):
    assert run(tmp_path, "scaling-limit", "--profile", "linear(-1)") == 0
    text = (tmp_path / "scaling-limit.json").read_text()
    assert "Infinity" not in text
    data = json.loads(text)
    assert data["kind"] == "vertical-plane-limit"
    assert data["u"] is None
    assert data["slope_neg_limit"] is None
    assert data["slope_pos_limit"] is None


@pytest.mark.parametrize("surface, method", [
    (("strip", "--profile", "samples(0,0,1,-1.5)"), "exact"),
    (("strip", "--profile", "arctan(-1)"), "exact"),
    (("broken-plane", "--u", "1"), "exact"),
    (("sigma-rho", "--rho", "id", "--window", "0,1"), "exact"),
    (("sigma-rho", "--rho", "arctan(1)", "--window", "0,1"), "exact"),
])
def test_census_records_its_count_method(tmp_path, surface, method):
    assert run(tmp_path, "monotonicity", "--surface", *surface,
               "--lines", "20") in (0, 1)
    assert load(tmp_path, "monotonicity.json")["count_method"] == method


#: One profile of every kind the CLI builds, and a window on which it
#: increases where it has one (a sigma-rho rho must).
CENSUS_PROFILES = {
    "constant": ("constant(0.5)", None),
    "linear": ("linear(0.5,0.25)", "-1,2"),
    "broken-plane-alpha": ("broken-plane-alpha(1)", None),
    "arctan": ("arctan(-1)", None),
    "triangle-bump": ("triangle-bump(1,1)", "-1,0"),
    "samples": ("samples(-1,0,0,1,1,3)", "-1,1"),
    "id": ("id", "0,1"),
}


def test_every_profile_the_cli_builds_is_counted_exactly(tmp_path,
                                                         monkeypatch):
    # a closed-form kind the census can only scan would fall back to
    # crossing_counts; fail instead
    def no_scan(*args, **kwargs):
        raise AssertionError("the census scanned")

    monkeypatch.setattr("heisurf.lines.crossing_counts", no_scan)
    monkeypatch.setattr("heisurf.lines._crossings", no_scan)
    kinds = set(profilespec.registry_kinds()) | set(profilespec._ALIASES)
    assert set(CENSUS_PROFILES) == kinds
    rhos = [("arctan(2.5)", "-3,2")]
    for text, window in CENSUS_PROFILES.values():
        argv = ("--surface", "strip", "--profile", text)
        assert run(tmp_path, "monotonicity", *argv, "--lines", "50") in (0, 1)
        assert load(tmp_path, "monotonicity.json")["count_method"] == "exact"
        if window is not None:
            rhos.append((text, window))
    for text, window in rhos:
        argv = ("--surface", "sigma-rho", "--rho", text, "--window", window)
        assert run(tmp_path, "monotonicity", *argv, "--lines", "50") in (0, 1)
        assert load(tmp_path, "monotonicity.json")["count_method"] == "exact"


def test_census_records_the_strip_width(tmp_path):
    assert run(tmp_path, "monotonicity", "--surface", "strip", "--profile",
               "arctan(-1)", "--lines", "10") == 0
    assert load(tmp_path, "monotonicity.json")["x_max"] == 1.0
    assert run(tmp_path, "monotonicity", "--surface", "broken-plane", "--u",
               "1", "--x-max", "2", "--lines", "10") in (0, 1)
    assert load(tmp_path, "monotonicity.json")["x_max"] == 2.0


# ---------------------------------------------------------------------------
# determinism


def test_reruns_with_identical_arguments_are_byte_identical(tmp_path):
    argv = ("monotonicity", "--surface", "broken-plane", "--u", "1",
            "--seed", "5")
    run(tmp_path, *argv)
    first = (tmp_path / "monotonicity.json").read_bytes()
    run(tmp_path, *argv)
    assert (tmp_path / "monotonicity.json").read_bytes() == first

    argv = ("export-obj", "--surface", "competitor", "--u", "1",
            "--competitor-kind", "harmonic", "--res", "6")
    run(tmp_path, *argv)
    first = (tmp_path / "competitor.obj").read_bytes()
    run(tmp_path, *argv)
    assert (tmp_path / "competitor.obj").read_bytes() == first


#: Exit code, stdout line and sha256 of every artifact of each command of
#: acceptance test_09, run with the output directory from the environment.
PINNED_RUNS = {
    ("check-strip", "--profile", "arctan(-1)"): (
        0, "check-strip: PASS profile=arctan(-1.0) slopes=[-1,0]",
        {"check-strip.json": "92d883568c95212679ca0162772eb823"
                             "4cb65e8ae29a8e0d14d8d2ad0f1c263c"}),
    ("check-minimal", "--profile", "broken-plane-alpha(1)"): (
        1, "check-minimal: FAIL profile=broken-plane-alpha(1.0) "
           "slopes=[-2,0] witness slope -2 on [-0.5,0.5]",
        {"check-minimal.json": "7ec9f0a476a8f35e644b4af01d204764"
                               "2784580cb59abfc5cb253ec235ee98b6"}),
    ("area", "--surface", "sigma-rho", "--rho", "id", "--window", "0,1"): (
        0, "area: OK surface=sigma-rho value=3.9438476201189268",
        {"area.json": "392270305bdc9f262dbdccb912e6ec6c"
                      "2f9c81815c1ac0a89526f59d97390f0c"}),
    ("energy", "--surface", "broken-plane", "--u", "1", "--z-cap", "2"): (
        0, "energy: OK surface=broken-plane value=4.1111111111111107",
        {"energy.json": "0db29fd94a6702835c401534918650a8"
                        "cda83a053f8bec55f26376e5e920c7ce"}),
    ("second-variation", "--alpha", "broken-plane-alpha(1)",
     "--tau", "triangle-bump(1,1)"): (
        0, "second-variation: PASS II=-0.47140452079102996 "
           "fitted-c=-0.46052159920199953 order=3.00 "
           "csv=second-variation.csv",
        {"second-variation.csv": "c5f733a0ba49717931030802fe147786"
                                 "29a633595ee03f9c2528050c6515627c",
         "second-variation.json": "0e7dca5b57e4cd92d09025d9a26e84da"
                                  "26c91f9c7e56a137a2ac4093a75eaa05"}),
    ("monotonicity", "--surface", "broken-plane", "--u", "1",
     "--seed", "3"): (
        1, "monotonicity: FAIL surface=broken-plane lines=400 "
           "max-crossings=2 violations=3",
        {"monotonicity.json": "5c3b32a93320b63649871ae5b42a8308"
                              "f14538d1fd74ffe0eb65504aa0d4c8c0"}),
    ("scaling-limit", "--profile", "arctan(-1)"): (
        0, "scaling-limit: PASS kind=broken-plane theta=0 "
           "u=1.5707963247949028",
        {"scaling-limit.json": "af3b48797cf25f823539176d35c3911e"
                               "80113c0de92bfc6809f42dc43067e6d3"}),
    ("sigma-rho", "--rho", "id", "--window", "0,1", "--check-chords", "100",
     "--seed", "5"): (
        0, "sigma-rho: PASS area=3.9438476201189268 quad-gap=2.688e-09 "
           "chords=clear",
        {"sigma-rho.json": "75bed9ab35e4254584aa2d68132343b8"
                           "dcfb268685538bcca5cf249bc125b459"}),
    ("competitor", "--u", "1"): (
        0, "competitor: PASS u=1 area-margin=0.22167401548856125 "
           "energy-margin=0.20456857356077229 csv=competitor.csv",
        {"competitor.csv": "9111a7d99602a9ea97924bf1823404e2"
                           "9c770ecc814f336aef477410c53d26c9",
         "competitor.json": "dba888274222055e243798f8c2b2f425"
                            "305d27731a18ff8b224e55a307701cd9"}),
    ("export-obj", "--surface", "competitor", "--u", "1",
     "--competitor-kind", "minimal", "--res", "10"): (
        0, "export-obj: OK surface=competitor vertices=605 faces=980 "
           "file=competitor.obj",
        {"competitor.obj": "5ea6ccbdd23e0f77d2a5e0f1fb5594e4"
                           "6f86bd115a02f9195a7001a3ce68cd4a"}),
    ("calibrate-lines", "--lines", "20000", "--seed", "2"): (
        0, "calibrate-lines: PASS ratio=7.910275441200727 expected=8 "
           "z=-1.40",
        {"calibrate-lines.json": "b6de7ef2a55f30a6d570d38fcd80b218"
                                 "e5bcabf21e6686e436fe0e1cdd071f98"}),
}


#: Outputs of the broken-plane graph function (the fan vertices of an OBJ)
#: and of the sigma-rho window check (a census of each kind of rho), pinned
#: the same way.
GUARD_RUNS = {
    ("export-obj", "--surface", "broken-plane", "--u", "1", "--window",
     "-1,1", "--res", "40"): (
        0, "export-obj: OK surface=broken-plane vertices=1681 faces=3200 "
           "file=broken-plane.obj",
        {"broken-plane.obj": "e37831a66e94d8fa61ed01ced14a5189"
                             "ff8531516fcc03045984d2c1e87ad2a8"}),
    ("monotonicity", "--surface", "sigma-rho", "--rho", "arctan(1)",
     "--window", "0,1", "--lines", "500", "--seed", "3"): (
        0, "monotonicity: PASS surface=sigma-rho lines=500 max-crossings=1 "
           "violations=0",
        {"monotonicity.json": "6ae9888ac279dc170ebfffc659f14782"
                              "020ff61ad6d7439db7340f15e85a0366"}),
    ("monotonicity", "--surface", "sigma-rho", "--rho", "id",
     "--window", "0,1", "--lines", "500", "--seed", "3"): (
        0, "monotonicity: PASS surface=sigma-rho lines=500 max-crossings=1 "
           "violations=0",
        {"monotonicity.json": "44f654183bd04ee32b0d0e66ef2c0fdbc"
                              "5af8431b58c0962df5ee6555cbf27ef"}),
}


def _assert_pinned(tmp_path, monkeypatch, capsys, argv, table):
    # the output directory comes from the environment, so that the recorded
    # argv names no temporary directory
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code = cli.main(list(argv))
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in _artifacts(tmp_path).items()}
    assert (code, capsys.readouterr().out, digests) == (
        table[argv][0], table[argv][1] + "\n", table[argv][2])


@pytest.mark.parametrize("argv", list(PINNED_RUNS), ids=lambda a: a[0])
def test_artifact_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv):
    _assert_pinned(tmp_path, monkeypatch, capsys, argv, PINNED_RUNS)


@pytest.mark.parametrize("argv", list(GUARD_RUNS),
                         ids=["broken-plane-obj", "sigma-rho-arctan",
                              "sigma-rho-id"])
def test_shared_rule_outputs_are_pinned(tmp_path, monkeypatch, capsys, argv):
    _assert_pinned(tmp_path, monkeypatch, capsys, argv, GUARD_RUNS)


# ---------------------------------------------------------------------------
# one parser per process


def _fresh_interpreter(*args, env=None):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC,
                                          **(env or {})})


def _artifacts(directory):
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(str(directory)))}


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first `main` call, never at import
    probe = ("import heisurf.cli as cli\n"
             "print(cli.build_parser.cache_info().currsize)\n"
             "cli.main(['--help'])\n"
             "cli.main(['--help'])\n"
             "print(cli.build_parser.cache_info().misses)\n")
    done = _fresh_interpreter("-c", probe)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("0", "1")


#: Modules no command needs before its handler runs.
DEFERRED = ("heisurf.families", "heisurf.meshes", "heisurf.lines",
            "heisurf.quadrature", "heisurf.surfaces", "heisurf.variation",
            "heisurf.graphs", "numpy.polynomial")


def test_importing_the_cli_loads_only_what_every_command_needs():
    probe = ("import sys\n"
             "import heisurf.cli\n"
             "print(' '.join(sorted(sys.modules)))\n")
    done = _fresh_interpreter("-c", probe)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {"numpy", "heisurf.strips", "heisurf.profilespec",
            "heisurf.reports"} <= loaded
    assert loaded.isdisjoint(DEFERRED), sorted(loaded.intersection(DEFERRED))


def test_check_strip_runs_without_the_families(tmp_path):
    done = _fresh_interpreter("-X", "importtime", "-m", "heisurf.cli",
                              "check-strip", "--profile", "arctan(-1)",
                              "--output-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("check-strip: PASS")
    # -X importtime writes one "import time: ... | <module>" line per import
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines()}
    assert "heisurf.strips" in imported
    assert "heisurf.families" not in imported


#: Run in this order in one process; the shared parser must carry nothing
#: from one run to the next: a usage error, help, a seeded census, and the
#: same census at its default seed.
SHARED_PARSER_RUNS = (
    ("monotonicity", "--surface", "strip", "--profile", "arctan(-1)",
     "--lines", "0"),
    ("--help",),
    ("monotonicity", "--surface", "broken-plane", "--u", "1", "--seed", "5"),
    ("monotonicity", "--surface", "broken-plane", "--u", "1"),
)


def test_the_shared_parser_carries_no_state_between_calls(
        tmp_path, monkeypatch, capfd):
    # the output directory comes from the environment, so that the recorded
    # argv, and with it the artifacts, do not name a directory
    monkeypatch.setenv("COLUMNS", "80")
    codes, seeds = [], []
    for i, argv in enumerate(SHARED_PARSER_RUNS):
        here, fresh = tmp_path / f"here-{i}", tmp_path / f"fresh-{i}"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(here))
        code = cli.main(list(argv))
        out, err = capfd.readouterr()
        done = _fresh_interpreter("-m", "heisurf.cli", *argv,
                                  env={cli.OUTPUT_DIR_ENV: str(fresh)})
        assert (code, out, err, _artifacts(here)) == (
            done.returncode, done.stdout, done.stderr, _artifacts(fresh)), argv
        codes.append(code)
        if (here / "monotonicity.json").exists():
            seeds.append(load(here, "monotonicity.json")["seed"])
    assert codes == [2, 0, 1, 1]
    assert seeds == [5, 0]

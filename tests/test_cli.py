"""Exit codes, verdict lines, and artifact determinism of the command line."""
import json
import math
import os
import warnings

import pytest

import heisurf.cli as cli
import heisurf.strips as strips
from heisurf.quadrature import QuadratureError

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


def test_check_minimal_flags_the_broken_plane_with_a_witness(tmp_path, capsys):
    rc = run(tmp_path, "check-minimal", "--profile", "broken-plane-alpha(1)")
    out = capsys.readouterr().out
    assert rc == 1
    assert "witness slope -2" in out
    data = load(tmp_path, "check-minimal.json")
    assert data["verdict"] is False
    assert data["witness"]["slope"] == -2.0


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

    monkeypatch.setattr(cli, "sigma_rho_area_quadrature", explode)
    assert run(tmp_path, "sigma-rho", "--rho", "id", "--window", "0,1") == 3


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
])
def test_degenerate_numerics_exit_with_three(tmp_path, capsys, argv, text):
    assert run(tmp_path, *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and text in err
    assert err.count("\n") == 1 and "float division" not in err
    assert not os.listdir(str(tmp_path))


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
    (("competitor", "--u", "1", "--z-floor", "inf"), "--z-floor must be"),
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
    (("strip", "--profile", "arctan(-1)"), "scan"),
    (("broken-plane", "--u", "1"), "exact"),
    (("sigma-rho", "--rho", "id", "--window", "0,1"), "exact"),
    (("sigma-rho", "--rho", "arctan(1)", "--window", "0,1"), "scan"),
])
def test_census_records_its_count_method(tmp_path, surface, method):
    assert run(tmp_path, "monotonicity", "--surface", *surface,
               "--lines", "20") in (0, 1)
    assert load(tmp_path, "monotonicity.json")["count_method"] == method


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

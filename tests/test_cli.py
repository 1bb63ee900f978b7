"""Exit codes, verdict lines, and artifact determinism of the command line."""
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


@pytest.mark.parametrize("argv", [
    ("check-strip", "--kind", "alpha"),
    ("check-minimal", "--kind", "alpha"),
    ("monotonicity", "--surface", "strip", "--kind", "alpha"),
    ("export-obj", "--surface", "strip", "--kind", "alpha", "--window",
     "-1,1", "--res", "2"),
], ids=lambda argv: argv[0])
def test_every_command_refuses_arctan_in_the_alpha_chart(tmp_path, capsys,
                                                          argv):
    # the alpha<->sigma transform is exact only for PWL profiles, and each
    # command that reads an alpha chart refuses the others alike
    assert run(tmp_path, *argv, "--profile", "arctan(-1)") == 2
    assert capsys.readouterr().err == (
        "error: exact transform needs a piecewise-linear profile\n")
    assert not os.listdir(str(tmp_path))


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


#: The ends of the sigma rule [-2, 2) and the floats just inside them.
RULE_SLOPES = (-2.0, math.nextafter(-2.0, 0.0), math.nextafter(2.0, 0.0), 2.0)
rule_slopes = st.one_of(st.sampled_from(RULE_SLOPES), st.floats(-3.0, 3.0))


@st.composite
def rule_profiles(draw):
    """A PWL or arctan spec string whose slopes are drawn at and around the
    ends of the rule.  A samples profile starts at (w0, 0) and its knot gaps
    are powers of two, so a drawn slope of its first piece is kept exactly."""
    kind = draw(st.sampled_from(("linear", "arctan", "samples")))
    if kind == "linear":
        return f"linear({draw(rule_slopes)!r},{draw(st.floats(-1, 1))!r})"
    if kind == "arctan":
        return f"arctan({draw(rule_slopes)!r})"
    knots = [(draw(st.floats(-2.0, 0.0)), 0.0)]
    for _ in range(draw(st.integers(1, 3))):
        gap = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))
        w, v = knots[-1]
        knots.append((w + gap, v + draw(rule_slopes) * gap))
    return "samples(" + ",".join(f"{w!r},{v!r}" for w, v in knots) + ")"


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(rule_profiles())
@example("linear(-2.0,0.0)")
@example(f"linear({math.nextafter(-2.0, 0.0)!r},0.0)")
@example(f"arctan({math.nextafter(2.0, 0.0)!r})")
@example("linear(2.0,0.0)")
@example("broken-plane-alpha(1)")
def test_the_slope_rule_gives_one_verdict_and_its_census_passes(text):
    # the sufficiency half of the theorem across the commands: check-strip,
    # check-minimal and the library give one verdict, and every strip
    # check-strip passes has a monotone epigraph in the exact census
    profile = profilespec.profile_from_string(text)
    graphical = strips.GraphicalStrip(profile).is_graphical()
    with tempfile.TemporaryDirectory() as out:
        argv = ("--profile", text, "--output-dir", out)
        strip = cli.main(["check-strip", *argv])
        minimal = cli.main(["check-minimal", "--kind", "sigma", *argv])
        assert strip == minimal == (0 if graphical else 1)
        if graphical:
            assert cli.main(["monotonicity", "--surface", "strip", *argv,
                             "--lines", "2000"]) == 0


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
    # the slope -3 / (1 + z^2) of arctan(-3) is lowest at z = 0 exactly;
    # the alpha chart refuses a profile that is not PWL
    code = run(tmp_path, command, "--kind", kind, "--profile", "arctan(-3)")
    if kind == "alpha":
        assert code == 2
        return
    assert code == 1
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


@pytest.mark.parametrize("alpha, tau, lambdas, line", [
    # pulled back twice, through eta and through an interpolant of it, a
    # knot of tau lands on two floats 5.6e-17 apart at w = -0.1972
    # (lam = -0.08), a piece whose rate, 4.0, passes 2 eta' = 3.89
    ("samples(-2,-0.06,-0.75,-0.67,0,0.75)", "triangle-bump(-0.22,0.23)",
     "0.06,0.08", "II=0.0089413673183693643 fitted-c=0.0089413673599506201 "
                  "order=4.00"),
    # eta at the knot -0.1 of alpha is 0.30000000000000004, one ulp above
    # zeta's level 0.3 at a knot of tau: pulled back, that level would
    # leave a piece one ulp wide
    ("samples(-1.2,-0.1,-0.6,-0.1,-0.1,0.8,0,1)", "triangle-bump(0.5,0.3)",
     "0.02,0.04,0.06,0.08", "II=0.051739428589933995 "
                            "fitted-c=0.051739437323501968 order=3.98"),
])
def test_a_deformation_that_does_not_reverse_is_not_refused(
        tmp_path, capsys, alpha, tau, lambdas, line):
    assert run(tmp_path, "second-variation", "--alpha", alpha, "--tau", tau,
               "--lambdas", lambdas) == 0
    assert f"second-variation: PASS {line} " in capsys.readouterr().out


def test_second_variation_refuses_a_falling_height_map(tmp_path, capsys):
    assert run(tmp_path, "second-variation", "--alpha", "linear(-3)",
               "--tau", "triangle-bump(1,1)", "--window", "-2,2") == 2
    assert capsys.readouterr().err == (
        "error: graph profile slopes below -2 are not supported\n")


@pytest.mark.parametrize("alpha, tau", [
    ("linear(-1)", "triangle-bump(1,1)"),
    ("samples(-1,1,1,-1)", "triangle-bump(0,0.5)"),
])
def test_an_exact_quadratic_model_passes_as_check_minimal_does(
        tmp_path, capsys, alpha, tau):
    # alpha' = -1 wherever the bump deforms the strip, so II and every area
    # excess are exactly 0.0: the quadratic model is exact, with no residual
    # order to fit, and both commands pass the profile
    assert run(tmp_path, "check-minimal", "--kind", "alpha",
               "--profile", alpha) == 0
    assert run(tmp_path, "second-variation", "--alpha", alpha,
               "--tau", tau) == 0
    assert ("second-variation: PASS II=0 fitted-c=0 order=exact "
            in capsys.readouterr().out)
    text = (tmp_path / "second-variation.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    data = json.loads(text)
    assert data["delta_areas"] == [0, 0, 0, 0]
    assert data["residual_order"] is None
    assert data["consistent"] is True


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


@pytest.mark.parametrize("scale", ["-1e30", "-1e150", "-1e300"])
def test_scaling_limit_of_a_steep_arctan_is_exact(tmp_path, scale):
    # the ruling heights lie near 0, deep inside brackets as wide as
    # |q sigma(c)|, up to 1e302: the solve still pins them to the rounding
    # of c, so the rescaled graphs meet the limit to 1 ulp
    assert run(tmp_path, "scaling-limit", "--profile",
               f"arctan({scale})") == 0
    assert max(load(tmp_path, "scaling-limit.json")["errors"]) <= 4.5e-16


def test_scaling_limit_rejects_an_increasing_slope_profile(tmp_path):
    assert run(tmp_path, "scaling-limit", "--profile", "arctan(1)") == 2


def test_scaling_limit_refuses_a_repeated_t(tmp_path, capsys):
    # equal errors never shrink by the factor convergence asks for
    assert run(tmp_path, "scaling-limit", "--profile", "arctan(-1)",
               "--t-grid", "2,2") == 2
    assert capsys.readouterr().err == (
        "error: --t-grid must be finite numbers > 0, strictly increasing, "
        "got '2,2'\n")
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


def test_out_of_memory_exits_with_three(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("heisurf.lines.sample_lines", exhausted)
    assert run(tmp_path, "monotonicity", "--surface", "strip", "--profile",
               "linear(0.5)", "--lines", "10") == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(str(tmp_path)) == []


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
    # a float ** that overflows: the sampling box's height and the fan's
    # energy
    *((argv, "floating-point overflow: Numerical result out of range")
      for argv in (
        ("calibrate-lines", "--r1", "1e300", "--r2", "1e301", "--lines",
         "100"),
        ("energy", "--surface", "broken-plane", "--u", "1e300", "--z-cap",
         "1"))),
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


@pytest.mark.parametrize("argv, knots", [
    (("check-strip", "--profile", "triangle-bump(1,1e-320)"),
     "triangle-bump slope between w=-1e-320 and w=0.0"),
    (("monotonicity", "--surface", "strip", "--profile",
      "triangle-bump(1,1e-320)"),
     "triangle-bump slope between w=-1e-320 and w=0.0"),
    (("second-variation", "--alpha", "constant(0)", "--tau",
      "triangle-bump(1,1e-320)"),
     "triangle-bump slope between w=-1e-320 and w=0.0"),
    (("check-minimal", "--profile", "triangle-bump(1e308,1e-10)"),
     "triangle-bump slope between w=-1e-10 and w=0.0"),
    (("check-strip", "--profile", "broken-plane-alpha(1e308)"),
     "broken-plane-alpha slope between w=-5e+307 and w=5e+307"),
])
def test_every_pwl_kind_refuses_an_overflowing_slope_as_samples_does(
        tmp_path, capsys, argv, knots):
    # one rule refuses the knots of every piecewise-linear kind as it
    # builds them, so an overflowing slope is a usage error, not a numeric
    # failure further on
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err == f"error: {knots} is not finite\n"
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
        degenerate_lines=0, violations=[], max_crossings=1)
    monkeypatch.setattr(lines, "monotonicity_check", lambda *a, **k: report)
    assert run(tmp_path, "monotonicity", "--surface", "broken-plane",
               "--u", "1") == 3
    assert capsys.readouterr() == (
        "", f"numeric failure: {key} is nan, not finite\n")
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("argv", [
    ("check-strip", "--profile", "linear(-2.5)"),
    ("check-strip", "--profile", "linear(3)"),
    ("check-minimal", "--profile", "linear(-2.5)", "--kind", "sigma"),
], ids=["check-strip-falling", "check-strip-rising", "check-minimal-sigma"])
def test_an_unbounded_witness_end_is_written_as_null(tmp_path, capsys, argv):
    # the knot of linear(m) at 0 joins two pieces of one slope, and the
    # witness is the whole run of them; the verdict line keeps the infinities
    assert run(tmp_path, *argv) == 1
    out = capsys.readouterr().out
    assert out.endswith(" on [-inf,inf]\n"), out
    with open(tmp_path / f"{argv[0]}.json", encoding="ascii") as fh:
        text = fh.read()
    assert "Infinity" not in text
    assert json.loads(text)["witness"]["interval"] == [None, None]


def test_every_report_field_reaches_the_payload(tmp_path, monkeypatch):
    # a field the report grows is written without the CLI naming it: in the
    # JSON payload and, as a total, in the CSV
    import dataclasses
    import heisurf.families as families
    report = families.competitor_compare(1.0)
    wider = dataclasses.make_dataclass(
        "WiderReport", [("extra_margin", float)],
        bases=(families.CompareReport,), frozen=True, eq=False)
    monkeypatch.setattr(families, "competitor_compare", lambda *a, **k: wider(
        **vars(report), extra_margin=0.25))
    assert run(tmp_path, "competitor", "--u", "1") == 0
    data = load(tmp_path, "competitor.json")
    assert data["extra_margin"] == 0.25
    assert set(vars(report)) < set(data)
    assert "extra_margin,0.25\n" in (tmp_path / "competitor.csv").read_text()


@pytest.mark.parametrize("profile, interval", [
    ("samples(0,0,1,2.5)", [0.0, 1.0]),
    ("samples(-1,0,0,2,1,4,2,3)", [-1.0, 1.0]),
    ("arctan(3)", [0.0, 0.0]),
])
def test_a_too_high_slope_is_witnessed_where_the_profile_takes_it(
        tmp_path, profile, interval):
    assert run(tmp_path, "check-strip", "--profile", profile) == 1
    assert load(tmp_path, "check-strip.json")["witness"]["interval"] == \
        interval


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
    # domains the library would refuse with its own words
    (("competitor", "--u", "0"), "--u must be a finite number > 0"),
    (("scaling-limit", "--profile", "arctan(-1)", "--t-grid", "2,1"),
     "--t-grid must be finite numbers > 0, strictly increasing"),
    (("scaling-limit", "--profile", "arctan(-1)", "--t-grid", "0,1"),
     "--t-grid must be finite numbers > 0, strictly increasing"),
    (("area", "--surface", "broken-plane", "--u", "1", "--z-cap", "-1"),
     "--z-cap must be a finite number >= 0"),
    (("energy", "--surface", "broken-plane", "--u", "1", "--z-cap", "-1"),
     "--z-cap must be a finite number >= 0"),
    (("export-obj", "--surface", "competitor", "--u", "0", "--res", "3"),
     "--u must be a finite number > 0"),
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


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_artifacts_get_the_mode_of_the_umask(tmp_path, monkeypatch, umask):
    # JSON, CSV and a streamed OBJ, each renamed into place from a
    # temporary file, have the same bytes under either umask; the output
    # directory comes from the environment, so no argv names it
    commands = [("second-variation", "--alpha", "broken-plane-alpha(1)",
                 "--tau", "triangle-bump(1,1)"),
                ("export-obj", "--surface", "competitor", "--u", "1",
                 "--res", "4")]
    written = []
    for mask in (umask, 0o022 ^ 0o077 ^ umask):
        out = tmp_path / oct(mask)
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
        old = os.umask(mask)
        try:
            for argv in commands:
                assert cli.main(list(argv)) == 0
        finally:
            os.umask(old)
        assert {name: os.stat(out / name).st_mode & 0o777
                for name in os.listdir(str(out))} == {
            name: 0o666 & ~mask for name in ("competitor.obj",
                                              "second-variation.csv",
                                              "second-variation.json")}
        written.append(_artifacts(out))
    assert written[0] == written[1]


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
           "u=1.5707963267948966",
        {"scaling-limit.json": "d4f16e176cdc294f5826c825943ccdef"
                               "aa2bfc128e7ab71eda1f75cdebad246a"}),
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


#: Outputs of the broken-plane graph function (the fan vertices of an OBJ),
#: of the sigma-rho window check (a census of each kind of rho) and of the
#: exact census kernel (the strip and broken-plane censuses of the bench's
#: `census` workload at seed 3), pinned the same way.
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
    ("monotonicity", "--lines", "2000", "--seed", "3", "--surface", "strip",
     "--profile", "samples(-2,-0.524071,-1,-0.391383,0,-0.781518,1,"
                  "-0.469757,2,-0.092597)"): (
        0, "monotonicity: PASS surface=strip lines=2000 max-crossings=1 "
           "violations=0",
        {"monotonicity.json": "2d563838b6a6d30d733398a2a644d6f2"
                              "33165634f7e6512bfce26141021a35a7"}),
    ("monotonicity", "--lines", "2000", "--seed", "3", "--surface", "strip",
     "--profile", "arctan(-1)"): (
        0, "monotonicity: PASS surface=strip lines=2000 max-crossings=1 "
           "violations=0",
        {"monotonicity.json": "d599ffc5e0fac2151e507c0a6b45cf56"
                              "9f404b7917eba6e50204c2cce9d2db35"}),
    ("monotonicity", "--lines", "2000", "--seed", "3", "--surface",
     "broken-plane", "--u", "1"): (
        1, "monotonicity: FAIL surface=broken-plane lines=2000 "
           "max-crossings=2 violations=8",
        {"monotonicity.json": "6946c42388fdc17c403843e61c767cc3"
                              "86770816160cca70d517901fb883b0d6"}),
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
                              "sigma-rho-id", "census-pwl-strip",
                              "census-arctan-strip", "census-broken-plane"])
def test_shared_rule_outputs_are_pinned(tmp_path, monkeypatch, capsys, argv):
    _assert_pinned(tmp_path, monkeypatch, capsys, argv, GUARD_RUNS)


_CENSUS_PINS_SCRIPT = """
import contextlib, hashlib, io, os, sys
sys.path.insert(0, sys.argv[1])
import heisurf.cli as cli
from test_cli import GUARD_RUNS
censuses = [argv for argv in GUARD_RUNS if argv[0] == "monotonicity"]
assert len(censuses) == 5
for n, argv in enumerate(censuses):
    out = os.path.join(sys.argv[2], str(n))
    os.environ[cli.OUTPUT_DIR_ENV] = out
    line = io.StringIO()
    with contextlib.redirect_stdout(line):
        code = cli.main(list(argv))
    digests = {name: hashlib.sha256(open(os.path.join(out, name), "rb")
                                    .read()).hexdigest()
               for name in sorted(os.listdir(out))}
    want = GUARD_RUNS[argv]
    assert (code, line.getvalue(), digests) == (
        want[0], want[1] + "\\n", want[2]), argv
"""


def test_census_pins_do_not_depend_on_the_cpu_dispatch(tmp_path,
                                                       without_dispatch):
    # the five censuses of GUARD_RUNS (sigma-rho and the bench's strips and
    # broken plane) write their pinned bytes with every dispatched numpy
    # kernel this CPU runs switched off
    without_dispatch(_CENSUS_PINS_SCRIPT,
                     os.path.dirname(os.path.abspath(__file__)), tmp_path)


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


# ---------------------------------------------------------------------------
# the parser's surface

REQUIRED = "required"
FREE = (None, None)
OUTPUT_FLAGS = {"--output-dir": FREE, "--out": FREE}
SURFACE_CHOICES = ("broken-plane", "sigma-rho", "strip")
KIND_CHOICES = ("alpha", "sigma")
SURFACE_FLAGS = {"--profile": FREE, "--kind": (KIND_CHOICES, "sigma"),
                 "--rho": FREE, "--u": FREE, "--window": FREE,
                 "--x-max": (None, "1")}

#: Each command's options: their choices (sorted) and what leaving one out
#: stands for: REQUIRED, the text the option then equals, or None where the
#: handler decides (and for a surface flag, whose need depends on the
#: --surface).
PARSER_SURFACE = {
    "check-strip": {"--profile": (None, REQUIRED),
                    "--kind": (KIND_CHOICES, "sigma")},
    "check-minimal": {"--profile": (None, REQUIRED),
                      "--kind": (KIND_CHOICES, "alpha")},
    **{command: {"--surface": (SURFACE_CHOICES, REQUIRED), **SURFACE_FLAGS,
                 "--z-cap": FREE}
       for command in ("area", "energy")},
    "second-variation": {"--alpha": (None, REQUIRED),
                         "--tau": (None, REQUIRED), "--window": FREE,
                         "--lambdas": (None, "0.02,0.04,0.06,0.08")},
    "monotonicity": {"--surface": (SURFACE_CHOICES, REQUIRED),
                     **SURFACE_FLAGS, "--lines": (None, "400"),
                     "--radius": (None, "1.5"), "--seed": (None, "0")},
    "scaling-limit": {"--profile": (None, REQUIRED),
                      "--t-grid": (None, "2,4,8,16"),
                      "--window": (None, "1000")},
    "sigma-rho": {"--rho": (None, REQUIRED), "--window": (None, REQUIRED),
                  "--check-chords": (None, "0"), "--seed": (None, "0")},
    "competitor": {"--u": (None, REQUIRED), "--z-cap": FREE},
    "export-obj": {"--surface": (("broken-plane", "competitor", "sigma-rho",
                                  "strip"), REQUIRED),
                   **SURFACE_FLAGS,
                   "--competitor-kind": (("harmonic", "minimal"), "minimal"),
                   "--z-cap": FREE, "--res": (None, REQUIRED),
                   "--x-res": FREE},
    "calibrate-lines": {"--r1": (None, "1"), "--r2": (None, "2"),
                        "--lines": (None, "200000"), "--seed": (None, "0"),
                        "--max-z": (None, "3")},
}

#: Runs of each command on which its options are left out or given; the
#: first gives every option the command requires and nothing else.
BASES = {
    "check-strip": ("--profile linear(0.5)",),
    "check-minimal": ("--profile linear(0.5)",),
    **dict.fromkeys(("area", "energy"), (
        "--surface strip --profile linear(0.5) --window 0,1",
        "--surface broken-plane --u 1 --z-cap 1")),
    "second-variation": (
        "--alpha broken-plane-alpha(1) --tau triangle-bump(1,1)",),
    "monotonicity": ("--surface strip --profile linear(0.5)",
                     "--surface broken-plane --u 1"),
    "scaling-limit": ("--profile arctan(-1)",),
    "sigma-rho": ("--rho id --window 0,1",),
    "competitor": ("--u 1",),
    "export-obj": ("--surface strip --profile linear(0.5) --window 0,1 "
                   "--res 3",
                   "--surface broken-plane --u 1 --window -1,1 --res 3",
                   "--surface competitor --u 1 --res 3"),
    "calibrate-lines": ("",),
}


def test_every_command_offers_its_recorded_options_and_choices():
    commands = next(action for action in cli.build_parser()._actions
                    if action.dest == "command").choices
    assert set(commands) == set(PARSER_SURFACE)
    for command, options in PARSER_SURFACE.items():
        offered = {option: tuple(sorted(action.choices or ())) or None
                   for action in commands[command]._actions
                   for option in action.option_strings
                   if option not in ("-h", "--help")}
        assert offered == {option: choices for option, (choices, _) in
                           {**options, **OUTPUT_FLAGS}.items()}, command


def _outcome(tmp_path, capsys, command, argv):
    """Exit code, verdict line and artifacts of a run, less the argv each
    artifact records."""
    out = tmp_path / str(len(os.listdir(str(tmp_path))))
    out.mkdir()
    code = run(out, command, *argv)
    artifacts = {}
    for name in sorted(os.listdir(str(out))):
        text = (out / name).read_text()
        if name.endswith(".json"):
            artifacts[name] = {**json.loads(text), "argv": None}
        else:
            artifacts[name] = [line for line in text.splitlines()
                               if not line.startswith("#")]
    return code, capsys.readouterr().out, artifacts


@pytest.mark.parametrize("command", list(PARSER_SURFACE))
def test_an_omitted_option_equals_its_recorded_default(tmp_path, capsys,
                                                       command):
    for option, (_, omitted) in PARSER_SURFACE[command].items():
        if omitted in (None, REQUIRED):
            continue
        compared = 0
        for base in BASES[command]:
            argv = base.split()
            if option in argv:
                continue
            given = _outcome(tmp_path, capsys, command,
                             [*argv, option, omitted])
            if given[0] == 2:  # a surface flag this --surface does not read
                continue
            assert given == _outcome(tmp_path, capsys, command, argv), (
                command, base, option)
            compared += 1
        assert compared, (command, option)


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in PARSER_SURFACE.items()
    for option, (_, omitted) in options.items() if omitted == REQUIRED])
def test_a_missing_required_option_exits_with_two(tmp_path, capsys, command,
                                                  option):
    argv = BASES[command][0].split()
    at = argv.index(option)
    assert run(tmp_path, command, *argv[:at], *argv[at + 2:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert option in err
    assert not os.listdir(str(tmp_path))


@pytest.mark.parametrize("argv, option, value", [
    # an omitted competitor cap is twice the opening
    (("competitor", "--u", "1.5"), "--z-cap", "3"),
    (("export-obj", "--surface", "competitor", "--u", "1.5", "--res", "3"),
     "--z-cap", "3"),
    # an omitted --x-res is --res
    (("export-obj", "--surface", "strip", "--profile", "linear(0.5)",
      "--window", "0,1", "--res", "3"), "--x-res", "3"),
])
def test_an_omitted_option_may_follow_another(tmp_path, capsys, argv, option,
                                              value):
    command, *argv = argv
    assert _outcome(tmp_path, capsys, command, argv) == _outcome(
        tmp_path, capsys, command, [*argv, option, value])

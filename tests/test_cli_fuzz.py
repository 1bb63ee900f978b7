"""Fuzz the command line over its flag and profile grammar.

Whatever the flags, a run ends in a documented exit code, writes no
traceback or warning to stderr (C-level output included), puts no NaN in an
artifact, and puts no infinity in the artifact of a successful run.
"""
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import heisurf.cli as cli

#: Numbers from {nan, +-inf, 0, -1}, finite numbers near overflow and
#: underflow, and [-4, 4].  Half the runs draw only positive ones, which
#: most numeric flags need, so that they get past the domain checks and into
#: the computations.
WILD = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308",
                                  "-1e308", "1e-300"]),
                 st.floats(-4.0, 4.0).map(repr))
TAME = st.one_of(st.floats(0.0, 4.0, exclude_min=True).map(repr),
                 st.sampled_from(["0.5", "1", "2", "3", "1e308", "1e-300"]))
COUNTS = st.one_of(st.integers(1, 6), st.integers(-2, 0)).map(str)
LINES = st.one_of(st.integers(1, 60), st.integers(-2, 0)).map(str)
KINDS = st.sampled_from(["sigma", "alpha", "sigma", "alpha", "beta"])
COMPETITOR_KINDS = st.sampled_from(["minimal", "harmonic", "other"])


def _pairs(numbers):
    ordered = st.lists(numbers, min_size=2, max_size=2, unique=True).map(
        lambda p: ",".join(sorted(p, key=float)))
    junk = st.lists(numbers, max_size=4).map(",".join)
    return st.sampled_from([ordered] * 4 + [junk]).flatmap(lambda s: s)


def _profiles(numbers):
    return st.one_of(
        st.sampled_from([
            "arctan(-1)", "arctan(1)", "id", "constant(0)", "linear(-3)",
            "linear(0.6)", "broken-plane-alpha(1)", "triangle-bump(1,1)",
            "samples(0,0,1,-1.5)", "samples(0,0,0.25,-1.5)",
            "nope(1)", "linear(", "samples(1)", "", "arctan(1,2,3)",
        ]),
        st.builds("arctan({})".format, numbers),
        st.builds("linear({},{})".format, numbers, numbers),
        st.builds("constant({})".format, numbers),
        st.builds("broken-plane-alpha({})".format, numbers),
        st.builds("triangle-bump({},{})".format, numbers, numbers),
        st.lists(numbers, min_size=2, max_size=6).map(
            lambda xs: "samples(" + ",".join(xs) + ")"),
    )


def _grammar(numbers):
    """Each command's flags with their value grammar; the --surface
    commands get every surface flag."""
    pairs, profiles = _pairs(numbers), _profiles(numbers)
    surface = {
        "--profile": profiles, "--kind": KINDS, "--rho": profiles,
        "--u": numbers, "--competitor-kind": COMPETITOR_KINDS,
        "--z-cap": numbers, "--window": pairs, "--x-max": numbers,
    }
    return {
        "check-strip": {"--profile": profiles, "--kind": KINDS},
        "check-minimal": {"--profile": profiles, "--kind": KINDS},
        "area": surface,
        "energy": surface,
        "second-variation": {"--alpha": profiles, "--tau": profiles,
                             "--window": pairs, "--lambdas": pairs},
        "monotonicity": {**surface, "--lines": LINES, "--radius": numbers,
                         "--seed": COUNTS},
        "scaling-limit": {"--profile": profiles, "--t-grid": pairs,
                          "--window": numbers},
        "sigma-rho": {"--rho": profiles, "--window": pairs,
                      "--check-chords": COUNTS, "--seed": COUNTS},
        "competitor": {"--u": numbers, "--z-cap": numbers},
        "export-obj": {**surface, "--res": COUNTS, "--x-res": COUNTS},
        "calibrate-lines": {"--r1": numbers, "--r2": numbers,
                            "--lines": LINES, "--seed": COUNTS,
                            "--max-z": numbers},
    }


SURFACE_FLAGS = {"--profile", "--kind", "--rho", "--u", "--competitor-kind",
                 "--z-cap", "--window", "--x-max"}
#: The surface flags each (command, --surface) pair is usually given with.
USUAL = {
    **{(command, surface): flags
       for command in ("area", "energy")
       for surface, flags in (("strip", "--profile --kind --window --x-max"),
                              ("broken-plane", "--u --z-cap"),
                              ("sigma-rho", "--rho --window"))},
    ("monotonicity", "strip"): "--profile --kind --x-max",
    ("monotonicity", "broken-plane"): "--u --x-max",
    ("monotonicity", "sigma-rho"): "--rho --window",
    ("export-obj", "strip"): "--profile --kind --window --x-max",
    ("export-obj", "broken-plane"): "--u --window --x-max",
    ("export-obj", "sigma-rho"): "--rho --window",
    ("export-obj", "competitor"): "--u --competitor-kind --z-cap",
}
#: Usual flags are given nine times in ten, the others one time in twenty.
USUALLY = st.sampled_from([True] * 9 + [False])
RARELY = st.sampled_from([False] * 19 + [True])


@st.composite
def command_lines(draw):
    grammar = _grammar(draw(st.sampled_from([WILD, TAME])))
    command = draw(st.sampled_from(sorted(grammar)))
    argv = [command]
    usual = set(grammar[command])
    surfaces = [s for c, s in USUAL if c == command]
    if surfaces:
        surface = draw(st.sampled_from(surfaces))
        argv += ["--surface", surface]
        usual -= SURFACE_FLAGS - set(USUAL[command, surface].split())
    for flag, values in grammar[command].items():
        if draw(USUALLY if flag in usual else RARELY):
            argv += [flag, draw(values)]
    return argv


def _non_finite(path):
    """The NaN and infinite numbers an artifact holds; the command line it
    records (JSON strings, OBJ comments) is text, not numbers."""
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    found = []
    if path.endswith(".json"):
        json.loads(text, parse_constant=lambda word: found.append(float(word)))
        return found
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        for token in line.replace(",", " ").split():
            try:
                value = float(token)
            except ValueError:
                continue
            if not math.isfinite(value):
                found.append(value)
    return found


@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(argv=command_lines())
def test_every_command_line_ends_in_a_documented_exit_code(capfd, argv):
    capfd.readouterr()
    with tempfile.TemporaryDirectory() as outdir:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([*argv, "--output-dir", outdir])
        err = capfd.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
        assert not caught, (argv, [str(w.message) for w in caught])
        for name in os.listdir(outdir):
            bad = _non_finite(os.path.join(outdir, name))
            assert not any(math.isnan(x) for x in bad), (argv, name)
            assert code != 0 or not bad, (argv, name)

"""String/JSON profile specifications and the registry of named builders."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisurf.profilespec import (
    ProfileSpec,
    ProfileSpecError,
    parse_profile,
    profile_from_string,
    registry_kinds,
)
from heisurf.strips import CallableProfile, PwlProfile


# ---------------------------------------------------------------------------
# parsing the string form


def test_registry_lists_every_documented_kind():
    assert set(registry_kinds()) == {
        "constant", "linear", "broken-plane-alpha", "arctan",
        "triangle-bump", "samples",
    }


def test_parse_defaults_and_positional_arguments():
    spec = parse_profile("constant")
    assert spec.kind == "constant" and spec.parameters == {"value": 0.0}
    spec = parse_profile(" Linear( 2 , -1 ) ")
    assert spec.parameters == {"slope": 2.0, "intercept": -1.0}
    spec = parse_profile("triangle-bump(3)")
    assert spec.parameters == {"height": 3.0, "halfwidth": 1.0}


def test_id_alias_expands_to_the_identity_line():
    spec = parse_profile("id")
    assert spec.kind == "linear"
    assert spec.parameters == {"slope": 1.0, "intercept": 0.0}
    profile = spec.build()
    assert float(profile(3.5)) == 3.5
    with pytest.raises(ProfileSpecError, match="takes no arguments"):
        parse_profile("id(2)")


def test_samples_string_pairs_up_knots():
    spec = parse_profile("samples(0,1, 2,0, 3,-1)")
    assert spec.parameters["points"] == ((0.0, 1.0), (2.0, 0.0), (3.0, -1.0))
    profile = spec.build()
    assert float(profile(1.0)) == 0.5
    assert float(profile(-5.0)) == 1.0 and float(profile(9.0)) == -1.0


def test_parse_rejects_malformed_specs():
    for bad in ("", "3x", "linear(", "linear(1,2,3)", "linear(one)",
                "samples(1)", "samples(1,2,3)", "nope(1)"):
        with pytest.raises(ProfileSpecError):
            parse_profile(bad)


def test_samples_rejects_nonincreasing_or_nonfinite_abscissae():
    with pytest.raises(ProfileSpecError, match="strictly increasing"):
        parse_profile("samples(0,1, 0,2)")
    with pytest.raises(ProfileSpecError, match="finite"):
        parse_profile("samples(0,inf)")


def test_samples_rejects_a_piece_whose_slope_overflows():
    # 4 / 1e-310 overflows; 4 / 1e-300 and the reversed gaps do not
    for bad in ("samples(0,0,1e-310,4)", "samples(0,0,1e-310,-4,1,0)",
                "samples(-1e308,-1e308,1e308,1e308)"):
        with pytest.raises(ProfileSpecError, match="slope .* not finite"):
            parse_profile(bad)
    for good in ("samples(0,0,1e-300,4)", "samples(-1e308,0,1e308,1)"):
        assert len(parse_profile(good).parameters["points"]) == 2


# ---------------------------------------------------------------------------
# building profiles


def test_broken_plane_alpha_matches_the_fan_profile():
    profile = profile_from_string("broken-plane-alpha(1)")
    assert isinstance(profile, PwlProfile)
    assert float(profile(-0.5)) == 1.0 and float(profile(0.5)) == -1.0
    assert float(profile(0.0)) == 0.0
    assert float(profile(-9.0)) == 1.0 and float(profile(9.0)) == -1.0
    flat = profile_from_string("broken-plane-alpha(0)")
    assert float(flat(1.0)) == 0.0
    with pytest.raises(ProfileSpecError, match="nonnegative"):
        profile_from_string("broken-plane-alpha(-1)")


def test_arctan_profile_carries_exact_derivative_and_tails():
    profile = profile_from_string("arctan(-1)")
    assert isinstance(profile, CallableProfile)
    assert float(profile(1.0)) == pytest.approx(-math.pi / 4.0)
    assert profile.derivative(0.0) == pytest.approx(-1.0)
    assert profile(-1e12) == pytest.approx(math.pi / 2.0)
    assert profile(1e12) == pytest.approx(-math.pi / 2.0)
    assert profile.slope_bounds() == (-1.0, 0.0)
    assert profile_from_string("arctan(0)")(3.0) == 0.0


def test_triangle_bump_needs_positive_halfwidth():
    with pytest.raises(ProfileSpecError, match="positive halfwidth"):
        profile_from_string("triangle-bump(1,0)")


def test_spec_rejects_unknown_kind_and_parameters():
    with pytest.raises(ProfileSpecError, match="unknown profile kind"):
        ProfileSpec(kind="cubic")
    with pytest.raises(ProfileSpecError, match="does not take"):
        ProfileSpec(kind="constant", parameters={"slope": 1.0})
    with pytest.raises(ProfileSpecError, match="must be a number"):
        ProfileSpec(kind="constant", parameters={"value": "x"})
    with pytest.raises(ProfileSpecError, match="window"):
        ProfileSpec(kind="constant", window=(1.0, 1.0))


@pytest.mark.parametrize("text", ["arctan(nan)", "linear(1,inf)",
                                  "broken-plane-alpha(-inf)"])
def test_spec_rejects_non_finite_parameters(text):
    with pytest.raises(ProfileSpecError, match="must be finite"):
        parse_profile(text)


# ---------------------------------------------------------------------------
# round trips


CASES = (
    "constant(2.5)",
    "linear(-0.75,0.25)",
    "broken-plane-alpha(0.5)",
    "arctan(2)",
    "triangle-bump(1,1)",
    "samples(-1,0,0,1,1,0)",
)


@pytest.mark.parametrize("text", CASES)
def test_spec_string_round_trip(text):
    spec = parse_profile(text)
    again = parse_profile(spec.spec_string())
    assert again == spec
    w = np.linspace(-3.0, 3.0, 31)
    np.testing.assert_allclose(spec.build()(w), again.build()(w), rtol=0.0)


@pytest.mark.parametrize("text", CASES)
def test_json_round_trip(text):
    # the JSON form an artifact records holds the constructor's arguments
    spec = parse_profile(text)
    data = spec.to_json()
    assert set(data) == {"name", "kind", "parameters", "window"}
    again = ProfileSpec(**data)
    assert again == spec


def test_json_form_carries_tail_slopes_the_string_form_refuses():
    spec = ProfileSpec(kind="samples", parameters={
        "points": [(0.0, 0.0), (1.0, 1.0)], "slope_right": 2.0})
    profile = spec.build()
    assert float(profile(3.0)) == 5.0
    with pytest.raises(ProfileSpecError, match="JSON form"):
        spec.spec_string()
    again = ProfileSpec(**spec.to_json())
    assert again.parameters["slope_right"] == 2.0


@settings(derandomize=True, max_examples=60)
@given(
    kind=st.sampled_from(("constant", "linear", "arctan", "triangle-bump")),
    values=st.lists(
        st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        min_size=0, max_size=2),
)
def test_numeric_specs_round_trip_through_their_canonical_string(kind, values):
    schema_arity = {"constant": 1, "linear": 2, "arctan": 1,
                    "triangle-bump": 2}[kind]
    args = values[:schema_arity]
    if kind == "triangle-bump" and len(args) == 2 and not args[1] > 0.0:
        args[1] = 1.0 + abs(args[1])
    text = f"{kind}({','.join(repr(a) for a in args)})" if args else kind
    spec = parse_profile(text)
    again = parse_profile(spec.spec_string())
    assert again == spec
    assert again.spec_string() == spec.spec_string()

"""Named profile constructors and their serializable specifications.

A ProfileSpec pins a profile down as data - a registry kind plus numeric
parameters - so the same profile can be requested from a command-line
string such as ``broken-plane-alpha(1)`` and recorded in JSON whose fields
are the `ProfileSpec` constructor's own, so every artifact records exactly
which profile produced it.

Registry kinds:

``constant(value)``
    The constant profile.
``linear(slope, intercept)``
    An affine profile; ``id`` is shorthand for ``linear(1, 0)``.
``broken-plane-alpha(u)``
    The graph profile of the broken plane with opening ``u`` along the
    line x = 1: value ``u`` left of ``-u/2``, slope -2 across the middle,
    value ``-u`` right of ``u/2``.
``arctan(scale)``
    ``scale * arctan(z)`` with exact derivative, slope range, direction
    and tail limits.
``triangle-bump(height, halfwidth)``
    The tent of the given height supported on ``[-halfwidth, halfwidth]``.
``samples(w1, v1, w2, v2, ...)``
    Piecewise-linear interpolation through the listed knots; abscissae
    must be strictly increasing and each piece's slope finite (a knot gap
    so small that the slope overflows is refused).  The JSON form also
    carries optional ``slope_left`` / ``slope_right`` tail slopes.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from .strips import ArctanProfile, Profile, PwlProfile

__all__ = [
    "ProfileSpecError",
    "ProfileSpec",
    "parse_profile",
    "profile_from_string",
    "registry_kinds",
]


class ProfileSpecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# builders; each kind's defaults are declared once, in `_KINDS`


def _build_constant(value: float) -> Profile:
    return PwlProfile.constant(value)


def _build_linear(slope: float, intercept: float) -> Profile:
    return PwlProfile.line(slope, intercept)


def _build_broken_plane_alpha(u: float) -> Profile:
    if u < 0.0:
        raise ProfileSpecError("broken-plane-alpha needs a nonnegative opening")
    if u == 0.0:
        return PwlProfile.constant(0.0)
    return PwlProfile.from_knots([(-0.5 * u, u), (0.5 * u, -u)])


def _build_arctan(scale: float) -> Profile:
    s = float(scale)
    if s == 0.0:
        return PwlProfile.constant(0.0)
    return ArctanProfile(s)


def _build_triangle_bump(height: float, halfwidth: float) -> Profile:
    if not halfwidth > 0.0:
        raise ProfileSpecError("triangle-bump needs a positive halfwidth")
    return PwlProfile.from_knots([(-halfwidth, 0.0), (0.0, height),
                                  (halfwidth, 0.0)])


def _build_samples(points, slope_left: float, slope_right: float) -> Profile:
    pts = [(float(w), float(v)) for w, v in points]
    return PwlProfile.from_knots(pts, slope_left, slope_right)


@dataclass(frozen=True)
class _Kind:
    params: tuple[str, ...]
    defaults: Mapping[str, float]
    builder: Callable[..., Profile]


_KINDS: dict[str, _Kind] = {
    "constant": _Kind(("value",), {"value": 0.0}, _build_constant),
    "linear": _Kind(("slope", "intercept"), {"slope": 1.0, "intercept": 0.0},
                    _build_linear),
    "broken-plane-alpha": _Kind(("u",), {"u": 1.0}, _build_broken_plane_alpha),
    "arctan": _Kind(("scale",), {"scale": 1.0}, _build_arctan),
    "triangle-bump": _Kind(("height", "halfwidth"),
                           {"height": 1.0, "halfwidth": 1.0},
                           _build_triangle_bump),
    "samples": _Kind(("points", "slope_left", "slope_right"),
                     {"slope_left": 0.0, "slope_right": 0.0}, _build_samples),
}

_ALIASES: dict[str, tuple[str, dict[str, float]]] = {
    "id": ("linear", {"slope": 1.0, "intercept": 0.0}),
}


def registry_kinds() -> tuple[str, ...]:
    return tuple(_KINDS)


def _check_points(points: Any) -> tuple[tuple[float, float], ...]:
    try:
        pts = tuple((float(w), float(v)) for w, v in points)
    except (TypeError, ValueError) as exc:
        raise ProfileSpecError(f"samples points must be (w, v) pairs: {exc}")
    if not pts:
        raise ProfileSpecError("samples needs at least one knot")
    ws = [w for w, _ in pts]
    if any(not math.isfinite(w) or not math.isfinite(v) for w, v in pts):
        raise ProfileSpecError("samples knots must be finite")
    if any(b <= a for a, b in zip(ws, ws[1:])):
        raise ProfileSpecError(
            "samples abscissae must be strictly increasing")
    for (w0, v0), (w1, v1) in zip(pts, pts[1:]):
        if not math.isfinite((v1 - v0) / (w1 - w0)):
            raise ProfileSpecError(
                f"samples slope between w={w0!r} and w={w1!r} is not finite")
    return pts


@dataclass(frozen=True)
class ProfileSpec:
    """A registry kind plus parameters, with JSON and string forms."""

    kind: str
    parameters: Mapping[str, Any] = field(default_factory=dict)
    name: str = ""
    window: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            known = ", ".join(sorted(_KINDS))
            raise ProfileSpecError(
                f"unknown profile kind {self.kind!r} (known: {known})")
        schema = _KINDS[self.kind]
        params: dict[str, Any] = dict(schema.defaults)
        for key, value in dict(self.parameters).items():
            if key not in schema.params:
                raise ProfileSpecError(
                    f"{self.kind} does not take a parameter {key!r}")
            if key == "points":
                params[key] = _check_points(value)
            else:
                try:
                    params[key] = float(value)
                except (TypeError, ValueError):
                    raise ProfileSpecError(
                        f"parameter {key!r} of {self.kind} must be a number, "
                        f"got {value!r}")
                if not math.isfinite(params[key]):
                    raise ProfileSpecError(
                        f"parameter {key!r} of {self.kind} must be finite, "
                        f"got {value!r}")
        missing = [p for p in schema.params if p not in params]
        if missing:
            raise ProfileSpecError(
                f"{self.kind} is missing parameter {missing[0]!r}")
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "name", str(self.name))
        if self.window is not None:
            lo, hi = (float(self.window[0]), float(self.window[1]))
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ProfileSpecError("window must be a finite pair lo < hi")
            object.__setattr__(self, "window", (lo, hi))

    # -- realization --------------------------------------------------------

    def build(self) -> Profile:
        return _KINDS[self.kind].builder(**self.parameters)

    # -- canonical text forms -----------------------------------------------

    def spec_string(self) -> str:
        """Canonical ``kind(args)`` string that parses back to this spec."""
        schema = _KINDS[self.kind]
        if self.kind == "samples":
            if self.parameters["slope_left"] or self.parameters["slope_right"]:
                raise ProfileSpecError(
                    "the string form of samples cannot carry tail slopes; "
                    "use the JSON form")
            args = [c for pair in self.parameters["points"] for c in pair]
        else:
            args = [self.parameters[p] for p in schema.params]
        return f"{self.kind}({','.join(repr(a) for a in args)})"

    def to_json(self) -> dict:
        params: dict[str, Any] = {}
        for key, value in self.parameters.items():
            if key == "points":
                params[key] = [[w, v] for w, v in value]
            else:
                params[key] = value
        return {
            "name": self.name,
            "kind": self.kind,
            "parameters": params,
            "window": None if self.window is None else list(self.window),
        }


# ---------------------------------------------------------------------------
# the string form


_SPEC_RE = re.compile(r"^\s*([A-Za-z][A-Za-z0-9_-]*)\s*(?:\((.*)\))?\s*$")


def _parse_args(text: str) -> list[float]:
    body = text.strip()
    if not body:
        return []
    out = []
    for token in body.split(","):
        token = token.strip()
        try:
            out.append(float(token))
        except ValueError:
            raise ProfileSpecError(
                f"cannot parse numeric argument {token!r}")
    return out


def parse_profile(text: str) -> ProfileSpec:
    """Parse ``kind`` or ``kind(arg, ...)`` into a ProfileSpec."""
    match = _SPEC_RE.match(text or "")
    if not match:
        raise ProfileSpecError(f"cannot parse profile spec {text!r}")
    kind = match.group(1).lower()
    raw = match.group(2)
    args = _parse_args(raw) if raw is not None else []
    if kind in _ALIASES:
        if args:
            raise ProfileSpecError(f"{kind!r} takes no arguments")
        base, params = _ALIASES[kind]
        return ProfileSpec(kind=base, parameters=dict(params))
    if kind not in _KINDS:
        known = ", ".join(sorted(_KINDS) + sorted(_ALIASES))
        raise ProfileSpecError(
            f"unknown profile kind {kind!r} (known: {known})")
    schema = _KINDS[kind]
    if kind == "samples":
        if len(args) < 2 or len(args) % 2:
            raise ProfileSpecError(
                "samples needs an even number of arguments: w1,v1,w2,v2,...")
        points = [(args[i], args[i + 1]) for i in range(0, len(args), 2)]
        return ProfileSpec(kind=kind, parameters={"points": points})
    positional = [p for p in schema.params]
    if len(args) > len(positional):
        raise ProfileSpecError(
            f"{kind} takes at most {len(positional)} arguments, "
            f"got {len(args)}")
    params = {name: value for name, value in zip(positional, args)}
    return ProfileSpec(kind=kind, parameters=params)


def profile_from_string(text: str) -> Profile:
    return parse_profile(text).build()

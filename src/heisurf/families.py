"""Surface families built from horizontal rulings.

Three constructions share this module:

* **Entire ruled graphs** (`RuledEntireGraph`): intrinsic graphs over the
  whole vertical plane whose rulings are horizontal lines through the y
  axis.  `scaling_limit` classifies the blow-down of such a graph as a
  rotated broken plane with opening parameter ``u`` and rotation ``theta``,
  whose graph function is `strips.broken_plane_graph_value`.

* **Equal-area spanning family** (`sigma_rho_surface`): ruled surfaces
  joining two fixed boundary lines by horizontal chords, parametrized by an
  increasing reparametrization ``rho``.  Every member spans the same
  boundary pair and `sigma_rho_area` shows the area depends only on the
  endpoint data, which is what makes the minimizing filling non-unique.
  `sigma_rho_membership` extends a member to the slab |x| <= 1 with a
  closed-form membership offset, read off the horizontal chord through
  each point, and, for every increasing ``rho``, the line cuts the exact
  crossing census in `lines` reads.

* **Competitor surfaces** (`build_competitor`): two spanning surfaces for
  the truncated broken-plane boundary from one sweep: horizontal segments
  from the focus corners (-1, +-u) through the horizontal lift of a guide
  curve, the straight nexus (kind ``"harmonic"``) or a hyperbola arc
  (kind ``"minimal"``).
  `competitor_compare` doubles the half-surfaces by the flip
  (x, y, z) -> (-x, y, -z) and reports their area/energy against the
  broken-plane patch over the same vertical window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import chord_offset_arr
from .quadrature import QuadConfig, VRegion, integrate_1d, integrate_region
from .strips import (Profile, ProfileError, SolverError,
                     broken_plane_graph_value, constant_poly)
from .surfaces import IDENTITY, RuledSurface
from .variation import g_primitive

__all__ = [
    "RuledEntireGraph",
    "ScalingLimitReport",
    "broken_plane_graph_value",
    "scaling_limit",
    "sigma_rho_surface",
    "sigma_rho_membership",
    "MembershipSlab",
    "sigma_rho_area",
    "sigma_rho_area_quadrature",
    "ChordObstructionReport",
    "chord_obstruction_check",
    "CompetitorSurface",
    "build_competitor",
    "hyperbola_constants",
    "hyperbola_y",
    "hyperbola_slope",
    "hyperbola_intercept",
    "hyperbola_lift_z",
    "tangent_bisection_residual",
    "patch_area",
    "patch_energy",
    "wedge_area",
    "broken_plane_area",
    "broken_plane_energy",
    "CompareReport",
    "competitor_z_cap",
    "competitor_compare",
]


# ---------------------------------------------------------------------------
# entire ruled graphs and their blow-down


@dataclass(frozen=True)
class RuledEntireGraph:
    """Entire intrinsic graph ruled by horizontal lines through the y axis.

    The ruling at height ``z`` is ``t -> (t, t*s, z)`` with slope
    ``s = sigma_plus(z)``.  The profile must be non-increasing so that
    distinct rulings never cross; at a jump of the profile the rulings
    take every slope between its two sides, and the graph is the closure
    of the rulings' union.  The profile answers whether it ever rises
    (`Profile.direction` over the whole line).
    """

    sigma_plus: Profile

    def __post_init__(self):
        if self.sigma_plus.direction(-math.inf, math.inf) != -1:
            raise ProfileError("sigma_plus must be non-increasing")

    def graph_value(self, x, zprime):
        """Graph function y = f(x, z') over the vertical plane.

        The ruling height z* solves z - sigma_plus(z) x^2 / 2 = z'; the
        realized slope is recovered as 2 (z* - z') / x^2, which stays
        correct across jumps of the profile (there the solver lands on the
        jump height and the ratio interpolates through the slope band).
        """
        x = np.asarray(x, dtype=float)
        zp = np.asarray(zprime, dtype=float)
        z_star = self.sigma_plus.solve(-0.5 * x * x, zp)
        x2 = x * x
        safe = np.where(x2 > 0.0, x2, 1.0)
        slope = np.where(x2 > 0.0, 2.0 * (z_star - zp) / safe,
                         np.asarray(self.sigma_plus(z_star), dtype=float))
        out = x * slope
        return out if out.ndim else float(out)

    def dilated_value(self, t, x, zprime):
        """Graph function of the rescaled graph: f_t(x, z') = f(tx, t^2 z')/t.

        ``t`` broadcasts against ``x`` and ``zprime``: a column of t with a
        row of points evaluates every dilation in one `graph_value` call,
        one profile `solve`, with one row of results per t.
        """
        t = np.asarray(t, dtype=float)
        if not np.all(t > 0):
            raise ValueError("dilation parameter must be positive")
        x = np.asarray(x, dtype=float)
        zp = np.asarray(zprime, dtype=float)
        return self.graph_value(t * x, t * t * zp) / t


@dataclass(frozen=True)
class ScalingLimitReport:
    """Classification of the blow-down of an entire ruled graph.

    ``slope_neg_limit`` / ``slope_pos_limit`` are the profile's limits at
    -inf / +inf (`Profile.tail_limits`).  The limit surface is the broken
    plane with opening ``u`` rotated by ``theta`` about the z axis;
    ``errors`` are the max probe-point deviations of the rescaled graph
    from the limit graph, one entry per element of ``t_grid``.
    """

    slope_neg_limit: float
    slope_pos_limit: float
    theta: float
    u: float
    t_grid: tuple[float, ...]
    errors: tuple[float, ...]

    @property
    def kind(self) -> str:
        if not math.isfinite(self.u):
            return "vertical-plane-limit"
        return "plane" if self.u == 0.0 else "broken-plane"

    def converged(self) -> bool:
        """Errors decrease along the t grid at least geometrically: each is
        at most 0.75 of the one before, plus 1e-9.  A single error must be
        below 1e-9."""
        errs = self.errors
        if len(errs) < 2:
            return bool(errs) and errs[-1] < 1e-9
        return all(b <= 0.75 * a + 1e-9 for a, b in zip(errs, errs[1:]))


def _opening(a: float, b: float) -> float:
    """tan((atan a - atan b) / 2) for tail slopes a, b, not both infinite.

    The algebraic half-angle form: with p = 1 + ab and
    S = sqrt((1 + a^2)(1 + b^2)) = hypot(p, a - b), it is (a - b)/(p + S),
    or (S - p)/(a - b) where p < 0 would cancel in p + S.  Exact slopes
    give an exact opening: a = -b = 1 gives 1, and a = b gives 0.  An
    infinite slope takes the limit of the form that does not cancel.
    """
    if math.isinf(b):
        return -_opening(b, a)
    if math.isinf(a):
        h = math.copysign(math.hypot(1.0, b), a)
        return 1.0 / (b + h) if b * h >= 0.0 else h - b
    p = 1.0 + a * b
    if abs(p) > 2.0 ** 1000:
        # p + S or S - p could overflow; atan m = +-pi/2 - atan(1/m) turns
        # the opening into one of the reciprocal slopes
        x, y = 1.0 / a, 1.0 / b
        return _opening(y, x) if p > 0.0 else 1.0 / _opening(x, y)
    s = math.hypot(p, a - b)
    return (a - b) / (p + s) if p >= 0.0 else (s - p) / (a - b)


#: The (x, z') points where the rescaled graphs meet the limit graph.
_PROBES = np.array([(x, z) for x in (-0.8, -0.45, 0.45, 0.8)
                    for z in (-0.8, -0.35, 0.35, 0.8)])


def scaling_limit(graph: RuledEntireGraph,
                  t_grid: Sequence[float] = (2.0, 4.0, 8.0, 16.0),
                  window: float = 1.0e3) -> ScalingLimitReport:
    """Classify the blow-down of an entire ruled graph.

    The upper profile gives its own tail limits (`Profile.tail_limits`:
    exact for PWL and arctan profiles, extrapolated at the edge of
    ``window`` for a closed-form one).  The rotation/opening pair
    ``(theta, u)`` follows from averaging/differencing the tail angles, and
    equal limits give the plane u = 0.  A limit at +inf above the one at
    -inf (a closed-form profile that rises beyond the heights its
    `Profile.direction` reads) raises `ProfileError`.  When both limits are
    finite the rescaled graphs of the whole t grid are evaluated on the
    probe points in one `RuledEntireGraph.dilated_value` call and compared
    against the limit graph, giving one max-error entry per ``t``.
    """
    ts = tuple(float(t) for t in t_grid)
    if not (ts and ts[0] > 0 and all(b > a for a, b in zip(ts, ts[1:]))):
        raise ValueError("t grid must be positive and strictly increasing")
    reach = 2.0 * max(ts) ** 2 * float(np.max(np.abs(_PROBES[:, 1])))
    if reach > window:
        raise ValueError(
            "window too small for requested t: dilations sample heights up "
            f"to about {reach:.3g} but only |z| <= {window:.3g} is trusted")

    slope_neg, slope_pos = graph.sigma_plus.tail_limits(window)
    if slope_pos > slope_neg:
        raise ProfileError(
            "sigma_plus rises: its limit at +inf exceeds its limit at -inf")
    theta = (0.5 * (math.atan(slope_neg) + math.atan(slope_pos))) % math.pi
    u = (math.inf if math.isinf(slope_neg) and math.isinf(slope_pos)
         else _opening(slope_neg, slope_pos))

    errors: list[float] = []
    if math.isfinite(slope_neg) and math.isfinite(slope_pos):
        ref = broken_plane_graph_value(slope_neg, slope_pos,
                                       _PROBES[:, 0], _PROBES[:, 1])
        ft = graph.dilated_value(np.array(ts)[:, None], _PROBES[:, 0],
                                 _PROBES[:, 1])
        errors = np.max(np.abs(ft - ref), axis=1).tolist()
    return ScalingLimitReport(slope_neg, slope_pos, theta, u, ts,
                              tuple(errors))


# ---------------------------------------------------------------------------
# the equal-area spanning family


def _sweep_window(rho: Profile, a, b) -> tuple[float, float]:
    """The sweep window (a, b) as floats, refused unless a < b and rho
    says it strictly increases there (`Profile.direction`)."""
    a, b = float(a), float(b)
    if not b > a:
        raise ValueError("window must satisfy a < b")
    if rho.direction(a, b) != 1:
        raise ProfileError("rho must be strictly increasing on the window")
    return a, b


def _ruling_points(rho: Profile, z, x) -> np.ndarray:
    """Points of the left-to-right chord at parameter z, abscissa x."""
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    z, x = np.broadcast_arrays(z, x)
    r = np.asarray(rho(z), dtype=float)
    y = 2.0 * z - (x + 1.0) * (z + r)
    height = z + 0.5 * (x + 1.0) * (r - z)
    return np.stack([x, y, height], axis=-1)


def sigma_rho_surface(rho: Profile, window: tuple[float, float]) -> RuledSurface:
    """Ruled surface joining the two fixed boundary lines by straight chords.

    The left boundary line is ``z -> (-1, 2z, z)`` and the right one is
    ``w -> (1, -2w, w)``.  The chord from parameter ``z`` on the left to
    ``rho(z)`` on the right is horizontal for *every* increasing
    reparametrization ``rho``, so all members of the family span the same
    boundary pair.
    """
    a, b = _sweep_window(rho, *window)
    return RuledSurface((-1.0, 2.0, IDENTITY, IDENTITY), (1.0, -2.0, rho, rho),
                        (a, b))


@dataclass(frozen=True)
class MembershipSlab:
    """Adapter exposing a membership offset over the slab |x| <= x_max.

    Suitable for the line-crossing census: the offset is zero on the
    surface and its sign says on which side of the sheet a point lies, and
    ``line_cuts`` hands the census cuts of the offset along lines, as
    `strips.GraphicalStrip.line_cuts` does.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    line_cuts: Callable
    x_max: float = 1.0

    def membership_offset(self, points: np.ndarray) -> np.ndarray:
        return self.fn(points)


def sigma_rho_membership(rho: Profile, window: tuple[float, float]) -> MembershipSlab:
    """Membership offset for the spanning surface, extended monotonically.

    The horizontal chords through a point (x, y, z) meet the left boundary
    line at height M = P/Q and the right one at height R = U/V, with
    P = y + 2z, Q = 2 (1 - x), U = 2z - y and V = 2 (1 + x).  The offset is
    y - y_surf(w), with y_surf(w) = 2w - (x + 1)(w + rho(w)) the y of the
    member's chord from w = clip(M, a, b) at abscissa x; no root is solved.
    It is zero exactly on the sheet, which beyond the window goes on by
    vertical translates of the first/last chord, and its sign says on
    which side of the sheet a point lies.  Q is formed from min(x, 1), so
    a reading one rounding step past x = 1 keeps the sign of M.  On the
    right boundary line (x = 1, y = -2z) M is 0/0, and the offset is
    y + 2 clip(z, rho(a), rho(b)).

    The slab has line cuts.  Along a line P, Q, U and V are affine in t,
    so M and R are Moebius with their poles at the slab's edges, and
    M' = -D/Q^2 and R' = D/V^2 share the constant D.  Where a <= M <= b
    the offset is (x + 1)(rho(M) - R), of the sign of rho(M) - R, which is
    monotone along the line for every increasing rho; where M < a (M > b)
    it is the chord offset clamped at a (b), which is affine in t.  So
    between the roots of the cuts P - a Q and P - b Q the offset changes
    sign at most once.
    """
    a, b = _sweep_window(rho, *window)
    rho_a, rho_b = float(rho(a)), float(rho(b))

    def offset(points):
        pts = np.asarray(points, dtype=float)
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            m = (y + 2.0 * z) / (2.0 * (1.0 - np.minimum(x, 1.0)))
        w = np.clip(m, a, b)
        r = np.asarray(rho(w), dtype=float)
        return np.where(np.isnan(m), y + 2.0 * np.clip(z, rho_a, rho_b),
                        y - 2.0 * w + (x + 1.0) * (w + r))

    def cuts(x, y, z):
        p, q = y + 2.0 * z, 2.0 * (constant_poly(1.0) - x)
        return np.stack([p - a * q, p - b * q], axis=1)

    return MembershipSlab(offset, cuts)


def sigma_rho_area(rho: Profile, a: float, b: float) -> float:
    """Closed-form spanning area over sweep window [a, b].

    The ruled-area element integrates in the combined endpoint coordinate
    m = z + rho(z), so the area is (4/3) [G(b + rho(b)) - G(a + rho(a))]
    with G the antiderivative of sqrt(1 + m^2).  It depends only on the
    endpoint data — every reparametrization with the same endpoints has the
    same area.
    """
    if float(a) == float(b):
        return 0.0
    a, b = _sweep_window(rho, a, b)
    m0 = a + float(rho(a))
    m1 = b + float(rho(b))
    return (4.0 / 3.0) * (g_primitive(m1) - g_primitive(m0))


def sigma_rho_area_quadrature(rho: Profile, a: float, b: float) -> float:
    """Same spanning area by direct quadrature of the ruled area element."""
    if float(a) == float(b):
        return 0.0
    a, b = _sweep_window(rho, a, b)

    def integrand(z):
        r = np.asarray(rho(z), dtype=float)
        dr = np.asarray(rho.derivative(z), dtype=float)
        return (4.0 / 3.0) * (1.0 + dr) * np.sqrt(1.0 + (z + r) ** 2)

    knots = tuple(float(k) for k in rho.knots if a < k < b)
    return integrate_1d(integrand, a, b, knots=knots)


@dataclass(frozen=True)
class ChordObstructionReport:
    """Result of the no-interior-horizontal-chord check between two rulings."""

    ok: bool
    min_abs_offset: float
    corner_offset: float
    n_pairs: int


def chord_obstruction_check(rho: Profile, z_left: float, z_right: float,
                            n: int = 10_000, seed: int = 0
                            ) -> ChordObstructionReport:
    """Check that no chord between interior points of two rulings is horizontal.

    Chords between two distinct rulings of the spanning surface are
    horizontal only at the two corner pairs (x, x') = (-1, 1) and (1, -1);
    a horizontal chord between interior points would let a sweep jump
    between rulings.  The check samples abscissa pairs in [-1 + 1e-3,
    1 - 1e-3] and records the smallest |offset|, plus the corner offsets
    which must vanish.
    """
    z1, z2 = float(z_left), float(z_right)
    if z1 == z2:
        raise ValueError("need two distinct ruling parameters")
    if n < 1:
        raise ValueError("need at least one sample pair")
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-1.0 + 1e-3, 1.0 - 1e-3, size=n)
    x2 = rng.uniform(-1.0 + 1e-3, 1.0 - 1e-3, size=n)
    p = _ruling_points(rho, np.full(n, z1), x1)
    q = _ruling_points(rho, np.full(n, z2), x2)
    off = np.abs(chord_offset_arr(p, q))
    corner = max(
        abs(float(chord_offset_arr(_ruling_points(rho, z1, -1.0),
                                   _ruling_points(rho, z2, 1.0)))),
        abs(float(chord_offset_arr(_ruling_points(rho, z1, 1.0),
                                   _ruling_points(rho, z2, -1.0)))),
    )
    return ChordObstructionReport(ok=bool(off.min() > 0.0),
                                  min_abs_offset=float(off.min()),
                                  corner_offset=corner, n_pairs=int(n))


# ---------------------------------------------------------------------------
# competitor surfaces over the truncated broken plane


def hyperbola_constants(u: float) -> tuple[float, float]:
    """Semi-axis data (A, B^2) of the guide hyperbola with foci (-1, +-u).

    The lower branch of y^2/A^2 - (x+1)^2/B^2 = 1 with A = sqrt(u^2+1) - 1
    and B^2 = u^2 - A^2 = 2A passes through (1, -u) and has its foci at
    (-1, +-u).
    """
    if not u > 0:
        raise ValueError("u must be positive")
    a_axis = math.hypot(u, 1.0) - 1.0
    return a_axis, u * u - a_axis * a_axis


def hyperbola_y(u: float, x) -> np.ndarray:
    """Lower-branch height of the guide hyperbola at abscissa x."""
    a_axis, b2 = hyperbola_constants(u)
    x = np.asarray(x, dtype=float)
    out = -a_axis * np.sqrt(1.0 + (x + 1.0) ** 2 / b2)
    return out if out.ndim else float(out)


def hyperbola_slope(u: float, x) -> np.ndarray:
    """dy/dx of the lower branch of the guide hyperbola."""
    a_axis, b2 = hyperbola_constants(u)
    x = np.asarray(x, dtype=float)
    out = -a_axis * (x + 1.0) / (b2 * np.sqrt(1.0 + (x + 1.0) ** 2 / b2))
    return out if out.ndim else float(out)


def hyperbola_intercept(u: float) -> float:
    """y-intercept a < -u/2 of the guide hyperbola on the x = 0 line."""
    a_axis, b2 = hyperbola_constants(u)
    return -a_axis * math.sqrt(1.0 / b2 + 1.0)


def hyperbola_lift_z(u: float, x) -> np.ndarray:
    """Height of the horizontal lift of the guide arc at abscissa x.

    The lift starts at height -a/2 over the y-intercept (0, a) and follows
    dz = (x dy - y dx)/2 along the arc; with w = x + 1 the integrand is
    (A/B)(B^2 + w)/(2 sqrt(B^2 + w^2)), whose antiderivative is
    (A/2)(B asinh(w/B) + sqrt(B^2 + w^2)/B).
    """
    a_axis, b2 = hyperbola_constants(u)
    b_axis = math.sqrt(b2)
    x = np.asarray(x, dtype=float)
    w = x + 1.0

    def anti(w):
        return 0.5 * a_axis * (b_axis * np.arcsinh(w / b_axis)
                               + np.sqrt(b2 + w * w) / b_axis)

    out = -0.5 * hyperbola_intercept(u) + anti(w) - anti(1.0)
    return out if out.ndim else float(out)


def tangent_bisection_residual(u: float, n: int = 100) -> float:
    """Max deviation from the focal-chord bisection property of the tangent.

    At each sampled arc point the unit tangent makes equal angles with the
    unit chords toward the two foci; the residual is the max difference of
    the two direction cosines.
    """
    x = np.linspace(0.02, 0.98, n)
    y = hyperbola_y(u, x)
    ty = hyperbola_slope(u, x)
    norm_t = np.hypot(1.0, ty)
    tx_u, ty_u = 1.0 / norm_t, ty / norm_t
    cu_x, cu_y = -1.0 - x, u - y
    cl_x, cl_y = -1.0 - x, -u - y
    cu_n = np.hypot(cu_x, cu_y)
    cl_n = np.hypot(cl_x, cl_y)
    dot_u = (tx_u * cu_x + ty_u * cu_y) / cu_n
    dot_l = (tx_u * cl_x + ty_u * cl_y) / cl_n
    return float(np.max(np.abs(dot_u - dot_l)))


def _nexus_y(u: float, t):
    """Footprint of the straight guide, the nexus y = -u(1+t)/2."""
    return -0.5 * u * (1.0 + t)


def _nexus_slope(u: float, t):
    return np.full(np.shape(t), -0.5 * u)


def _nexus_lift_z(u: float, t):
    """Height u(1+t)/4 of the horizontal lift of the nexus."""
    return 0.25 * u * (1.0 + t)


def _nexus_param(u: float, x, y, corner_y):
    """Nexus abscissa whose chord through (-1, corner_y) passes (x, y).

    The chord (-1, c) + l (x + 1, y - c) meets y = -u(1+x)/2 at
    l = -c / (y - c + u (x+1)/2), so the abscissa is
    l (x + 1) - 1 = -c / ((y - c)/(x + 1) + u/2) - 1.  Points
    whose chord meets the nexus outside 0 <= t <= 1, or not ahead of the
    corner, get the nearer end.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -corner_y / ((y - corner_y) / (x + 1.0) + 0.5 * u) - 1.0
    return np.clip(np.where(np.isnan(t), 0.0, t), 0.0, 1.0)


def _arc_param(u: float, x, y, corner_y):
    """Arc abscissa whose chord through (-1, corner_y) passes (x, y).

    The corners (-1, +-u) are the foci of the guide hyperbola, so with
    X = x' + 1 the chord (X, Y) = (0, c) + l (x + 1, y - c) meets
    Y^2/A^2 - X^2/B^2 = 1 where l solves the quadratic
    (dy^2 - A dx^2/2) l^2 + 2 c dy l + B^2 = 0 (B^2 = 2A).  The wanted
    root is the one ahead of the focus (l > 0) on the lower branch
    (Y < 0); there is at most one.  Points with no such root (off the
    swept pieces) get the arc end x' = 0.
    """
    a_axis, b2 = hyperbola_constants(u)
    dx1 = x + 1.0
    dy = y - corner_y
    quad = dy * dy - 0.5 * a_axis * dx1 * dx1
    half = corner_y * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.maximum(half * half - quad * b2, 0.0))
        big = -(half + np.where(half < 0.0, -root, root))
        lam = np.nan
        for cand in (b2 / big, big / quad):
            ahead = (cand > 0.0) & (corner_y + cand * dy < 0.0)
            lam = np.where(ahead, cand, lam)
        t = lam * dx1 - 1.0
    return np.clip(np.where(np.isnan(t), 0.0, t), 0.0, 1.0)


#: The sweep guide of each competitor kind over 0 <= t <= 1, as functions
#: of (u, ...): footprint y(t), its slope y'(t), the height z(t) of its
#: horizontal lift, and the chord root t(x, y, c) where the chord from the
#: corner (-1, c) through (x, y) meets the guide.
_GUIDES = {
    "harmonic": (_nexus_y, _nexus_slope, _nexus_lift_z, _nexus_param),
    "minimal": (hyperbola_y, hyperbola_slope, hyperbola_lift_z, _arc_param),
}


@dataclass(frozen=True, eq=False)
class CompetitorSurface:
    """Half of a spanning surface for the truncated broken-plane boundary.

    The half-surface decomposes into a z-graph patch over the wedge
    triangle Omega = {|x| <= 1, -u <= y <= -u x} plus vertical ruled
    pieces; the full spanning surface is this half united with its image
    under (x, y, z) -> (-x, y, -z).

    ``apex_y`` is the y coordinate of the sweep apex (0, apex_y, -apex_y/2)
    on the x = 0 line; ``exit_height`` is the z value at which the sweep
    reaches the far corner (1, -u).  For the harmonic kind these are -u/2
    and u/2; for the minimal kind they are the hyperbola intercept ``a``
    and the lift endpoint height ``b``.  ``regions`` splits Omega along the
    sweep seams into the pieces on which the graph is analytic.  The patch
    is held only in closed form: its height ``phi``, the slope ``slope``
    of the segment through a point, and the y-partial ``phi_y``.
    """

    kind: str
    u: float
    apex_y: float
    exit_height: float
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    slope: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    phi_y: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    regions: Mapping[str, VRegion] = field(repr=False)

    def nexus_slope_residual(self) -> float:
        """Max deviation of the mean slope of the segments from a nexus
        point to the corners (-1, +-u) from the nexus slope -u/2, at 257
        sweep abscissae; the balance condition of the harmonic sweep."""
        if self.kind != "harmonic":
            raise ValueError("slope balance is a property of the harmonic "
                             "sweep; the minimal sweep satisfies an angle "
                             "bisection instead")
        t = np.linspace(0.0, 1.0, 257)
        y = _nexus_y(self.u, t)
        s_up = (self.u - y) / (-1.0 - t)
        s_lo = (-self.u - y) / (-1.0 - t)
        return float(np.max(np.abs(0.5 * (s_up + s_lo) + 0.5 * self.u)))


def _seam_y(x: np.ndarray, chord_y: np.ndarray,
            guide_y: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """A sweep seam at x: the fan chord's values ``chord_y`` for x <= 0,
    the guide footprint beyond."""
    return np.where(x <= 0.0, chord_y, guide_y(np.clip(x, 0.0, 1.0)))


def _wedge_subregions(apex_y: float, u: float,
                      guide_y: Callable[[np.ndarray], np.ndarray]
                      ) -> dict[str, VRegion]:
    """Split the wedge triangle along the sweep seams into smooth pieces.

    The seams are the guide footprint ``guide_y`` for x >= 0 and, for
    x <= 0, the two fan chords from the apex (0, apex_y) to the corners
    (-1, +-u).  The graph function is analytic on each piece, so quadrature
    keeps its full order there.
    """
    def upper_chord(x):
        return apex_y + (apex_y - u) * np.asarray(x, dtype=float)

    def lower_chord(x):
        return apex_y + (apex_y + u) * np.asarray(x, dtype=float)

    def seam(chord):
        def bound(x):
            x = np.asarray(x, dtype=float)
            return _seam_y(x, chord(x), guide_y)
        return bound

    top = lambda x: -u * np.asarray(x, dtype=float)
    bottom = lambda x: np.full(np.shape(x), -float(u))
    return {
        "fan": VRegion(-1.0, 0.0, lower_chord, upper_chord),
        "upper": VRegion(-1.0, 1.0, seam(upper_chord), top),
        "lower": VRegion(-1.0, 1.0, bottom, seam(lower_chord)),
    }


def build_competitor(kind: str, u: float) -> CompetitorSurface:
    """Assemble one of the two spanning half-surfaces.

    Both kinds are one sweep: horizontal segments from the focus corners
    (-1, +-u) to the horizontal lift of a guide curve over 0 <= x <= 1,
    closed by a fan of segments from the guide's start, the apex on the
    x = 0 line, to the edge x = -1.  ``kind`` selects the guide:
    ``"harmonic"`` the straight nexus y = -u(1+x)/2, ``"minimal"`` the
    lower arc of the hyperbola with foci (-1, +-u).

    The graph is evaluated in closed form: the chord from a corner through
    a point meets the nexus at the root of a linear equation and the arc at
    the root of a quadratic, so no iteration is involved.  An opening so
    large that the exit height is not finite raises `SolverError`.
    """
    if kind not in _GUIDES:
        raise ValueError("kind must be 'harmonic' or 'minimal'")
    if not u > 0:
        raise ValueError("u must be positive")
    u = float(u)
    guide_y, guide_slope, guide_z, root = (
        functools.partial(f, u) for f in _GUIDES[kind])
    apex_y = guide_y(0.0)
    exit_height = guide_z(1.0)
    if not math.isfinite(exit_height):
        raise SolverError(f"build_competitor: the {kind} sweep's exit height "
                          f"is not finite at u={u!r}")
    regions = _wedge_subregions(apex_y, u, guide_y)

    def branch(x, y):
        """Broadcast points, their fan mask, and the height c of the focus
        corner (-1, c) their segment runs to (+u on or above the seam)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            x, y = np.broadcast_arrays(x, y)
        # the upper fan chord bounds the fan and starts the upper seam
        upper = regions["fan"].hi(x)
        fan = (x <= 0.0) & (y >= regions["fan"].lo(x)) & (y <= upper)
        corner = np.where(~fan & (y >= _seam_y(x, upper, guide_y)), u, -u)
        return x, y, fan, corner

    def phi(x, y):
        # the height of the horizontal chord from the guide point at t
        x, y, fan, corner = branch(x, y)
        t = root(x, y, corner)
        yt = guide_y(t)
        chord = guide_z(t) + 0.5 * (t * (y - yt) - yt * (x - t))
        out = np.where(fan, -0.5 * apex_y * (1.0 + x), chord)
        return out if out.ndim else float(out)

    def slope(x, y):
        x, y, fan, corner = branch(x, y)
        safe_x = np.where(np.abs(x) > 1e-300, x, 1.0)
        s_fan = np.where(np.abs(x) > 1e-12, (y - apex_y) / safe_x, 0.0)
        dx1 = np.where(x + 1.0 > 1e-300, x + 1.0, 1.0)
        out = np.where(fan, s_fan, (y - corner) / dx1)
        return out if out.ndim else float(out)

    def phi_y(x, y):
        # implicit differentiation through the guide parameter t: with
        # Y the guide footprint, F(x, y, t) the chord height and
        # G = (t+1)(y - c) - (Y - c)(x+1) the collinearity constraint,
        # phi_y = F_y + F_t t_y = t/2 - (t+1) F_t / G_t where
        # F_t = ((t - x) Y' + (y - Y))/2 uses the lift ODE z' = (tY' - Y)/2.
        # On the guide F_t = 0, so phi_y = x/2 there: the lifted guide is a
        # characteristic curve of the graph.  The fan height does not
        # depend on y.
        x, y, fan, corner = branch(x, y)
        t = root(x, y, corner)
        yt = guide_y(t)
        dyt = guide_slope(t)
        f_t = 0.5 * ((t - x) * dyt + (y - yt))
        g_t = (y - corner) - dyt * (x + 1.0)
        g_t = np.where(np.abs(g_t) > 1e-300, g_t, 1.0)
        out = np.where(fan, 0.0, 0.5 * t - (t + 1.0) * f_t / g_t)
        return out if out.ndim else float(out)

    return CompetitorSurface(kind, u, apex_y, exit_height, phi, slope, phi_y,
                             regions)


# ---------------------------------------------------------------------------
# area / energy bookkeeping over a vertical window


def wedge_area(u: float) -> float:
    """Area of the parabolic fan of the broken plane over |x| <= 1."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    return (u * math.sqrt(1.0 + u * u) + math.asinh(u)) / 3.0


def broken_plane_area(u: float, z_cap: float) -> float:
    """Area of the broken plane over |x| <= 1 within the slab |z| <= z_cap.

    The fan sits at spatial height z = 0, the upper half-plane occupies
    0 <= z <= z_cap and the lower one -z_cap <= z <= 0; each half-plane
    contributes a band of constant area element sqrt(1 + u^2) and footprint
    area 2 z_cap.
    """
    if z_cap < 0:
        raise ValueError("z_cap must be nonnegative")
    return wedge_area(u) + 4.0 * z_cap * math.sqrt(1.0 + u * u)


def broken_plane_energy(u: float, z_cap: float) -> float:
    """Dirichlet energy of the broken-plane graph within |z| <= z_cap.

    The fan contributes u^3/9 and each half-plane (constant ruling slope
    -+u) contributes u^2 z_cap / 1 over its band of footprint area 2 z_cap,
    i.e. u^2 z_cap each.
    """
    if z_cap < 0:
        raise ValueError("z_cap must be nonnegative")
    return u ** 3 / 9.0 + 2.0 * u * u * z_cap


_COMP_CFG = QuadConfig(rel_tol=1e-6, max_levels=10, n0=4)


def _patch_integral(comp: CompetitorSurface, weight) -> float:
    """Integral of weight(s) |phi_y - x/2| over the patch footprint, with s
    the segment slope, one smooth piece between the seams at a time."""

    def integrand(x, y):
        return weight(comp.slope(x, y)) * np.abs(comp.phi_y(x, y) - 0.5 * x)

    return float(sum(integrate_region(integrand, reg, _COMP_CFG)
                     for reg in comp.regions.values()))


def patch_area(comp: CompetitorSurface) -> float:
    """Area of the z-graph patch, integrated piecewise between the seams.

    Along each horizontal chord the graph satisfies
    phi_x + s phi_y = (s x - y)/2, so the area vector
    (phi_x + y/2, phi_y - x/2) is orthogonal to the chord direction (1, s)
    and its length is sqrt(1 + s^2) |phi_y - x/2|; only the closed-form
    y-partial is needed.
    """
    return _patch_integral(comp, lambda s: np.sqrt(1.0 + s * s))


def patch_energy(comp: CompetitorSurface) -> float:
    """Dirichlet energy of the z-graph patch, pulled back to its footprint.

    On a surface swept by horizontal segments the intrinsic gradient of the
    graph function equals the segment slope s, and the vertical-plane area
    element pulls back to |phi_y - x/2| dx dy, so the energy is
    (1/2) iint s^2 |phi_y - x/2|.
    """
    return _patch_integral(comp, lambda s: 0.5 * s * s)


@dataclass(frozen=True, eq=False)
class CompareReport:
    """Window-truncated comparison of the spanning surfaces vs the broken plane.

    Areas compare the doubled minimal-kind surface against the broken-plane
    patch; energies compare the doubled harmonic-kind surface against the
    same patch.  All surfaces are truncated to the spatial slab
    |z| <= z_cap (area/energy of the tilted half-planes and wall pieces is
    exact; the compact z-graph patches are integrated numerically).

    Each margin is reference minus competitor, taken from the pieces that
    do not depend on the cap: the cap's bands are the same on both sides
    and cancel exactly, so the margins are the same for every cap.
    """

    u: float
    z_cap: float
    area_competitor: float
    area_reference: float
    area_margin: float
    energy_competitor: float
    energy_reference: float
    energy_margin: float
    area_pieces: Mapping[str, float]
    energy_pieces: Mapping[str, float]


def competitor_z_cap(u: float, z_cap: Optional[float] = None) -> float:
    """The half-height of the slab |z| <= z_cap a competitor of opening u
    is truncated to: z_cap, or twice the opening when it is omitted."""
    return 2.0 * float(u) if z_cap is None else float(z_cap)


def competitor_compare(u: float, z_cap: Optional[float] = None) -> CompareReport:
    """Compare both spanning surfaces against the broken plane on a window.

    The doubled half-surfaces and the broken-plane patch are truncated to
    the slab |z| <= z_cap (`competitor_z_cap`), which must clear the sweep
    exit height and the fan.
    """
    if not u > 0:
        raise ValueError("u must be positive")
    z_cap = competitor_z_cap(u, z_cap)
    root = math.sqrt(1.0 + u * u)

    minimal = build_competitor("minimal", u)
    harmonic = build_competitor("harmonic", u)
    b = minimal.exit_height
    if z_cap < max(b, u):
        raise ValueError("z_cap must clear the sweep exit height and fan")

    wedge = wedge_area(u)
    patch_min = patch_area(minimal)
    flats = 2.0 * (b - 0.5 * u)
    wall_min = 2.0 * root * (z_cap - b)
    area_comp = 2.0 * (patch_min + flats + wall_min)
    # the walls rise from the exit height b, the reference planes from 0
    area_margin = wedge - 2.0 * (patch_min + flats) + 4.0 * root * b

    e_patch = patch_energy(harmonic)
    e_wall = u * u * (z_cap - 0.5 * u)
    energy_comp = 2.0 * (e_patch + e_wall)
    # the harmonic walls rise from its exit height u/2
    energy_margin = u ** 3 / 9.0 - 2.0 * e_patch + u ** 3

    area_pieces = {
        "patch": patch_min,
        "flats": flats,
        "wall": wall_min,
        "reference_wedge": wedge,
        "reference_planes": 4.0 * z_cap * root,
    }
    energy_pieces = {
        "patch": e_patch,
        "wall": e_wall,
        "reference_fan": u ** 3 / 9.0,
        "reference_planes": 2.0 * u * u * z_cap,
    }
    return CompareReport(u, z_cap, area_comp, broken_plane_area(u, z_cap),
                         area_margin, energy_comp,
                         broken_plane_energy(u, z_cap), energy_margin,
                         area_pieces, energy_pieces)

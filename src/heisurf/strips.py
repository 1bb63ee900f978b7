"""Ruled strips over the vertical axis and their profile functions.

A profile sigma assigns to each height z the slope of a horizontal line
through (0, 0, z); the union of these lines over |x| <= x_max is the strip

    S_sigma = { (x, x sigma(z), z) : |x| <= x_max }.

The same surface can be described by the profile alpha of the graph function
along {x = 1}: the height change of variables is z = w + alpha(w)/2 with
inverse w = z - sigma(z)/2, and both directions map piecewise-linear
profiles to piecewise-linear profiles knot by knot, with slope maps
s -> 2s/(2+s) and t -> 2t/(2-t).  A slope of exactly -2 in alpha collapses
a whole w-interval to one height: the surface there is a fan of lines, not
a graph over the axis, and the conversion refuses it.

A strip is graphical (the ruling equation z - x^2 sigma(z)/2 = z' has a
unique solution for every |x| <= x_max) when sigma's slopes lie in
[-2/x_max^2, 2/x_max^2), [-2, 2) at x_max = 1; such strips are
area-minimizing.  The broken plane with opening u > 0 - the
half-planes {y = -ux, z > 0} and {y = ux, z < 0} joined by the flat sector
{z = 0, |y| <= u|x|} - is the basic non-minimizing example: it carries
horizontal chords whose endpoints lie on the surface but whose interior
does not.

Along a horizontal line x, y and z are affine in the line parameter t.
A strip and a broken plane hand the crossing census in `lines`, through
`line_cuts`, polynomials in t of degree <= 2 between whose roots the
membership offset changes sign at most once.  A polynomial in t is an
array whose last axis holds the coefficients of (1, t, t^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import project_arr

__all__ = [
    "ProfileError",
    "SolverError",
    "Profile",
    "PwlProfile",
    "CallableProfile",
    "ArctanProfile",
    "sigma_to_alpha",
    "alpha_to_sigma",
    "eta_of",
    "require_pwl",
    "GraphicalStrip",
    "SLOPE_RULES",
    "slope_rule_breaks",
    "BrokenPlane",
    "broken_plane_graph_value",
    "broken_plane",
    "strip_surface",
    "is_area_minimizing",
    "constant_poly",
    "affine_product",
]


class ProfileError(ValueError):
    pass


class SolverError(ArithmeticError):
    """No root to be had: an equation outside `Profile.solve`'s contract,
    or a competitor sweep whose exit height is not finite."""


#: One slope rule per chart: the lowest admissible slope (a slope up to
#: _SLOPE_EPS below it passes) and the bound every slope stays below.  The
#: alpha slope t is the sigma slope 2t/(2+t), so sigma's [-2, 2) is alpha's
#: [-1, inf); an alpha fan of slope -2 is not a strip (`alpha_to_sigma`
#: refuses it).
SLOPE_RULES = {"sigma": (-2.0, 2.0), "alpha": (-1.0, math.inf)}
_SLOPE_EPS = 1e-9


def slope_rule_breaks(lo: float, hi: float,
                      kind: str = "sigma") -> tuple[bool, bool]:
    """Which ends of the slope range [lo, hi] break the chart's slope rule:
    (lo is below the floor by more than `_SLOPE_EPS`, hi reaches the
    ceiling).  A NaN end breaks the rule."""
    floor, ceiling = SLOPE_RULES[kind]
    return not lo >= floor - _SLOPE_EPS, not hi < ceiling


#: Safeguarded Newton steps allowed per point before `SolverError`; points
#: that converge need a handful (a Newton step is taken only when it at
#: most halves the step before it, a bisection halves the floats in the
#: bracket, so 64 of them reach adjacent floats).
_MAX_STEPS = 200


def _flat_equation(q, c):
    q, c = np.broadcast_arrays(np.asarray(q, dtype=float),
                               np.asarray(c, dtype=float))
    return q.ravel(), c.ravel(), c.shape


def _float_mid(a, b):
    """The float halfway between a and b in the order of the floats (by
    their int64 images, negative floats mirrored)."""
    mag = np.iinfo(np.int64).max
    ka, kb = (k ^ ((k >> 63) & mag) for k in (a.view(np.int64),
                                               b.view(np.int64)))
    mid = (ka >> 1) + (kb >> 1) + (ka & kb & 1)
    return (mid ^ ((mid >> 63) & mag)).view(float)


def _shaped(w: np.ndarray, shape):
    w = w.reshape(shape)
    return w if w.ndim else float(w)


class Profile:
    """Real function of one variable that answers for its own shape.

    Besides its values and slopes a profile says where it takes a slope
    (`where_slope`), whether it rises or falls on an interval
    (`direction`) and what its limits at -inf and +inf are
    (`tail_limits`).  Piecewise-linear and arctan profiles answer exactly;
    a closed-form `CallableProfile` samples.  ``knots`` holds the points
    where the slope may jump, where integrals split.
    """

    knots: Sequence[float] = ()

    def __call__(self, w):  # pragma: no cover - abstract
        raise NotImplementedError

    def derivative(self, w):  # pragma: no cover - abstract
        raise NotImplementedError

    def solve(self, q, c):  # pragma: no cover - abstract
        """The w with w + q f(w) = c, for q <= 0 and a non-increasing f.

        This is `RuledEntireGraph`'s ruling-height equation, q = -x^2/2.
        Its left side minus c, g, rises at least as fast as w, so the root
        is unique and within |g(c)| = |q f(c)| of ``c``.  ``q`` and ``c``
        broadcast; the result has their common shape.  An equation outside
        this contract may raise `SolverError`.
        """
        raise NotImplementedError

    def slope_bounds(self) -> tuple[float, float]:  # pragma: no cover
        raise NotImplementedError

    def where_slope(self, s: float) -> tuple[float, float]:  # pragma: no cover
        """The interval (a, b) of the first maximal run of slope ``s``."""
        raise NotImplementedError

    def direction(self, a: float, b: float) -> int:  # pragma: no cover
        """1 if the profile strictly increases on (a, b), -1 if it never
        rises there, else 0."""
        raise NotImplementedError

    def tail_limits(self, window: float = 1.0e3
                    ) -> tuple[float, float]:  # pragma: no cover
        """The limits (at -inf, at +inf); a sampler reads out to ``window``."""
        raise NotImplementedError


@dataclass(frozen=True)
class PwlProfile(Profile):
    """Piecewise-linear profile: knot points plus slopes beyond each end.

    Evaluation, scaling by a number and the leftmost preimages of levels
    are exact: each reads or keeps the knots themselves instead of sampling.
    Construction takes a scalar knot as a one-knot array and refuses, in
    this order, knots that are not matching non-empty 1-d arrays, positions
    that do not strictly increase (a NaN among two or more positions fails
    here) and values that are not finite.
    """

    w: np.ndarray
    v: np.ndarray
    slope_left: float = 0.0
    slope_right: float = 0.0

    def __post_init__(self):
        # ndarray methods and slices: on a few knots the np.all, np.diff
        # and np.atleast_1d wrappers cost more than the checks themselves
        w = np.asarray(self.w, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if not w.ndim:
            w = w.reshape(1)
        if not v.ndim:
            v = v.reshape(1)
        if w.ndim != 1 or w.shape != v.shape or len(w) == 0:
            raise ProfileError("knots must be matching non-empty 1-d arrays")
        if not (w[1:] > w[:-1]).all():
            raise ProfileError("knot positions must be strictly increasing")
        if not (np.isfinite(w).all() and np.isfinite(v).all()):
            raise ProfileError("knots must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "slope_left", float(self.slope_left))
        object.__setattr__(self, "slope_right", float(self.slope_right))

    # -- construction -------------------------------------------------------

    @staticmethod
    def constant(c: float) -> "PwlProfile":
        return PwlProfile(np.array([0.0]), np.array([float(c)]), 0.0, 0.0)

    @staticmethod
    def line(slope: float, intercept: float = 0.0) -> "PwlProfile":
        return PwlProfile(np.array([0.0]), np.array([float(intercept)]),
                          float(slope), float(slope))

    @staticmethod
    def from_knots(points: Sequence[tuple[float, float]],
                   slope_left: float = 0.0,
                   slope_right: float = 0.0) -> "PwlProfile":
        pts = np.asarray(points, dtype=float)
        return PwlProfile(pts[:, 0], pts[:, 1], slope_left, slope_right)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        out = np.interp(w, self.w, self.v)
        out = np.where(w < self.w[0],
                       self.v[0] + self.slope_left * (w - self.w[0]), out)
        out = np.where(w > self.w[-1],
                       self.v[-1] + self.slope_right * (w - self.w[-1]), out)
        return out if out.ndim else float(out)

    def piece_slopes(self) -> np.ndarray:
        interior = np.diff(self.v) / np.diff(self.w) if len(self.w) > 1 else np.empty(0)
        return np.concatenate([[self.slope_left], interior, [self.slope_right]])

    def derivative(self, w):
        """Right-continuous slope: at a knot, the slope of the piece after it."""
        w = np.asarray(w, dtype=float)
        idx = np.searchsorted(self.w, w, side="right")
        out = self.piece_slopes()[idx]
        return out if out.ndim else float(out)

    def solve(self, q, c):
        """Exact root of w + q f(w) = c, one affine equation per point.

        The left side is affine between knots, so each point's piece is found
        by counting the knots where the left side is still at most ``c``; the
        affine equation of that piece is then solved and the root kept inside
        the piece.
        """
        q, c, shape = _flat_equation(q, c)
        k = np.zeros(c.shape, dtype=np.intp)
        for wk, vk in zip(self.w, self.v):
            k += wk + q * vk <= c
        edges = np.concatenate([[-math.inf], self.w, [math.inf]])
        left, right = edges[k], edges[k + 1]
        anchor = np.minimum(k, len(self.w) - 1)
        wa, va = self.w[anchor], self.v[anchor]
        rate = 1.0 + q * self.piece_slopes()[k]
        if np.any(np.isinf(left - right) & ~(rate > 0)):
            raise SolverError("no root: the left side does not increase "
                              "without bound on an unbounded piece")
        num = c - wa - q * va
        step = np.divide(num, rate, out=np.where(num < 0, -np.inf, np.inf),
                         where=rate != 0)
        return _shaped(np.clip(wa + step, left, right), shape)

    def slope_bounds(self) -> tuple[float, float]:
        s = self.piece_slopes()
        return float(np.min(s)), float(np.max(s))

    @property
    def knots(self) -> np.ndarray:
        return self.w

    def where_slope(self, s: float) -> tuple[float, float]:
        """The pieces from the first one of slope ``s`` up to the next piece
        of another slope, as the interval between their outer knots."""
        slopes = self.piece_slopes()
        hit = np.flatnonzero(slopes == s)
        if not hit.size:
            raise ProfileError(f"no piece has slope {s!r}")
        first = int(hit[0])
        other = np.flatnonzero(slopes[first:] != s)
        end = first + int(other[0]) if other.size else len(slopes)
        edges = [-math.inf, *map(float, self.w), math.inf]
        return edges[first], edges[end]

    def direction(self, a: float, b: float) -> int:
        """Exact, from the slopes of the pieces that meet (a, b)."""
        first = int(np.searchsorted(self.w, a, side="right"))
        last = int(np.searchsorted(self.w, b, side="left"))
        s = self.piece_slopes()[first:last + 1]
        return 1 if np.all(s > 0.0) else -1 if np.all(s <= 0.0) else 0

    def tail_limits(self, window: float = 1.0e3) -> tuple[float, float]:
        """Exact: the end value where a tail is flat, else the infinity its
        slope heads to."""
        ends = ((self.v[0], -self.slope_left), (self.v[-1], self.slope_right))
        return tuple(float(v) if s == 0.0 else math.copysign(math.inf, s)
                     for v, s in ends)

    # -- scaling and preimages ----------------------------------------------

    def __mul__(self, c: float):
        c = float(c)
        return PwlProfile(self.w, self.v * c, self.slope_left * c,
                          self.slope_right * c)

    __rmul__ = __mul__

    def preimages(self, v) -> np.ndarray:
        """Leftmost w with self(w) = v for each of the levels ``v``, for a
        nondecreasing profile; NaN where there is none.

        One `searchsorted` finds each level's first knot at or above it.
        Inside the knot range the preimage is that knot where it is at the
        level, else the interpolant on the piece that rises through v;
        beyond it, the tail's affine root, or NaN where the tail does not
        rise to v.  Each branch reads the other levels clamped to its range,
        so they raise no floating-point warning there.
        """
        w, vals = self.w, self.v
        v = np.asarray(v, dtype=float)
        first, last = vals[0], vals[-1]
        inside = np.minimum(np.maximum(v, first), last)
        i = vals.searchsorted(inside)
        lo, hi = vals.take(i - 1, mode="clip"), vals.take(i, mode="clip")
        wlo, whi = w.take(i - 1, mode="clip"), w.take(i, mode="clip")
        frac = np.divide(inside - lo, hi - lo, out=np.zeros(v.shape),
                         where=hi > lo)
        out = np.where(hi == inside, whi, wlo + frac * (whi - wlo))
        below, above = v < first, v > last
        if below.any():
            left = (w[0] - (first - np.minimum(v, first)) / self.slope_left
                    if self.slope_left > 0 else np.nan)
            out = np.where(below, left, out)
        if above.any():
            right = (w[-1] + (np.maximum(v, last) - last) / self.slope_right
                     if self.slope_right > 0 else np.nan)
            out = np.where(above, right, out)
        return out


@dataclass(frozen=True)
class CallableProfile(Profile):
    """Closed-form profile; slope range supplied by caller."""

    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    slopes: Optional[tuple[float, float]] = None
    name: str = ""

    def __call__(self, w):
        out = np.asarray(self.fn(np.asarray(w, dtype=float)), dtype=float)
        return out if out.ndim else float(out)

    def derivative(self, w):
        w = np.asarray(w, dtype=float)
        if self.dfn is not None:
            out = np.asarray(self.dfn(w), dtype=float)
            return out if out.ndim else float(out)
        h = 1e-6 * (1.0 + np.abs(w))
        out = (self(w + h) - self(w - h)) / (2.0 * h)
        return out if np.ndim(out) else float(out)

    def solve(self, q, c):
        """Root of w + q f(w) = c by safeguarded Newton-bisection.

        The bracket is the contract's [c - r, c + r], r = |q f(c)| widened
        by 4 eps (r + |c|); an end on the wrong side (a rising profile, or
        a left side not finite there) raises `SolverError`.  A Newton step
        is taken when it stays inside and at most halves the previous step,
        else the bracket is bisected in the order of the floats
        (`_float_mid`), which reaches adjacent floats within 64 halvings
        even where r is orders of magnitude above the root's distance
        from c (arctan(-1e30)).  A point stops once its step is at the ulp
        of the root or its residual at the rounding level of w and c.
        """
        q, c, shape = _flat_equation(q, c)
        eps = np.finfo(float).eps

        def g(w, i):
            return w + q[i] * np.asarray(self(w), dtype=float) - c[i]

        idx = np.arange(c.size)
        r = np.abs(q * np.asarray(self(c), dtype=float))
        r = r + 4.0 * eps * (r + np.abs(c))
        L, H = c - r, c + r
        gL, gH = g(L, idx), g(H, idx)
        wrong = ~((gL <= 0.0) & (gH >= 0.0))
        if wrong.any():
            raise SolverError(
                f"no root within |q f(c)| of c = {float(c[wrong][0])!r}: "
                "the profile rises or the equation is not finite there")
        out = np.where(gL >= 0.0, L, H)
        act = np.flatnonzero((gL < 0.0) & (gH > 0.0))
        L, H, gL, gH = L[act], H[act], gL[act], gH[act]
        # the first step and the Newton steps may overflow or divide by zero
        # where the bracket is wide; a step that leaves it is a bisection
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = L - gL * (H - L) / (gH - gL)
        w = np.where((w > L) & (w < H), w, _float_mid(L, H))
        last = H - L
        for _ in range(_MAX_STEPS):
            if not act.size:
                break
            gw = g(w, act)
            if np.isnan(gw).any():
                raise SolverError(
                    "the equation is not finite inside the bracket")
            settled = np.abs(gw) <= 4.0 * eps * (np.abs(w) + np.abs(c[act]))
            L = np.where(gw < 0.0, w, L)
            H = np.where(gw > 0.0, w, H)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                slope = 1.0 + q[act] * np.asarray(self.derivative(w),
                                                  dtype=float)
                newton = w - gw / slope
            take = ((newton > L) & (newton < H)
                    & (np.abs(newton - w) <= 0.5 * last))
            nxt = np.where(take, newton, _float_mid(L, H))
            last = np.abs(nxt - w)
            done = settled | (last <= 2.0 * np.spacing(np.abs(nxt)))
            out[act[done]] = np.where(settled, w, nxt)[done]
            keep = ~done
            act, w, L, H = act[keep], nxt[keep], L[keep], H[keep]
            last = last[keep]
        if act.size:
            raise SolverError(f"no convergence within {_MAX_STEPS} steps")
        return _shaped(out, shape)

    def slope_bounds(self) -> tuple[float, float]:
        if self.slopes is None:
            raise ProfileError("slope range not declared for this profile")
        return self.slopes

    def where_slope(self, s: float) -> tuple[float, float]:
        raise ProfileError("a closed-form profile does not locate its slopes")

    def direction(self, a: float, b: float) -> int:
        """Sampled at 513 heights of (a, b), an infinite end read at +-64;
        a rise counts only above 1e-12."""
        lo, hi = np.nan_to_num([a, b], posinf=64.0, neginf=-64.0)
        d = np.diff(np.asarray(self(np.linspace(lo, hi, 513)), dtype=float))
        return 1 if np.all(d > 0.0) else 0 if np.any(d > 1e-12) else -1

    def tail_limits(self, window: float = 1.0e3) -> tuple[float, float]:
        """Richardson extrapolation in 1/z at ``window`` and half of it,
        exact for ``c + O(1/z)`` tails.  A tail whose extrapolations at
        ``window`` and at half of it differ by more than 1e-2 (relative)
        keeps drifting, and its limit is the infinity it drifts toward."""
        out = []
        for z in (-float(window), float(window)):
            v4, v2, v1 = (float(self(z / k)) for k in (4.0, 2.0, 1.0))
            outer, inner = 2.0 * v1 - v2, 2.0 * v2 - v4
            if abs(outer - inner) > 1e-2 * (1.0 + abs(inner)):
                out.append(math.inf if v1 > v2 else -math.inf)
            else:
                out.append(outer)
        return out[0], out[1]


class ArctanProfile(CallableProfile):
    """``scale * arctan(z)``, a closed-form profile that keeps its scale.

    Its slope scale / (1 + z^2) is rational, so along a line the points
    where its strip's offset turns are the roots of polynomials in t, and
    the census counts the strip's crossings exactly (see
    `GraphicalStrip.line_cuts`).
    """

    scale: float

    def __init__(self, scale: float):
        s = float(scale)
        super().__init__(
            fn=lambda z: s * np.arctan(z),
            dfn=lambda z: s / (1.0 + np.asarray(z, dtype=float) ** 2),
            slopes=(min(0.0, s), max(0.0, s)), name=f"arctan({s!r})")
        object.__setattr__(self, "scale", s)

    def where_slope(self, s: float) -> tuple[float, float]:
        """The extreme slope ``scale`` is taken at z = 0 only."""
        if s != self.scale:
            raise ProfileError(
                f"{self.name} locates only its extreme slope {self.scale!r}")
        return 0.0, 0.0

    def direction(self, a: float, b: float) -> int:
        """1 if ``scale`` > 0, else -1: the profile is monotone."""
        return 1 if self.scale > 0.0 else -1

    def tail_limits(self, window: float = 1.0e3) -> tuple[float, float]:
        h = 0.5 * math.pi * self.scale
        return -h, h


# ---------------------------------------------------------------------------
# profile transforms


def _map_end_slope(s: float, kind: str) -> float:
    if kind == "alpha_from_sigma":
        return 2.0 * s / (2.0 - s)
    return 2.0 * s / (2.0 + s)


def require_pwl(profile: Profile) -> PwlProfile:
    """``profile`` if it is piecewise linear, else the one refusal of every
    exact alpha<->sigma transform and of each command that needs one."""
    if not isinstance(profile, PwlProfile):
        raise ProfileError("exact transform needs a piecewise-linear profile")
    return profile


def sigma_to_alpha(sigma: PwlProfile) -> PwlProfile:
    """Reparameterize a slope profile by graph height: knot (z, s) -> (z - s/2, s)."""
    require_pwl(sigma)
    if np.any(sigma.piece_slopes() >= 2.0):
        raise ProfileError("slope >= 2 breaks the height change of variables")
    return PwlProfile(
        sigma.w - sigma.v / 2.0, sigma.v,
        _map_end_slope(sigma.slope_left, "alpha_from_sigma"),
        _map_end_slope(sigma.slope_right, "alpha_from_sigma"),
    )


def alpha_to_sigma(alpha: PwlProfile) -> PwlProfile:
    """Inverse reparameterization: knot (w, a) -> (w + a/2, a).

    A piece of slope exactly -2 maps a whole interval to a single height
    (a fan, not a graph) and is refused; slopes below -2 fold the strip over.
    """
    require_pwl(alpha)
    slopes = alpha.piece_slopes()
    if np.any(slopes == -2.0):
        raise ProfileError("plateau: slope -2 collapses an interval of heights")
    if np.any(slopes < -2.0):
        raise ProfileError("not graphical: slope below -2 folds the strip")
    return PwlProfile(
        alpha.w + alpha.v / 2.0, alpha.v,
        _map_end_slope(alpha.slope_left, "sigma_from_alpha"),
        _map_end_slope(alpha.slope_right, "sigma_from_alpha"),
    )


def eta_of(alpha: PwlProfile) -> PwlProfile:
    """Height map w -> w + alpha(w)/2 as an exact piecewise-linear profile."""
    require_pwl(alpha)
    return PwlProfile(
        alpha.w, alpha.w + alpha.v / 2.0,
        1.0 + alpha.slope_left / 2.0,
        1.0 + alpha.slope_right / 2.0,
    )


# ---------------------------------------------------------------------------
# polynomials along a line


def constant_poly(c) -> np.ndarray:
    """The constant polynomials c (any shape) as coefficient arrays."""
    c = np.asarray(c, dtype=float)
    out = np.zeros(c.shape + (3,))
    out[..., 0] = c
    return out


def affine_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials of degree <= 1, broadcast on leading axes."""
    first = p[..., 0] * q[..., 0]
    out = np.empty(first.shape + (3,))
    out[..., 0] = first
    out[..., 1] = p[..., 0] * q[..., 1] + p[..., 1] * q[..., 0]
    out[..., 2] = p[..., 1] * q[..., 1]
    return out


# ---------------------------------------------------------------------------
# strips


def _turns(m: float, reach: float) -> bool:
    """Does the slope m turn on the slab |x| <= reach, m reach^2 >= 2?
    Tested as reach >= sqrt(2) / sqrt(m), which is finite for every m > 0,
    so the test cannot overflow."""
    return m > 0.0 and reach >= math.sqrt(2.0) / math.sqrt(m)


@dataclass(frozen=True)
class GraphicalStrip:
    """Union of horizontal lines (x, x sigma(z), z) over |x| <= x_max."""

    sigma: Profile
    x_max: float = 1.0

    def membership_offset(self, points: np.ndarray) -> np.ndarray:
        """y - x sigma(z).  Where x sigma(z) overflows, the offset is the
        infinity of its sign: y is finite, so the product decides it."""
        p = np.asarray(points, dtype=float)
        sigma = np.asarray(self.sigma(p[..., 2]))
        with np.errstate(over="ignore"):
            return p[..., 1] - p[..., 0] * sigma

    def line_cuts(self, x, y, z):
        """Cuts of the offset along lines.

        ``x``, ``y``, ``z`` are (n, 3) polynomials, one line each, and the
        cuts are (n, K, 3) polynomials between whose roots the offset
        changes sign at most once.  Along a line y/x - sigma(z) has
        t-derivative v (sigma'(z) x^2 - 2) / (2 x^2), so it is monotone
        where x and sigma'(z) x^2 - 2 keep their signs, and there the offset
        x (y/x - sigma(z)) changes sign at most once.  A slope m of sigma
        turns on the slab when m reach^2 >= 2, with reach = x_max plus a
        margin of 1e-12 (x_max^2 + x0^2) / x_max, x0 the largest |x(0)| of
        the lines, which rounding of the roots and of the windows' ends
        cannot cross.  If no slope turns (`slope_bounds`), sigma'(z) x^2 - 2
        is negative wherever the offset is read, and the one cut is x (a
        closed-form sigma's on its declared slopes).  A strip whose slopes
        turn keeps every cut where a turn may lie: for sigma = k arctan, x
        and k x^2 - 2 (1 + z^2); for a PWL sigma, x, z - z_j for each knot
        z_j and m x^2 - 2 for each turning slope m; any other sigma raises
        `ProfileError`, as undeclared slopes do.
        """
        sigma = self.sigma
        x0 = float(np.abs(x[:, 0]).max(initial=0.0))
        # x_max^2 is never formed; a margin past the largest float is inf
        reach = self.x_max + 1e-12 * (self.x_max + x0 * (x0 / self.x_max))
        top = sigma.slope_bounds()[1]
        if not _turns(top, reach):
            return x[:, None, :]
        if isinstance(sigma, ArctanProfile):
            turn = (sigma.scale * affine_product(x, x)
                    - 2.0 * (constant_poly(1.0) + affine_product(z, z)))
            return np.stack([x, turn], axis=1)
        if not isinstance(sigma, PwlProfile):
            raise ProfileError(
                f"{sigma.name or 'a closed-form profile'}: slope {top!r} "
                f"turns on |x| <= {self.x_max!r}, and only a PWL or arctan "
                "profile locates the turn cuts sigma'(z) x^2 = 2")
        m = np.array([s for s in np.unique(sigma.piece_slopes()).tolist()
                      if _turns(s, reach)])
        turn = (m[:, None] * affine_product(x, x)[:, None, :]
                - constant_poly(2.0))
        return np.concatenate([x[:, None, :],
                               z[:, None, :] - constant_poly(sigma.w), turn],
                              axis=1)

    def is_graphical(self) -> bool:
        """Do sigma's slopes lie in [-2/x_max^2, 2/x_max^2), down to
        `_SLOPE_EPS` / x_max^2 below the floor?

        The dilation (x, y, z) -> (k x, k y, k^2 z) maps the strip of
        sigma(z) on |x| < 1 to the strip of sigma(z / k^2) on |x| < k, so
        x_max^2 times sigma's slopes obey the rule at half-width 1
        (`slope_rule_breaks`).  A zero slope stays zero at every width,
        where x_max^2 overflows to inf and inf * 0 would be NaN.
        """
        k = self.x_max * self.x_max
        lo, hi = (k * s if s else s for s in self.sigma.slope_bounds())
        return not any(slope_rule_breaks(lo, hi))


@dataclass(frozen=True)
class BrokenPlane:
    """Two half-planes y = -+ u x joined across a flat sector at height zero."""

    u: float
    x_max: float = 1.0

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("opening must be nonnegative")

    def value(self, x, zp):
        """Graph function over the axis: the fan contributes -2 z'/x."""
        return broken_plane_graph_value(self.u, -self.u, x, zp)

    def membership_offset(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        flat = project_arr(p.reshape(-1, 3))
        vals = self.value(flat[:, 0], flat[:, 1])
        off = p.reshape(-1, 3)[:, 1] - vals
        return off.reshape(p.shape[:-1])

    def line_cuts(self, x, y, z):
        """Cuts of the offset along lines, as for a strip: z' -+ u x^2/2
        with z' = z - x y/2, where `value` changes piece, and x.  On a
        half-plane the offset y -+ u x is affine in t.  On the fan x^2 times
        the offset y + 2 z'/x is 2 x z, so where x keeps its sign the offset
        has the sign of -+z, which is affine in t.
        """
        zp = z - 0.5 * affine_product(x, y)
        bend = 0.5 * self.u * affine_product(x, x)
        return np.stack([zp - bend, zp + bend, x], axis=1)


def broken_plane_graph_value(slope_neg, slope_pos, x, zprime):
    """Graph function y = f(x, z') with constant ruling slopes away from a fan.

    The ruling slope is ``slope_neg`` for heights below zero and
    ``slope_pos`` above; the parabolic fan in between takes the value
    -2 z'/x.  With slopes u and -u this is the broken plane of opening u,
    and it is the pointwise limit of every blow-down of an entire ruled
    graph whose profile has these two tail limits.
    """
    big, small = float(slope_neg), float(slope_pos)
    if not (math.isfinite(big) and math.isfinite(small)):
        raise ValueError("infinite limit slopes have no graph realization")
    if small > big + 1e-12:
        raise ValueError("need slope_neg >= slope_pos")
    x = np.asarray(x, dtype=float)
    zp = np.asarray(zprime, dtype=float)
    fan = -2.0 * zp / np.where(x != 0.0, x, 1.0)
    out = np.where(zp > -0.5 * small * x * x, small * x,
                   np.where(zp < -0.5 * big * x * x, big * x, fan))
    return out if out.ndim else float(out)


def broken_plane(u: float, x_max: float = 1.0) -> BrokenPlane:
    return BrokenPlane(float(u), float(x_max))


def strip_surface(profile: Profile, kind: str = "sigma",
                  x_max: float = 1.0) -> GraphicalStrip:
    """Build a strip from a slope profile ('sigma') or a graph profile ('alpha')."""
    if kind == "alpha":
        profile = alpha_to_sigma(profile)
    elif kind != "sigma":
        raise ValueError("kind must be 'sigma' or 'alpha'")
    return GraphicalStrip(profile, float(x_max))


def is_area_minimizing(surface) -> bool:
    """Structural minimality test.

    Graphical strips calibrate their own boundary data, so graphical implies
    minimizing.  A broken plane with positive opening admits a horizontal
    chord that a competitor can shortcut, so it is not minimizing.
    """
    if isinstance(surface, GraphicalStrip):
        return surface.is_graphical()
    if isinstance(surface, BrokenPlane):
        return surface.u == 0.0
    raise TypeError(f"no minimality test for {type(surface).__name__}")

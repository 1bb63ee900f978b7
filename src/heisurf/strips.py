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
unique solution for every |x| <= x_max) when sigma's slopes lie in [-2, 2);
such strips are area-minimizing.  The broken plane with opening u > 0 - the
half-planes {y = -ux, z > 0} and {y = ux, z < 0} joined by the flat sector
{z = 0, |y| <= u|x|} - is the basic non-minimizing example: it carries
horizontal chords whose endpoints lie on the surface but whose interior
does not.

Along a horizontal line x, y and z are affine in the line parameter t.
For a PWL or arctan strip and for a broken plane, `line_cuts` hands the
crossing census in `lines` polynomials in t of degree <= 2 between whose
roots the membership offset changes sign at most once.  A polynomial in t
is an array whose last axis holds the coefficients of (1, t, t^2).
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
    "GraphicalStrip",
    "BrokenPlane",
    "broken_plane",
    "strip_surface",
    "is_area_minimizing",
    "constant_poly",
    "affine_product",
]


class ProfileError(ValueError):
    pass


class SolverError(ArithmeticError):
    """An equation handed to `Profile.solve` has no root it can reach."""


#: Doublings of the search step before an unbounded root counts as missing.
_BRACKET_DOUBLINGS = 64
#: Safeguarded Newton steps allowed per point before `SolverError`; points
#: that converge need a handful (a Newton step is taken only when it at
#: most halves the step before it, a bisection halves the bracket).
_MAX_STEPS = 200


def _flat_equation(p, q, c):
    p, q, c = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                    for a in (p, q, c)))
    return p.ravel(), q.ravel(), c.ravel(), c.shape


def _shaped(w: np.ndarray, shape):
    w = w.reshape(shape)
    return w if w.ndim else float(w)


class Profile:
    """Real function of one variable with slope information."""

    def __call__(self, w):  # pragma: no cover - abstract
        raise NotImplementedError

    def derivative(self, w):  # pragma: no cover - abstract
        raise NotImplementedError

    def solve(self, p, q, c, lo: float = -math.inf,
              hi: float = math.inf):  # pragma: no cover - abstract
        """The w in [lo, hi] with p w + q f(w) = c, for an increasing left side.

        ``p``, ``q`` and ``c`` broadcast against each other; the result has
        their common shape.  Where the left side stays above (below) ``c`` on
        the whole interval the result is ``lo`` (``hi``).  An unbounded end
        with no root toward it raises `SolverError`.
        """
        raise NotImplementedError

    def slope_bounds(self) -> tuple[float, float]:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class PwlProfile(Profile):
    """Piecewise-linear profile: knot points plus slopes beyond each end.

    Evaluation, algebra, inversion and composition are all exact: every
    operation produces the knots of the result directly instead of sampling.
    """

    w: np.ndarray
    v: np.ndarray
    slope_left: float = 0.0
    slope_right: float = 0.0

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.w, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if w.ndim != 1 or w.shape != v.shape or len(w) == 0:
            raise ProfileError("knots must be matching non-empty 1-d arrays")
        if len(w) > 1 and not np.all(np.diff(w) > 0):
            raise ProfileError("knot positions must be strictly increasing")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
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

    def solve(self, p, q, c, lo: float = -math.inf, hi: float = math.inf):
        """Exact root of p w + q f(w) = c, one affine equation per point.

        The left side is affine between knots, so each point's piece is found
        by counting the knots inside (lo, hi) where the left side is still at
        most ``c``; the affine equation of that piece is then solved and the
        root kept inside the piece, which also clamps to ``lo``/``hi``.
        """
        p, q, c, shape = _flat_equation(p, q, c)
        lo, hi = float(lo), float(hi)
        first = int(np.searchsorted(self.w, lo, side="right"))
        last = int(np.searchsorted(self.w, hi, side="left"))
        k = np.zeros(c.shape, dtype=np.intp)
        for wk, vk in zip(self.w[first:last], self.v[first:last]):
            k += p * wk + q * vk <= c
        edges = np.concatenate([[lo], self.w[first:last], [hi]])
        left, right = edges[k], edges[k + 1]
        piece = first + k
        anchor = np.minimum(piece, len(self.w) - 1)
        wa, va = self.w[anchor], self.v[anchor]
        rate = p + q * self.piece_slopes()[piece]
        if np.any(np.isinf(left - right) & ~(rate > 0)):
            raise SolverError("no root: the left side does not increase "
                              "without bound on an unbounded piece")
        num = c - p * wa - q * va
        step = np.divide(num, rate, out=np.where(num < 0, -np.inf, np.inf),
                         where=rate != 0)
        return _shaped(np.clip(wa + step, left, right), shape)

    def slope_bounds(self) -> tuple[float, float]:
        s = self.piece_slopes()
        return float(np.min(s)), float(np.max(s))

    # -- exact algebra ------------------------------------------------------

    def _binary(self, other, op) -> "PwlProfile":
        if np.isscalar(other) or isinstance(other, (int, float)):
            return PwlProfile(self.w, op(self.v, float(other)),
                              self.slope_left, self.slope_right)
        if not isinstance(other, PwlProfile):
            return NotImplemented
        grid = np.unique(np.concatenate([self.w, other.w]))
        return PwlProfile(
            grid, op(self(grid), other(grid)),
            float(op(self.slope_left, other.slope_left)),
            float(op(self.slope_right, other.slope_right)),
        )

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, c: float):
        c = float(c)
        return PwlProfile(self.w, self.v * c, self.slope_left * c,
                          self.slope_right * c)

    __rmul__ = __mul__

    def inverse(self) -> "PwlProfile":
        slopes = self.piece_slopes()
        if np.any(slopes <= 0):
            raise ProfileError("inverse needs a strictly increasing profile")
        return PwlProfile(self.v, self.w, 1.0 / self.slope_left,
                          1.0 / self.slope_right)

    def preimage(self, v: float) -> Optional[float]:
        """Leftmost w with self(w) = v, for a nondecreasing profile.

        Inside the knot range this is the first knot at level v or the
        interpolant on the piece that rises through v; beyond it, the tail's
        affine root, or None where the tail does not rise to v.
        """
        w, vals = self.w, self.v
        if v < vals[0]:
            if self.slope_left > 0:
                return float(w[0] - (vals[0] - v) / self.slope_left)
            return None
        if v > vals[-1]:
            if self.slope_right > 0:
                return float(w[-1] + (v - vals[-1]) / self.slope_right)
            return None
        i = int(np.searchsorted(vals, v, side="left"))
        if vals[i] == v:
            return float(w[i])
        frac = (v - vals[i - 1]) / (vals[i] - vals[i - 1])
        return float(w[i - 1] + frac * (w[i] - w[i - 1]))

    def compose(self, inner: "PwlProfile") -> "PwlProfile":
        """Exact self(inner(.)) for a nondecreasing inner profile.

        Each outer knot is pulled back through the leftmost preimage; where
        the inner profile plateaus, both plateau endpoints are inner knots
        already, so the composition stays exactly piecewise linear.
        """
        if np.any(inner.piece_slopes() < 0):
            raise ProfileError("compose needs a nondecreasing inner profile")
        pulled = [w for w in map(inner.preimage, self.w) if w is not None]
        grid = np.unique(np.concatenate([inner.w, pulled])) \
            if pulled else inner.w
        return PwlProfile(
            grid, self(inner(grid)),
            self.slope_left * inner.slope_left,
            self.slope_right * inner.slope_right,
        )


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

    def solve(self, p, q, c, lo: float = -math.inf, hi: float = math.inf):
        """Root of p w + q f(w) = c by safeguarded Newton-bisection.

        A finite ``lo``/``hi`` is a bracket end as given; an infinite one is
        found by doubling a step outward from ``c/p`` (or the finite end)
        and raises `SolverError` after `_BRACKET_DOUBLINGS` doublings.
        Inside the bracket a Newton step is taken when it stays inside and
        at most halves the previous step, else the bracket is bisected.  A
        point stops once its step is at the ulp level or its residual is at
        the rounding level of p w and c (which includes a residual of 0).
        """
        p, q, c, shape = _flat_equation(p, q, c)
        lo, hi = float(lo), float(hi)
        eps = np.finfo(float).eps

        def g(w, i):
            return p[i] * w + q[i] * np.asarray(self(w), dtype=float) - c[i]

        n = c.size
        idx = np.arange(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = np.where(p != 0.0, c / p, 0.0)
        guess = np.clip(np.nan_to_num(guess), lo, hi)
        if math.isfinite(lo):
            L = np.full(n, lo)
            gL = g(L, idx)
        else:
            L, gL = _outward(g, idx, guess, -1.0)
        if math.isfinite(hi):
            H = np.full(n, hi)
            gH = g(H, idx)
        else:
            H, gH = _outward(g, idx, guess, 1.0)
        if np.isnan(gL).any() or np.isnan(gH).any():
            raise SolverError("the equation is not finite at the bracket ends")
        out = np.where(gL >= 0.0, L, H)
        act = np.flatnonzero((gL < 0.0) & (gH > 0.0))
        L, H, gL, gH = L[act], H[act], gL[act], gH[act]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = L - gL * (H - L) / (gH - gL)
        w = np.where((w > L) & (w < H), w, 0.5 * (L + H))
        last = H - L
        # steps stop at the ulp of the root, or of eps * bracket near w = 0
        floor = eps * last
        for _ in range(_MAX_STEPS):
            if not act.size:
                break
            gw = g(w, act)
            if np.isnan(gw).any():
                raise SolverError(
                    "the equation is not finite inside the bracket")
            settled = np.abs(gw) <= 4.0 * eps * (np.abs(p[act] * w)
                                                  + np.abs(c[act]))
            L = np.where(gw < 0.0, w, L)
            H = np.where(gw > 0.0, w, H)
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = p[act] + q[act] * np.asarray(self.derivative(w),
                                                     dtype=float)
                newton = w - gw / slope
            take = ((newton > L) & (newton < H)
                    & (np.abs(newton - w) <= 0.5 * last))
            nxt = np.where(take, newton, 0.5 * (L + H))
            last = np.abs(nxt - w)
            ulp = np.spacing(np.maximum(np.abs(nxt), floor))
            done = settled | (last <= 2.0 * ulp)
            out[act[done]] = np.where(settled, w, nxt)[done]
            keep = ~done
            act, w, L, H = act[keep], nxt[keep], L[keep], H[keep]
            last, floor = last[keep], floor[keep]
        if act.size:
            raise SolverError(f"no convergence within {_MAX_STEPS} steps")
        return _shaped(out, shape)

    def slope_bounds(self) -> tuple[float, float]:
        if self.slopes is None:
            raise ProfileError("slope range not declared for this profile")
        return self.slopes


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


def _outward(g, idx: np.ndarray, start: np.ndarray,
             direction: float) -> tuple[np.ndarray, np.ndarray]:
    """Double a step from ``start`` until ``direction * g`` is nonnegative."""
    step = np.ones_like(start)
    end = start + direction * step
    val = g(end, idx)
    todo = np.flatnonzero(~(direction * val >= 0.0))
    for _ in range(_BRACKET_DOUBLINGS):
        if not todo.size:
            break
        step[todo] *= 2.0
        end[todo] = start[todo] + direction * step[todo]
        val[todo] = g(end[todo], idx[todo])
        todo = todo[~(direction * val[todo] >= 0.0)]
    if todo.size:
        side = "below" if direction < 0 else "above"
        raise SolverError(
            f"no root bracketed {side} w = {float(start[todo[0]])!r} within "
            f"{_BRACKET_DOUBLINGS} doublings of the search step")
    return end, val


# ---------------------------------------------------------------------------
# profile transforms


def _map_end_slope(s: float, kind: str) -> float:
    if kind == "alpha_from_sigma":
        return 2.0 * s / (2.0 - s)
    return 2.0 * s / (2.0 + s)


def sigma_to_alpha(sigma: PwlProfile) -> PwlProfile:
    """Reparameterize a slope profile by graph height: knot (z, s) -> (z - s/2, s)."""
    if not isinstance(sigma, PwlProfile):
        raise ProfileError("exact transform needs a piecewise-linear profile")
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
    if not isinstance(alpha, PwlProfile):
        raise ProfileError("exact transform needs a piecewise-linear profile")
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
    if not isinstance(alpha, PwlProfile):
        raise ProfileError("exact transform needs a piecewise-linear profile")
    return PwlProfile(
        alpha.w, alpha.w + alpha.v / 2.0,
        1.0 + alpha.slope_left / 2.0,
        1.0 + alpha.slope_right / 2.0,
    )


# ---------------------------------------------------------------------------
# ruling-equation solver


def _solve_height(sigma: Profile, x, zprime):
    """Ruling height z with z - x^2 sigma(z)/2 = z', over the whole line.

    `Profile.solve` is exact piece by piece for a PWL sigma and a
    safeguarded Newton-bisection otherwise.  The left side must increase in
    z (graphical strip); where no root is reached, `SolverError` is raised.
    """
    x = np.asarray(x, dtype=float)
    return sigma.solve(1.0, -0.5 * x * x, zprime)


# ---------------------------------------------------------------------------
# polynomials along a line


def constant_poly(c) -> np.ndarray:
    """The constant polynomials c (any shape) as coefficient arrays."""
    c = np.asarray(c, dtype=float)
    return np.stack([c, np.zeros_like(c), np.zeros_like(c)], axis=-1)


def affine_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials of degree <= 1, broadcast on leading axes."""
    return np.stack([p[..., 0] * q[..., 0],
                     p[..., 0] * q[..., 1] + p[..., 1] * q[..., 0],
                     p[..., 1] * q[..., 1]], axis=-1)


# ---------------------------------------------------------------------------
# strips


@dataclass(frozen=True)
class GraphicalStrip:
    """Union of horizontal lines (x, x sigma(z), z) over |x| <= x_max."""

    sigma: Profile
    x_max: float = 1.0

    def membership_offset(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return p[..., 1] - p[..., 0] * np.asarray(self.sigma(p[..., 2]))

    def line_cuts(self, x, y, z):
        """Cuts of the offset along lines; None for a closed-form sigma
        other than `ArctanProfile`.

        ``x``, ``y``, ``z`` are (n, 3) polynomials, one line each, and the
        cuts are (n, K, 3) polynomials between whose roots the offset
        changes sign at most once.  Along a line y/x - sigma(z) has
        t-derivative v (sigma'(z) x^2 - 2) / (2 x^2), so it is monotone
        where x and sigma'(z) x^2 - 2 keep their signs, and there the offset
        x (y/x - sigma(z)) changes sign at most once.  For sigma = k arctan
        the cuts are x and k x^2 - 2 (1 + z^2).  For a PWL sigma they are x,
        z - z_j for each knot z_j, and m x^2 - 2 for each piece slope m > 0
        (where m <= 0, m x^2 - 2 is negative).
        """
        sigma = self.sigma
        if isinstance(sigma, ArctanProfile):
            turn = (sigma.scale * affine_product(x, x)
                    - 2.0 * (constant_poly(1.0) + affine_product(z, z)))
            return np.stack([x, turn], axis=1)
        if not isinstance(sigma, PwlProfile):
            return None
        m = np.unique(sigma.piece_slopes())
        turn = (m[m > 0.0, None] * affine_product(x, x)[:, None, :]
                - constant_poly(2.0))
        return np.concatenate([x[:, None, :],
                               z[:, None, :] - constant_poly(sigma.w), turn],
                              axis=1)

    def is_graphical(self) -> bool:
        lo, hi = self.sigma.slope_bounds()
        return lo >= -2.0 and hi < 2.0


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
        x = np.asarray(x, dtype=float)
        zp = np.asarray(zp, dtype=float)
        u = self.u
        safe = np.where(x != 0.0, x, 1.0)
        fan = -2.0 * zp / safe
        out = np.where(zp > 0.5 * u * x * x, -u * x,
                       np.where(zp < -0.5 * u * x * x, u * x, fan))
        return out if out.ndim else float(out)

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

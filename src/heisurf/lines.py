"""Horizontal lines as a measured family, and crossing statistics.

Every non-vertical-direction horizontal line is rot_theta of a base line
{(t, v, w - v t/2)}; the chart (theta, v, w) with theta in [0, pi) carries
the measure dtheta dv dw, which left translation and rotation preserve (the
induced (v, w) maps are shears).  The measure of the lines meeting a gauge
ball of radius r therefore scales exactly like r^3; both facts are backed
by Monte-Carlo tests rather than taken on faith.

Along a line x, y and z are affine in t.  For a piecewise-polynomial
surface (a PWL strip, a broken plane, the sigma-rho slab of a PWL rho) the
membership offset is then, piece by piece, a polynomial of degree <= 2 in
t, and `_exact_crossings` solves every piece of every line at once in
closed form, keeping the roots with |x| <= x_max.  For the strip of an
arctan profile and the sigma-rho slab of a closed-form rho the line pieces
are cuts alone: between the roots of these polynomials the offset changes
sign at most once, so `_cut_crossings` counts a line's crossings as the
sign changes of the offset at its window's ends (|x| <= x_max) and those
roots, and bisects only the lines it counts twice or more.  For any other
closed-form surface crossings are sign changes of the offset on a grid:
`_crossings` scans every line's window (padded by 1e-3, within a reach of
|t| <= 50) and bisects the brackets of all lines at once; it also serves
`crossings` and `crossing_counts`.  All of them see only transversal
intersections, and all read the same three members of a surface:
`membership_offset`, `x_max` and `line_pieces` (None where it has none).
A graphical strip with slopes in [-2, 2) meets almost every horizontal
line at most once; surfaces carrying a horizontal shortcut chord are met
twice, and the census in `monotonicity_check` finds such lines.  The
parameter t is plane arclength, so steep and shallow directions are
handled identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .strips import Profile, strip_surface

__all__ = [
    "LineSample",
    "line_ball_distance",
    "box_volume",
    "sample_lines",
    "line_measure_of_ball",
    "CalibrationResult",
    "CalibrationError",
    "calibrate_ratio",
    "LineCrossings",
    "crossings",
    "crossing_counts",
    "CrossingReport",
    "monotonicity_check",
]


@dataclass(frozen=True)
class LineSample:
    """Horizontal line rot_theta{(t, v, w - v t/2)}, theta in [0, pi)."""

    theta: float
    v: float
    w: float

    def points_at(self, ts) -> np.ndarray:
        """Points of this line at parameters ts: the oracle the tests hold
        the batched line geometry (`_line_points`, `_line_polys`) to."""
        return _line_points(self.theta, self.v, self.w,
                            np.asarray(ts, dtype=float))


# ---------------------------------------------------------------------------
# sampling lines that meet a gauge ball


def line_ball_distance(v, w):
    """min over t of the gauge norm along the line (theta plays no role).

    The quartic ((t^2+v^2)^2 + (w - v t/2)^2) has a single critical point,
    the root of 4 t^3 + (9/2) v^2 t - v w = 0, solved by Cardano.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    p = 9.0 * v * v / 8.0
    q = -v * w / 4.0
    disc = np.sqrt(q * q / 4.0 + p ** 3 / 27.0)
    t = np.cbrt(-q / 2.0 + disc) + np.cbrt(-q / 2.0 - disc)
    val = (t * t + v * v) ** 2 + (w - 0.5 * v * t) ** 2
    return val ** 0.25


def box_volume(radius: float) -> float:
    """Chart volume of the box certain to contain all lines meeting the ball."""
    return 6.0 * math.pi * radius ** 3


def _sample_box(radius: float, n: int, rng: np.random.Generator):
    theta = rng.uniform(0.0, math.pi, size=n)
    v = rng.uniform(-radius, radius, size=n)
    w = rng.uniform(-1.5 * radius ** 2, 1.5 * radius ** 2, size=n)
    return theta, v, w


def sample_lines(radius: float, n: int,
                 seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exactly n lines meeting the gauge ball, uniform for the line measure.

    Returns the chart coordinates (theta, v, w) as three arrays of length n.
    """
    if n < 1:
        raise ValueError("need at least one line")
    rng = np.random.default_rng(seed)
    parts = []
    kept = 0
    while kept < n:
        theta, v, w = _sample_box(radius, max(2 * (n - kept), 64), rng)
        hit = line_ball_distance(v, w) <= radius
        parts.append((theta[hit], v[hit], w[hit]))
        kept += int(np.count_nonzero(hit))
    theta, v, w = (np.concatenate(c)[:n] for c in zip(*parts))
    return theta, v, w


def line_measure_of_ball(radius: float, n: int, seed: int = 0,
                         center: Optional[Sequence[float]] = None):
    """Monte-Carlo measure of the lines meeting B(center, r), with SE.

    For an off-origin center the box is the padded axis-aligned hull of the
    sheared chart image, so agreement with the origin estimate is a real
    test of translation invariance, not an algebraic identity: ``center``
    is that oracle, and the census and calibration use the origin alone.
    """
    rng = np.random.default_rng(seed)
    if center is None:
        _, v, w = _sample_box(radius, n, rng)
        p = float(np.mean(line_ball_distance(v, w) <= radius))
        vol = box_volume(radius)
    else:
        gx, gy, gz = map(float, center)
        r1 = math.hypot(gx, gy)
        vmax = radius + r1
        wmax = 1.5 * radius ** 2 + r1 * vmax + abs(gz) + 0.5 * r1 * r1
        theta = rng.uniform(0.0, math.pi, size=n)
        v = rng.uniform(-vmax, vmax, size=n)
        w = rng.uniform(-wmax, wmax, size=n)
        # shift each line by center^{-1} and test against the origin ball
        cos, sin = np.cos(theta), np.sin(theta)
        a = -(cos * gx + sin * gy)
        b = -(-sin * gx + cos * gy)
        c = -gz
        v0 = v + b
        w0 = w + a * v + c + 0.5 * a * b
        p = float(np.mean(line_ball_distance(v0, w0) <= radius))
        vol = math.pi * 2.0 * vmax * 2.0 * wmax
    return vol * p, vol * math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass(frozen=True)
class CalibrationResult:
    ratio: float
    se: float
    expected: float

    @property
    def zscore(self) -> float:
        return (self.ratio - self.expected) / self.se


class CalibrationError(ValueError):
    """A radius met no line or every line: too few lines to calibrate."""


def calibrate_ratio(r_small: float = 1.0, r_big: float = 2.0,
                    n: int = 200_000, seed: int = 0) -> CalibrationResult:
    """Ratio of hit measures for two radii; should equal the cubed ratio."""
    m1, s1 = line_measure_of_ball(r_small, n, seed)
    m2, s2 = line_measure_of_ball(r_big, n, seed + 1)
    for radius, m, s in ((r_small, m1, s1), (r_big, m2, s2)):
        if s == 0.0:  # it met no line (m = 0) or every line
            raise CalibrationError(
                f"radius {radius:g} met {'every' if m else 'no'} line of {n}: "
                "no spread in its hit fraction")
    ratio = m2 / m1
    se = ratio * math.sqrt((s1 / m1) ** 2 + (s2 / m2) ** 2)
    return CalibrationResult(ratio, se, (r_big / r_small) ** 3)


# ---------------------------------------------------------------------------
# crossings by scan: one scan and one bisection for closed-form surfaces

_REACH = 50.0  # every line's t-window lies inside [-_REACH, _REACH]
_CHUNK = 4096  # lines per kernel call, which bounds the kernels' memory


def _line_points(theta, v, w, ts):
    """Points rot_theta(t, v, w - v t/2) at parameters ts (broadcast)."""
    cos, sin = np.cos(theta), np.sin(theta)
    return np.stack([ts * cos - v * sin, ts * sin + v * cos,
                     w - 0.5 * v * ts], axis=-1)


def _windows(surface, theta, v):
    """Per-line t-intervals where |x(t)| <= x_max, padded by 1e-3 and kept
    inside the reach.  x(t) is linear in t, so the inside set is one
    interval and sign changes on it are all transversal hits.
    """
    xm = surface.x_max
    cos, sin = np.cos(theta), np.sin(theta)
    steep = np.abs(cos) < 1e-9
    safe = np.where(steep, 1.0, cos)
    lo = (-xm + v * sin) / safe
    hi = (xm + v * sin) / safe
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    lo = np.where(steep, -_REACH, np.maximum(lo, -_REACH) - 1e-3)
    hi = np.where(steep, _REACH, np.minimum(hi, _REACH) + 1e-3)
    # steep lines with |x| beyond the strip never cross it
    miss = steep & (np.abs(v * sin) > xm)
    hi = np.where(miss, lo, hi)
    return lo, hi


def _scan(offset_fn, theta, v, w, lo, hi, n_scan):
    """Offsets at n_scan points of each window [lo, hi], chunk by chunk.

    Yields (slice, ts, offsets, changes), changes marking the grid cells
    whose ends have opposite nonzero signs.  The grid starts slightly off
    the window's ends so that it does not land exactly on surface points.
    """
    grid = np.linspace(0.0, 1.0, n_scan) + 1.738e-9
    for start in range(0, len(theta), _CHUNK):
        sl = slice(start, start + _CHUNK)
        ts = lo[sl, None] + (hi[sl] - lo[sl])[:, None] * grid
        F = np.asarray(offset_fn(_line_points(
            theta[sl, None], v[sl, None], w[sl, None], ts)))
        s = np.sign(F)
        yield sl, ts, F, s[:, :-1] * s[:, 1:] < 0


def _bisect(offset_fn, theta, v, w, brackets, length):
    """Roots of the sign-change brackets (line, a, b, offset at a), in their
    order: all bisected together, one offset call per step, to
    max(1e-10, 1e-14 length) with ``length`` the window length of each line.
    """
    line, a, b, fa = map(np.concatenate, zip(*brackets))
    tol = np.maximum(1e-10, 1e-14 * length)[line]
    live = np.nonzero(b - a > tol)[0]
    while live.size:
        m = 0.5 * (a[live] + b[live])
        k = line[live]
        fm = np.asarray(offset_fn(_line_points(theta[k], v[k], w[k], m)))
        hit = fm == 0.0
        left = ~hit & ((fm < 0) == (fa[live] < 0))
        a[live] = np.where(left | hit, m, a[live])
        b[live] = np.where(left, b[live], m)
        fa[live] = np.where(left, fm, fa[live])
        live = live[b[live] - a[live] > tol[live]]
    return line, 0.5 * (a + b)


#: No bracket: the empty start of a bracket list.
_NO_BRACKET = (np.empty(0, dtype=int), np.empty(0), np.empty(0), np.empty(0))


def _crossings(surface, theta, v, w, n_scan):
    """(counts, roots in line order, degenerate) of the lines (theta, v, w).

    The brackets of the scan are bisected (`_bisect`).  Roots with
    |x| > x_max are dropped; a line's roots closer than 1e-8 (times a
    window length above 1) merge, flagging the line degenerate (grazing
    contact).
    """
    offset_fn = surface.membership_offset
    lo, hi = _windows(surface, theta, v)
    brackets = [_NO_BRACKET]
    for sl, ts, F, changes in _scan(offset_fn, theta, v, w, lo, hi, n_scan):
        row, col = np.nonzero(changes & (hi[sl] > lo[sl])[:, None])
        brackets.append((row + sl.start, ts[row, col], ts[row, col + 1],
                         F[row, col]))
    line, root = _bisect(offset_fn, theta, v, w, brackets, hi - lo)
    inside = np.abs(_line_points(theta[line], v[line], w[line], root)[:, 0]) \
        <= surface.x_max
    line, root = line[inside], root[inside]
    return _merge(line, root, 1e-8 * np.maximum(1.0, np.abs(hi - lo))[line],
                  len(theta))


def _merge(line, root, eps, n_lines):
    """(counts, kept roots, degenerate) of roots sorted within each line.

    A root within eps of the last kept root of its line merges into it and
    flags the line degenerate (a grazing contact).  Only a root close to
    its predecessor can merge into the last kept one (j), which a merge
    leaves in place.
    """
    keep = np.ones(len(root), dtype=bool)
    close = (line[1:] == line[:-1]) & (np.abs(np.diff(root)) <= eps[1:])
    for i in np.nonzero(close)[0] + 1:
        j = i - 1 if keep[i - 1] else j
        keep[i] = abs(root[i] - root[j]) > eps[i]
    return (np.bincount(line[keep], minlength=n_lines), root[keep],
            np.bincount(line[~keep], minlength=n_lines) > 0)


# ---------------------------------------------------------------------------
# exact crossings of piecewise-polynomial surfaces

#: Points of a line closer than this (times max(1, |t|)) form one cluster.
_NEAR = 1e-12


def _near(t):
    return _NEAR * np.maximum(1.0, np.abs(t))


def _line_polys(theta, v, w):
    """x, y and z along the lines as polynomials in t (strips' convention)."""
    cos, sin, zero = np.cos(theta), np.sin(theta), np.zeros_like(theta)
    return (np.stack([-v * sin, cos, zero], axis=-1),
            np.stack([v * cos, sin, zero], axis=-1),
            np.stack([w, -0.5 * v, zero], axis=-1))


def _normalized(c):
    """Polynomials divided by their largest coefficient: same roots and
    signs, and no overflow in the discriminant or in Horner's rule."""
    scale = np.max(np.abs(c), axis=-1, keepdims=True)
    return c / np.where(scale > 0.0, scale, 1.0)


def _horner(c, t):
    return c[..., 0] + t * (c[..., 1] + t * c[..., 2])


def _poly_roots(c):
    """Real roots of c0 + c1 t + c2 t^2 in two slots, NaN where missing.

    The stable quadratic formula: q = -(c1 + sign(c1) sqrt(disc))/2 and the
    roots q/c2 and c0/q, so a linear polynomial keeps only -c0/c1, a
    constant none, and a double root is returned twice.
    """
    c0, c1, c2 = c[..., 0], c[..., 1], c[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        roots = np.stack([q / c2, np.where(q == 0.0, q / c2, c0 / q)], -1)
    return np.where(np.isfinite(roots), roots, np.nan)


def _cut_steps(cuts, roots):
    """Change in the number of nonnegative cuts at each of their roots.

    A quadratic's two roots step by -s, then +s in root order, with s the
    sign of its t^2 coefficient, so a double root nets zero.  A lone root
    (a linear cut, or a quadratic whose other root overflowed) steps by
    the sign of the slope there.
    """
    s = np.sign(cuts[..., 2])
    first = np.where(roots[..., 0] <= roots[..., 1], -s, s)
    pair = np.stack([first, -first], axis=-1)
    with np.errstate(invalid="ignore"):
        lone = np.sign(cuts[..., 1, None] + 2.0 * cuts[..., 2, None] * roots)
    steps = np.where(np.isnan(roots).any(axis=-1, keepdims=True), lone, pair)
    return np.where(np.isnan(roots), 0, steps).astype(int)


def _window(x, x_max):
    """The t-interval of each line where |x| <= x_max (empty: lo >= hi).

    Along a line with constant x it is the whole line or empty, as the
    infinite quotients say.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = (-x_max - x[:, 0]) / x[:, 1], (x_max - x[:, 0]) / x[:, 1]
    return np.minimum(a, b), np.maximum(a, b)


def _interior_point(lo, hi):
    """A point of each interval (lo, hi), ends possibly infinite."""
    lo_in, hi_in = np.isfinite(lo), np.isfinite(hi)
    lo0, hi0 = np.where(lo_in, lo, 0.0), np.where(hi_in, hi, 0.0)
    return np.where(lo_in & hi_in, 0.5 * (lo0 + hi0),
                    np.where(lo_in, lo0 + 1.0, np.where(hi_in, hi0 - 1.0, 0.0)))


def _intervals(cuts, pieces):
    """Sorted cut roots of each line (missing ones NaN, last) and, for each
    interval [lo, hi) they bound, its piece, normalized.

    The piece of the first interval is the number of cuts nonnegative left
    of every root, and each root steps it (`_cut_steps`), so an interval
    too short to hold a float still gets its piece.
    """
    n = len(cuts)
    cuts = _normalized(cuts)
    ends = _poly_roots(cuts)
    steps = _cut_steps(cuts, ends).reshape(n, -1)
    ends = ends.reshape(n, -1)
    width = int(np.max(np.count_nonzero(~np.isnan(ends), axis=1)))
    order = np.argsort(ends, axis=1)[:, :width]
    ends = np.take_along_axis(ends, order, axis=1)
    steps = np.take_along_axis(steps, order, axis=1)
    t0 = np.nan_to_num(np.concatenate([ends, np.full((n, 1), np.nan)],
                                      axis=1)[:, :1] - 1.0)
    piece = np.count_nonzero(_horner(cuts, t0) >= 0.0, axis=1)[:, None] \
        + np.cumsum(np.concatenate([np.zeros((n, 1), dtype=int), steps],
                                   axis=1), axis=1)
    return ends, _normalized(np.take_along_axis(pieces, piece[..., None],
                                                axis=1))


def _piece_crossings(x, cuts, pieces, x_max):
    """(line, root, grazing) of every contact of the lines with |x| <= x_max.

    The candidates are the cut roots and each piece's roots in its interval
    (to `_NEAR`), inside the window; candidates closer than `_NEAR` form one
    cluster.  The pieces are the offset times a positive factor, so the
    offset's sign is read from them between clusters, away from every
    root.  A cluster is a crossing where that sign changes across it, and
    a grazing contact where the sign is the same on both sides but two
    piece roots meet in it (a double root, or two pieces touching zero at
    their boundary).  A crossing at a piece boundary, or inside pieces too
    short for floats, is one sign change; where the offset is zero on one
    side (the line lies in the surface there) the cluster is no contact.
    """
    n = len(x)
    ends, coef = _intervals(cuts, pieces)
    bounds = np.where(np.isnan(ends), np.inf, ends)
    lo = np.concatenate([np.full((n, 1), -np.inf), bounds], axis=1)[..., None]
    hi = np.concatenate([bounds, np.full((n, 1), np.inf)], axis=1)[..., None]
    roots = _poly_roots(coef)
    near = (roots >= lo - np.where(np.isfinite(lo), _near(lo), 0.0)) \
        & (roots <= hi + np.where(np.isfinite(hi), _near(hi), 0.0))
    t = np.concatenate([ends, np.where(near, roots, np.nan).reshape(n, -1)],
                       axis=1)
    is_root = np.arange(t.shape[1]) >= ends.shape[1]
    # the candidates inside the window, as one flat list in line order
    t_lo, t_hi = _window(x, x_max)
    ok = (t > t_lo[:, None]) & (t < t_hi[:, None])
    line = np.broadcast_to(np.arange(n)[:, None], t.shape)[ok]
    t, is_root = t[ok], np.broadcast_to(is_root, ok.shape)[ok]
    if not len(t):
        return line, t, is_root
    order = np.lexsort((t, line))
    line, t, is_root = line[order], t[order], is_root[order]
    starts = np.flatnonzero(np.concatenate([
        [True], (line[1:] != line[:-1]) | (t[1:] - t[:-1] > _near(t[1:]))]))
    c_line, c_first = line[starts], t[starts]
    c_last = t[np.concatenate([starts[1:], [len(t)]]) - 1]
    n_roots = np.add.reduceat(is_root.astype(int), starts)
    root = np.minimum.reduceat(np.where(is_root, t, np.inf), starts)
    root = np.where(n_roots > 0, root, c_first)
    same = c_line[1:] == c_line[:-1]
    left = np.where(np.concatenate([[False], same]),
                    np.concatenate([[np.nan], c_last[:-1]]), t_lo[c_line])
    right = np.where(np.concatenate([same, [False]]),
                     np.concatenate([c_first[1:], [np.nan]]), t_hi[c_line])

    def sign(at):
        j = np.count_nonzero(ends[c_line] <= at[:, None], axis=1)
        return np.sign(_horner(coef[c_line, j], at))

    change = (sign(_interior_point(left, c_first))
              * sign(_interior_point(c_last, right)))
    grazing = (change > 0.0) & (n_roots >= 2)
    keep = (change < 0.0) | grazing
    return c_line[keep], root[keep], grazing[keep]


def _cut_crossings(surface, theta, v, w):
    """(counts, roots of the lines crossing twice or more, degenerate) of a
    surface whose line pieces are cuts alone (pieces None).

    Between consecutive cut roots the offset changes sign at most once, so
    a line's count is the number of sign changes of the offset at its
    window's ends (|x| <= x_max) and the cut roots inside.  Only the lines
    counted twice or more are bisected (`_bisect`); their roots closer
    than 1e-8 (times a window length above 1) merge, flagging the line
    degenerate, and a line merged down to one crossing keeps no root.
    """
    counts = np.zeros(len(theta), dtype=int)
    length = np.zeros(len(theta))
    brackets = [_NO_BRACKET]
    for start in range(0, len(theta), _CHUNK):
        sl = slice(start, start + _CHUNK)
        x, y, z = _line_polys(theta[sl], v[sl], w[sl])
        cuts, _ = surface.line_pieces(x, y, z)
        lo, hi = _window(x, surface.x_max)
        t = _poly_roots(_normalized(cuts)).reshape(len(x), -1)
        t = np.where((t > lo[:, None]) & (t < hi[:, None]), t, hi[:, None])
        t = np.sort(np.concatenate([lo[:, None], t, hi[:, None]], axis=1))
        F = np.asarray(surface.membership_offset(_line_points(
            theta[sl, None], v[sl, None], w[sl, None], t)))
        sign = np.sign(F)
        change = sign[:, :-1] * sign[:, 1:] < 0
        counts[sl] = np.count_nonzero(change, axis=1)
        length[sl] = hi - lo
        row, col = np.nonzero(change & (counts[sl] > 1)[:, None])
        brackets.append((row + start, t[row, col], t[row, col + 1],
                         F[row, col]))
    line, root = _bisect(surface.membership_offset, theta, v, w, brackets,
                         length)
    merged, roots, degenerate = _merge(
        line, root, 1e-8 * np.maximum(1.0, length)[line], len(theta))
    multi = counts > 1
    counts[multi] = merged[multi]
    return counts, roots[np.repeat(merged > 1, merged)], degenerate


def _exact_crossings(surface, theta, v, w):
    """(counts, roots in line order, degenerate) from the surface's line
    pieces.

    The crossings are exact, over |x| <= x_max with no padding and no
    reach (`_piece_crossings`).  A crossing on a piece boundary counts once;
    a grazing contact counts as one and flags the line degenerate, as do
    roots closer than 1e-8, which merge.
    """
    parts = []
    for start in range(0, len(theta), _CHUNK):
        sl = slice(start, start + _CHUNK)
        x, y, z = _line_polys(theta[sl], v[sl], w[sl])
        line, root, grazing = _piece_crossings(
            x, *surface.line_pieces(x, y, z), surface.x_max)
        parts.append((line + start, root, grazing))
    line, root, grazing = map(np.concatenate, zip(*parts))
    counts, roots, degenerate = _merge(line, root, np.full(len(root), 1e-8),
                                       len(theta))
    return counts, roots, degenerate | (np.bincount(
        line[grazing], minlength=len(theta)) > 0)


class LineCrossings(NamedTuple):
    count: int
    roots: tuple[float, ...]
    degenerate: bool


def crossings(surface, line: LineSample,
              n_scan: int = 1024) -> LineCrossings:
    """Transversal crossings of one line: the scan kernel on its own.

    Sign changes of the membership offset on an n_scan grid over the
    line's window (|x| <= x_max, padded by 1e-3), bisected to 1e-10, kept
    where |x| <= x_max; roots closer than 1e-8 merge and flag the line
    degenerate (a grazing contact).
    """
    count, roots, degenerate = _crossings(
        surface, *np.array([[line.theta], [line.v], [line.w]]), n_scan)
    return LineCrossings(int(count[0]), tuple(roots.tolist()),
                         bool(degenerate[0]))


def crossing_counts(surface, theta, v, w, n_scan: int) -> np.ndarray:
    """Grid sign-change counts for a batch of lines given as arrays.

    The crossing kernel's scan alone, without refinement or the extent
    filter: the census's first count of a surface with no line pieces (the
    strip of a closed-form sigma other than arctan).
    """
    theta, v, w = (np.asarray(a, dtype=float) for a in (theta, v, w))
    lo, hi = _windows(surface, theta, v)
    counts = np.zeros(len(theta), dtype=int)
    for sl, _, _, changes in _scan(surface.membership_offset, theta, v, w,
                                   lo, hi, n_scan):
        counts[sl] = np.count_nonzero(changes, axis=1)
    return counts


@dataclass(frozen=True)
class CrossingReport:
    """Census of crossing counts over sampled lines, reproducible by seed."""

    n_lines: int
    seed: int
    radius: float
    histogram: dict[int, int]
    violations: tuple[tuple[LineSample, tuple[float, ...]], ...]
    degenerate_lines: int = 0
    count_method: str = "scan"

    @property
    def max_crossings(self) -> int:
        return max(self.histogram) if self.histogram else 0

    @property
    def passed(self) -> bool:
        return self.max_crossings <= 1


#: Census scan points per line, re-count points and witnesses reported.
_CENSUS_SCAN, _CENSUS_RECOUNT, _WITNESSES = 400, 800, 8


def monotonicity_check(surface, radius: float = 1.5, n: int = 400,
                       seed: int = 0) -> CrossingReport:
    """Crossing-count census over random lines meeting a gauge ball.

    Accepts a slope profile (realized as a strip of half-width 1) or any
    surface with a membership offset.  A surface with line pieces is
    counted exactly over |x| <= x_max (count method "exact"): the pieces of
    a PWL strip, a broken plane or the sigma-rho slab of a PWL rho are
    solved for every line at once (`_exact_crossings`), and the strip of an
    arctan profile or the slab of a closed-form rho is counted from the
    offset's signs at its cuts (`_cut_crossings`).  Otherwise (a
    closed-form sigma other than arctan, or a surface with no line pieces)
    `crossing_counts` scans every line at 400 points, and the lines it
    counts twice or more are re-counted by one kernel call at 800 points
    (count method "scan").  Lines still crossing twice are the witnesses;
    the first 8 are reported.  Grazing contacts are merged away and never
    counted as violations.
    """
    if isinstance(surface, Profile):
        surface = strip_surface(surface)
    theta, v, w = sample_lines(radius, n, seed)
    found = surface.line_pieces(*_line_polys(theta[:1], v[:1], w[:1]))
    if found is None:
        counts = crossing_counts(surface, theta, v, w, n_scan=_CENSUS_SCAN)
        multi = np.nonzero(counts > 1)[0]
        refined, roots, degenerate = _crossings(
            surface, theta[multi], v[multi], w[multi], _CENSUS_RECOUNT)
        counts[multi] = refined
        roots = roots[np.repeat(refined > 1, refined)]
    elif found[1] is None:
        counts, roots, degenerate = _cut_crossings(surface, theta, v, w)
    else:
        counts, roots, degenerate = _exact_crossings(surface, theta, v, w)
        roots = roots[np.repeat(counts > 1, counts)]
    bins, sizes = np.unique(counts, return_counts=True)
    multi = np.nonzero(counts > 1)[0]
    per_line = np.split(roots, np.cumsum(counts[multi])[:-1])
    bad = tuple((LineSample(float(theta[i]), float(v[i]), float(w[i])),
                 tuple(r.tolist()))
                for i, r in zip(multi, per_line))
    return CrossingReport(n, seed, radius,
                          dict(zip(bins.tolist(), sizes.tolist())),
                          bad[:_WITNESSES], int(np.sum(degenerate)),
                          "scan" if found is None else "exact")


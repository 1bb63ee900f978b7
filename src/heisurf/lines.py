"""Horizontal lines as a measured family, and crossing statistics.

Every non-vertical-direction horizontal line is rot_theta of a base line
{(t, v, w - v t/2)}; the chart (theta, v, w) with theta in [0, pi) carries
the measure dtheta dv dw, which left translation and rotation preserve (the
induced (v, w) maps are shears).  The measure of the lines meeting a gauge
ball of radius r therefore scales exactly like r^3; both facts are backed
by Monte-Carlo tests rather than taken on faith.

Along a line x, y and z are affine in t, and |x| <= x_max is one window
of t (`_window`).  Crossings are the sign changes of the membership offset
read along that window by one reader (`_sign_readings`), and one step
(`_count_crossings`) counts them, bisects the brackets of the lines
counted often enough, drops roots outside the window and merges grazing
pairs.  Every surface the census takes hands it cuts along a batch of
lines (`line_cuts`): polynomials in t of degree <= 2 between whose roots
the offset changes sign at most once.  A strip none of whose slopes turns
the offset on the slab hands the one cut x; only a strip with a turning
slope adds its knot and turn cuts.  Reading the offset at the window's
ends and beside each cut root counts the crossings exactly
(`_count_crossings` with ``least=2``), the census's only count, and only
the lines counted twice or more are bisected.  Each chunk of lines has its
polynomials, cut roots and reading points built once, and the bisection
gathers its bracket lines once, not once a step.  The scan behind
`crossings` and `crossing_counts` reads a grid over the window padded by
1e-3 and clamped to |t| <= 50, so crossings of near-steep lines beyond
that are missed.  Both see only transversal intersections; the census
reads `membership_offset`, `x_max` and `line_cuts`, the scan the first two.
A graphical strip with slopes in [-2, 2) meets almost every horizontal
line at most once; surfaces carrying a horizontal shortcut chord are met
twice, and the census in `monotonicity_check` finds such lines.  The
parameter t is plane arclength, so steep and shallow directions are
handled identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def line_measure_of_ball(radius: float, n: int, seed: int = 0):
    """Monte-Carlo measure of the lines meeting B(0, r), with SE."""
    rng = np.random.default_rng(seed)
    _, v, w = _sample_box(radius, n, rng)
    p = float(np.mean(line_ball_distance(v, w) <= radius))
    vol = box_volume(radius)
    return vol * p, vol * math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass(frozen=True)
class CalibrationResult:
    ratio: float
    se: float
    expected: float

    @property
    def zscore(self) -> float:
        return (self.ratio - self.expected) / self.se


class CalibrationError(ValueError, ArithmeticError):
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
# crossings: one sign reader and one count step, read exactly beside a
# surface's cuts or on a grid

# The scan of `crossings` and `crossing_counts`, never the census, clamps
# every line's window to [-_REACH, _REACH], so it misses the crossings of a
# near-steep line (window about 2 x_max / |cos theta| long) beyond that.
_REACH = 50.0
_CHUNK = 4096  # lines per kernel call, which bounds the kernels' memory

#: The census reads the offset this far (times max(1, |t|)) on each side of
#: a cut root, so crossings closer than that to a root count as one.
_NEAR = 1e-12


def _near(t):
    return _NEAR * np.maximum(1.0, np.abs(t))


def _points(cos, sin, v, w, ts):
    """Points rot_theta(t, v, w - v t/2) at parameters ts (broadcast) of
    the lines whose direction (cos theta, sin theta) is (cos, sin)."""
    x = ts * cos - v * sin
    out = np.empty(x.shape + (3,))
    out[..., 0] = x
    out[..., 1] = ts * sin + v * cos
    out[..., 2] = w - 0.5 * v * ts
    return out


def _line_polys(theta, v, w):
    """x, y and z along the lines as polynomials in t (strips' convention):
    the slopes of x and y are cos theta and sin theta."""
    cos, sin = np.cos(theta), np.sin(theta)
    x, y, z = np.zeros((3,) + np.shape(theta) + (3,))
    x[..., 0], x[..., 1] = -v * sin, cos
    y[..., 0], y[..., 1] = v * cos, sin
    z[..., 0], z[..., 1] = w, -0.5 * v
    return x, y, z


def _normalized(c):
    """Polynomials divided by their largest coefficient: same roots and
    signs, and no overflow in the discriminant."""
    a = np.abs(c)
    scale = np.maximum(np.maximum(a[..., 0], a[..., 1]), a[..., 2])
    return c / np.where(scale > 0.0, scale, 1.0)[..., None]


def _poly_roots(c):
    """Real roots of c0 + c1 t + c2 t^2 in two slots, NaN where missing.

    The stable quadratic formula: q = -(c1 + sign(c1) sqrt(disc))/2 and the
    roots q/c2 and c0/q, so a linear polynomial keeps only -c0/c1, a
    constant none, and a double root is returned twice.
    """
    c0, c1, c2 = c[..., 0], c[..., 1], c[..., 2]
    roots = np.empty(c.shape[:-1] + (2,))
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        roots[..., 0] = q / c2
        roots[..., 1] = np.where(q == 0.0, roots[..., 0], c0 / q)
    roots[~np.isfinite(roots)] = np.nan
    return roots


def _window(x, x_max):
    """The t-interval [lo, hi] of each line where |x| <= x_max.

    x is linear in t, with slope cos theta, which is never 0 for a float
    theta (cos(pi/2) rounds to 6.1e-17): the window is finite on every
    line, if very long on a near-steep one.
    """
    a, b = (-x_max - x[:, 0]) / x[:, 1], (x_max - x[:, 0]) / x[:, 1]
    return np.minimum(a, b), np.maximum(a, b)


def _readings(lo, hi, roots):
    """Sorted points of each line's window [lo, hi] at which the offset's
    sign is read: the window's ends and, `_near` away on both sides, each
    cut root inside it (clipped to the window)."""
    lo, hi = lo[:, None], hi[:, None]
    inside = (roots > lo) & (roots < hi)
    width = int(np.max(np.count_nonzero(inside, axis=1)))
    # the roots inside first, in order; the columns no line fills go
    roots = np.sort(np.where(inside, roots, np.inf), axis=1)[:, :width]
    live = np.isfinite(roots)
    roots = np.where(live, roots, hi)
    near = _near(roots)
    t = np.concatenate([lo, np.where(live, roots - near, lo), roots + near,
                        hi], axis=1)
    return np.sort(np.clip(t, lo, hi), axis=1)


def _sign_readings(surface, theta, v, w, n_scan=None):
    """The membership offset's signs along the lines, _CHUNK lines a call.

    Yields (slice, (lo, hi), t, F, changes): the lines' windows, the
    sorted parameters t at which the offset F is read, and ``changes``
    marking the consecutive readings of opposite nonzero signs.  With
    n_scan None the reading is exact: between consecutive cut roots
    (`line_cuts`) the offset changes sign at most once, so t is the
    window's ends and both sides of each root (`_readings`).  Otherwise
    it is a scan: the window is clamped to |t| <= _REACH (a window wholly
    beyond comes out reversed, lo > hi) and t is an n_scan grid from 1e-3
    before it to 1e-3 past it, started slightly off the ends so that it
    does not land exactly on surface points.
    """
    for start in range(0, len(theta), _CHUNK):
        sl = slice(start, start + _CHUNK)
        x, y, z = _line_polys(theta[sl], v[sl], w[sl])
        cos, sin = x[:, 1:2], y[:, 1:2]
        lo, hi = _window(x, surface.x_max)
        if n_scan is None:
            roots = _poly_roots(_normalized(surface.line_cuts(x, y, z)))
            t = _readings(lo, hi, roots.reshape(len(x), -1))
        else:
            lo, hi = np.maximum(lo, -_REACH), np.minimum(hi, _REACH)
            a, b = lo - 1e-3, hi + 1e-3
            grid = np.linspace(0.0, 1.0, n_scan) + 1.738e-9
            t = a[:, None] + (b - a)[:, None] * grid
        F = np.asarray(surface.membership_offset(
            _points(cos, sin, v[sl, None], w[sl, None], t)))
        sign = np.sign(F)
        yield sl, (lo, hi), t, F, sign[:, :-1] * sign[:, 1:] < 0


def _wide(a, b):
    """Is the bracket [a, b] wider than max(1e-10, 1e-14 max(|a|, |b|))?"""
    return b - a > np.maximum(1e-10, 1e-14 * np.maximum(np.abs(a), np.abs(b)))


def _bisect(offset_fn, theta, v, w, brackets):
    """Roots of the sign-change brackets (line, a, b, offset at a), in their
    order: all bisected together, one offset call per step, until each is
    no wider than max(1e-10, 1e-14 max(|a|, |b|)) at its current ends
    (`_wide`), a tolerance that follows the root, not the window.  The
    direction and chart of each bracket's line are gathered once.
    """
    line, a, b, fa = map(np.concatenate, zip(*brackets))
    cos, sin, v, w = np.cos(theta[line]), np.sin(theta[line]), v[line], w[line]
    live = np.nonzero(_wide(a, b))[0]
    while live.size:
        m = 0.5 * (a[live] + b[live])
        fm = np.asarray(offset_fn(
            _points(cos[live], sin[live], v[live], w[live], m)))
        hit = fm == 0.0
        left = ~hit & ((fm < 0) == (fa[live] < 0))
        a[live] = np.where(left | hit, m, a[live])
        b[live] = np.where(left, b[live], m)
        fa[live] = np.where(left, fm, fa[live])
        live = live[_wide(a[live], b[live])]
    return line, 0.5 * (a + b)


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


def _count_crossings(surface, theta, v, w, n_scan=None, least=1):
    """(counts, roots of the lines crossing ``least`` times or more,
    degenerate) of the lines (theta, v, w).

    A line's count is its number of sign changes (`_sign_readings`, exact
    with n_scan None, else a scan).  The lines counted ``least`` times or
    more are bisected (`_bisect`) and recounted: their roots outside the
    window are dropped, and roots closer than 1e-8 (times their magnitude
    above 1) merge, flagging the line degenerate (a grazing contact).  The
    merge distance follows the roots, not the window: the window of a
    near-steep line or of a wide strip is long, and crossings O(1) apart
    on it stay two.  A line recounted below ``least`` keeps no root.
    """
    counts = np.zeros(len(theta), dtype=int)
    lo, hi = np.zeros(len(theta)), np.zeros(len(theta))
    brackets = [(np.empty(0, dtype=int),) + (np.empty(0),) * 3]
    for sl, window, t, F, changes in _sign_readings(surface, theta, v, w,
                                                    n_scan):
        lo[sl], hi[sl] = window
        counts[sl] = np.count_nonzero(changes, axis=1)
        row, col = np.nonzero(changes & (counts[sl] >= least)[:, None])
        brackets.append((row + sl.start, t[row, col], t[row, col + 1],
                         F[row, col]))
    line, root = _bisect(surface.membership_offset, theta, v, w, brackets)
    inside = (root >= lo[line]) & (root <= hi[line])
    line, root = line[inside], root[inside]
    merged, roots, degenerate = _merge(
        line, root, 1e-8 * np.maximum(1.0, np.abs(root)), len(theta))
    recounted = counts >= least
    counts[recounted] = merged[recounted]
    return counts, roots[np.repeat(merged >= least, merged)], degenerate


class LineCrossings(NamedTuple):
    count: int
    roots: tuple[float, ...]
    degenerate: bool


def crossings(surface, line: LineSample,
              n_scan: int = 1024) -> LineCrossings:
    """Transversal crossings of one line, scanned at n_scan points.

    `_count_crossings` of the line's window (|x| <= x_max) clamped to
    |t| <= 50, so crossings of a near-steep line beyond that are missed:
    roots bisected to max(1e-10, 1e-14 |root|), 1e-10 there, and closer
    than 1e-8 (times their magnitude above 1) merged, flagging the line
    degenerate (a grazing contact).
    """
    count, roots, degenerate = _count_crossings(
        surface, *np.array([[line.theta], [line.v], [line.w]]), n_scan)
    return LineCrossings(int(count[0]), tuple(roots.tolist()),
                         bool(degenerate[0]))


def crossing_counts(surface, theta, v, w, n_scan: int) -> np.ndarray:
    """Sign-change counts of the scan at n_scan points per line, for a
    batch of lines given as arrays.

    The sign changes of `_sign_readings` alone, without the bisection,
    the recount inside the window or the merge; no census reads it.  Like
    `crossings` it misses crossings of near-steep lines beyond |t| = 50.
    """
    theta, v, w = (np.asarray(a, dtype=float) for a in (theta, v, w))
    counts = np.zeros(len(theta), dtype=int)
    for sl, _, _, _, changes in _sign_readings(surface, theta, v, w, n_scan):
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

    @property
    def max_crossings(self) -> int:
        return max(self.histogram) if self.histogram else 0

    @property
    def passed(self) -> bool:
        return self.max_crossings <= 1


_WITNESSES = 8  #: witnesses reported


def monotonicity_check(surface, radius: float = 1.5, n: int = 400,
                       seed: int = 0) -> CrossingReport:
    """Crossing-count census over random lines meeting a gauge ball.

    Accepts a slope profile (realized as a strip of half-width 1) or any
    surface with a membership offset and line cuts.  Every line is counted
    exactly over |x| <= x_max from the offset's signs beside its cuts
    (`_count_crossings` with ``least=2``); a strip whose cuts are unknown
    (`GraphicalStrip.line_cuts`) raises `ProfileError`.  Lines crossing
    twice or more are the witnesses; only the first 8 are built and
    reported.  Grazing
    contacts are merged away and never counted as violations.
    """
    if isinstance(surface, Profile):
        surface = strip_surface(surface)
    theta, v, w = sample_lines(radius, n, seed)
    counts, roots, degenerate = _count_crossings(surface, theta, v, w,
                                                 least=2)
    bins, sizes = np.unique(counts, return_counts=True)
    multi = np.nonzero(counts > 1)[0][:_WITNESSES]
    per_line = np.split(roots, np.cumsum(counts[multi]))
    bad = tuple((LineSample(float(theta[i]), float(v[i]), float(w[i])),
                 tuple(r.tolist()))
                for i, r in zip(multi, per_line))
    return CrossingReport(n, seed, radius,
                          dict(zip(bins.tolist(), sizes.tolist())),
                          bad, int(np.sum(degenerate)))

"""Horizontal lines as a measured family, and crossing statistics.

Every non-vertical-direction horizontal line is rot_theta of a base line
{(t, v, w - v t/2)}; the chart (theta, v, w) with theta in [0, pi) carries
the measure dtheta dv dw, which left translation and rotation preserve (the
induced (v, w) maps are shears).  The measure of the lines meeting a gauge
ball of radius r therefore scales exactly like r^3; both facts are backed
by Monte-Carlo tests rather than taken on faith.

Crossing counts against a surface are sign changes of a membership offset
along the line, so they see only transversal intersections.  A graphical
strip with slopes in [-2, 2) meets almost every horizontal line at most
once; surfaces carrying a horizontal shortcut chord are met twice, and the
census in `monotonicity_check` finds such lines.  The parameter t is plane
arclength, so steep and shallow directions are handled identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import rotate_arr
from .strips import Profile, strip_surface

__all__ = [
    "LineSample",
    "line_ball_distance",
    "box_volume",
    "sample_lines",
    "line_measure_of_ball",
    "CalibrationResult",
    "calibrate_ratio",
    "LineCrossings",
    "crossings",
    "crossing_counts",
    "CrossingReport",
    "monotonicity_check",
    "relative_perimeter",
    "perimeter_estimate",
]


@dataclass(frozen=True)
class LineSample:
    """Horizontal line rot_theta{(t, v, w - v t/2)}, theta in [0, pi)."""

    theta: float
    v: float
    w: float

    def points_at(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        base = np.stack(np.broadcast_arrays(
            ts, self.v + 0.0 * ts, self.w - 0.5 * self.v * ts), axis=-1)
        return rotate_arr(self.theta, base)


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
    test of translation invariance, not an algebraic identity.
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


def calibrate_ratio(r_small: float = 1.0, r_big: float = 2.0,
                    n: int = 200_000, seed: int = 0) -> CalibrationResult:
    """Ratio of hit measures for two radii; should equal the cubed ratio."""
    m1, s1 = line_measure_of_ball(r_small, n, seed)
    m2, s2 = line_measure_of_ball(r_big, n, seed + 1)
    ratio = m2 / m1
    se = ratio * math.sqrt((s1 / m1) ** 2 + (s2 / m2) ** 2)
    return CalibrationResult(ratio, se, (r_big / r_small) ** 3)


# ---------------------------------------------------------------------------
# crossings


def _offset_and_inside(surface):
    if isinstance(surface, tuple):
        offset_fn, inside_fn = surface
        return offset_fn, inside_fn
    if hasattr(surface, "membership_offset"):
        offset_fn = surface.membership_offset
        xm = getattr(surface, "x_max", None)
        if xm is None:
            return offset_fn, None
        return offset_fn, lambda pts: np.abs(pts[..., 0]) <= xm
    raise TypeError(f"cannot count crossings against {type(surface).__name__}")


def _window_bounds(theta, v, xm, reach):
    """Per-line t-interval with |x(t)| <= xm, clipped to [-reach, reach].

    x(t) is linear in t, so the inside set is a single interval and sign
    changes between consecutive window samples are all transversal hits.
    """
    cos, sin = np.cos(theta), np.sin(theta)
    steep = np.abs(cos) < 1e-9
    safe = np.where(steep, 1.0, cos)
    lo = (-xm + v * sin) / safe
    hi = (xm + v * sin) / safe
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    lo = np.where(steep, -reach, np.maximum(lo, -reach) - 1e-3)
    hi = np.where(steep, reach, np.minimum(hi, reach) + 1e-3)
    # steep lines with |x| beyond the strip never cross it
    miss = steep & (np.abs(v * sin) > xm)
    hi = np.where(miss, lo, hi)
    return lo, hi


class LineCrossings(NamedTuple):
    count: int
    roots: tuple[float, ...]
    degenerate: bool


def crossings(surface, line: LineSample,
              t_window: Optional[tuple[float, float]] = None,
              n_scan: int = 1024, reach: float = 50.0) -> LineCrossings:
    """Transversal crossings of the line with the surface.

    Counts sign changes of the membership offset along the line, refines
    each bracket by bisection to 1e-10, and keeps roots where the point
    lies inside the surface's extent.  Roots closer than 1e-8 are merged
    and the result flagged degenerate (a grazing contact).
    """
    offset_fn, inside_fn = _offset_and_inside(surface)
    if t_window is None:
        xm = getattr(surface, "x_max", None)
        if xm is not None:
            lo, hi = _window_bounds(np.array(line.theta), np.array(line.v),
                                    xm, reach)
            t_window = (float(lo), float(hi))
        else:
            t_window = (-reach, reach)
    t0, t1 = t_window
    if not t1 > t0:
        return LineCrossings(0, (), False)
    # offset grid start slightly to avoid landing exactly on surface points
    ts = np.linspace(t0, t1, n_scan) + 1.738e-9 * (t1 - t0)
    F = np.asarray(offset_fn(line.points_at(ts)))
    sign = np.sign(F)
    nz = sign != 0
    idx = np.nonzero(nz[:-1] & nz[1:] & (sign[:-1] * sign[1:] < 0))[0]
    tol = max(1e-10, 1e-14 * (t1 - t0))
    roots = []
    for i in idx:
        a, b = ts[i], ts[i + 1]
        fa = float(F[i])
        while b - a > tol:
            m = 0.5 * (a + b)
            fm = float(offset_fn(line.points_at(np.array(m))))
            if fm == 0.0:
                a = b = m
                break
            if (fm < 0) == (fa < 0):
                a, fa = m, fm
            else:
                b = m
        root = 0.5 * (a + b)
        if inside_fn is None or bool(np.all(inside_fn(line.points_at(np.array(root))))):
            roots.append(float(root))
    merged = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-8 * max(1.0, abs(t1 - t0)):
            merged.append(r)
    return LineCrossings(len(merged), tuple(merged), len(merged) < len(roots))


def crossing_counts(surface, theta, v, w, n_scan: int = 256,
                    reach: float = 50.0, chunk: int = 4096) -> np.ndarray:
    """Vectorized crossing counts for a batch of lines given as arrays.

    Counts grid sign changes without root refinement; adequate for census
    statistics where only the count matters.  Requires the surface to have
    a finite x extent (x_max) so each line meets it in one t-interval.
    """
    offset_fn, _ = _offset_and_inside(surface)
    xm = getattr(surface, "x_max", None)
    if xm is None:
        raise TypeError("bulk counting needs a surface with x_max")
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    counts = np.zeros(theta.shape[0], dtype=int)
    grid = np.linspace(0.0, 1.0, n_scan) + 1.738e-9
    for start in range(0, theta.shape[0], chunk):
        sl = slice(start, min(start + chunk, theta.shape[0]))
        th, vv, ww = theta[sl], v[sl], w[sl]
        lo, hi = _window_bounds(th, vv, xm, reach)
        ts = lo[:, None] + (hi - lo)[:, None] * grid[None, :]
        cos, sin = np.cos(th)[:, None], np.sin(th)[:, None]
        x = ts * cos - vv[:, None] * sin
        y = ts * sin + vv[:, None] * cos
        z = ww[:, None] - 0.5 * vv[:, None] * ts
        F = np.asarray(offset_fn(np.stack([x, y, z], axis=-1)))
        s = np.sign(F)
        counts[sl] = np.sum((s[:, :-1] * s[:, 1:] < 0)
                            & (s[:, :-1] != 0) & (s[:, 1:] != 0), axis=1)
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


def monotonicity_check(surface, radius: float = 1.5, n: int = 400,
                       seed: int = 0, n_scan: int = 400, x_max: float = 1.0,
                       max_violations: int = 8) -> CrossingReport:
    """Crossing-count census over random lines meeting a gauge ball.

    Accepts a slope profile (realized as a strip of the given half-width)
    or any surface with a membership offset.  Lines crossing twice or more
    are refined and recorded as violation witnesses; grazing contacts are
    merged away and never counted as violations.
    """
    if isinstance(surface, Profile):
        surface = strip_surface(surface, x_max=x_max)
    theta, v, w = sample_lines(radius, n, seed)
    counts = crossing_counts(surface, theta, v, w, n_scan=n_scan)
    hist: dict[int, int] = {}
    bad: list[tuple[LineSample, tuple[float, ...]]] = []
    degenerate = 0
    for c in counts:
        hist[int(c)] = hist.get(int(c), 0) + 1
    for i in np.nonzero(counts > 1)[0]:
        line = LineSample(float(theta[i]), float(v[i]), float(w[i]))
        refined = crossings(surface, line, n_scan=max(n_scan, 800))
        if refined.degenerate:
            degenerate += 1
        if refined.count > 1 and len(bad) < max_violations:
            bad.append((line, refined.roots))
        elif refined.count <= 1:
            # the coarse census overcounted a grazing contact; fix the bin
            hist[int(counts[i])] -= 1
            if hist[int(counts[i])] == 0:
                del hist[int(counts[i])]
            hist[refined.count] = hist.get(refined.count, 0) + 1
    return CrossingReport(n, seed, radius, dict(sorted(hist.items())),
                          tuple(bad), degenerate)


def relative_perimeter(surface_e, surface_f, radius: float, n: int = 20_000,
                       seed: int = 0, n_scan: int = 256):
    """Mean crossing counts of two surfaces against one shared line sample.

    Returns ((mean_e, se_e), (mean_f, se_f)).  The kinematic formula makes
    each mean proportional to the surface's perimeter inside the ball with
    a common constant, so the comparison needs no normalization; sharing
    the sample makes equal surfaces compare exactly equal.
    """
    rng = np.random.default_rng(seed)
    theta, v, w = _sample_box(radius, n, rng)
    out = []
    for surface in (surface_e, surface_f):
        counts = crossing_counts(surface, theta, v, w, n_scan=n_scan,
                                 reach=2.5 * radius)
        out.append((float(np.mean(counts)),
                    float(np.std(counts)) / math.sqrt(n)))
    return out[0], out[1]


def perimeter_estimate(surface, radius: float, n: int = 20_000,
                       seed: int = 0, n_scan: int = 512):
    """Absolute perimeter inside the sampling box via the crossing formula.

    Empirically, in this chart normalization the line measure of crossings
    equals twice the perimeter (validated against the flat disk, whose
    perimeter is pi/3), giving (est, se) = box volume x mean count / 2.
    The surface must effectively lie inside the gauge ball of the given
    radius for the estimate to be its total perimeter.
    """
    rng = np.random.default_rng(seed)
    theta, v, w = _sample_box(radius, n, rng)
    counts = np.zeros(n)
    reach = 2.5 * radius
    for i in range(n):
        line = LineSample(float(theta[i]), float(v[i]), float(w[i]))
        counts[i] = crossings(surface, line, t_window=(-reach, reach),
                              n_scan=n_scan).count
    scale = box_volume(radius) / 2.0
    est = scale * float(np.mean(counts))
    se = scale * float(np.std(counts)) / math.sqrt(n)
    return est, se

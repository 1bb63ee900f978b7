"""Composite midpoint quadrature with dyadic Richardson refinement.

All area/energy integrals in this package run through these two routines so
the refinement contract lives in one place: double the node count per level,
extrapolate the O(h^2) midpoint error, stop when consecutive extrapolants
agree to the requested relative tolerance, and fail loudly (carrying the last
two estimates) instead of returning a stale value.

Regions are vertically convex: an x interval plus per-column bounds
lo(x) <= t <= hi(x).  Columns with hi <= lo contribute nothing, which makes
cusped regions (wedges, disks) exact at the boundary instead of stair-stepped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["QuadratureError", "QuadConfig", "VRegion", "integrate_1d", "integrate_region"]


class QuadratureError(RuntimeError, ArithmeticError):
    """Raised when refinement fails to converge; carries the last two estimates."""

    def __init__(self, message: str, estimates: tuple[float, float]):
        super().__init__(f"{message} (last estimates {estimates[0]!r}, {estimates[1]!r})")
        self.estimates = estimates


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-5
    max_levels: int = 22
    n0: int = 8


#: An integral smaller than _ABS_FLOOR / rel_tol converges to this absolute error.
_ABS_FLOOR = 1e-12


DEFAULT_1D = QuadConfig()
DEFAULT_2D = QuadConfig(max_levels=10, n0=4)


def _refine(sums: Callable[[int], float], cfg: QuadConfig, what: str) -> float:
    prev_raw = None
    prev_ext = None
    for level in range(cfg.max_levels + 1):
        raw = sums(level)
        if prev_raw is not None:
            ext = raw + (raw - prev_raw) / 3.0  # midpoint error is O(h^2)
            if prev_ext is not None:
                scale = max(abs(ext), _ABS_FLOOR / cfg.rel_tol)
                if abs(ext - prev_ext) <= cfg.rel_tol * scale:
                    return ext
            prev_ext = ext
        prev_raw = raw
    raise QuadratureError(
        f"{what}: no convergence after {cfg.max_levels} refinement levels",
        (prev_ext if prev_ext is not None else prev_raw, prev_raw),
    )


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadConfig = DEFAULT_1D,
    knots: Sequence[float] = (),
) -> float:
    """Integrate a vectorized integrand over [a, b].

    Optional interior knots split the interval so each piece is smooth and the
    Richardson step keeps its full order across derivative breaks.
    """
    if not (b > a):
        return 0.0
    cuts = [a] + sorted(t for t in set(float(k) for k in knots) if a < t < b) + [b]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        def sums(level: int, lo=lo, hi=hi) -> float:
            n = cfg.n0 * (1 << level)
            t = lo + (hi - lo) * (np.arange(n) + 0.5) / n
            return float(np.sum(f(t))) * (hi - lo) / n

        total += _refine(sums, cfg, "integrate_1d")
    return total


@dataclass(frozen=True)
class VRegion:
    """Vertically convex region {x0 <= x <= x1, lo(x) <= t <= hi(x)}."""

    x0: float
    x1: float
    lo: Callable[[np.ndarray], np.ndarray]
    hi: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def rect(x0: float, x1: float, t0: float, t1: float) -> "VRegion":
        return VRegion(
            x0, x1,
            lambda x: np.full_like(x, float(t0)),
            lambda x: np.full_like(x, float(t1)),
        )

    def bounds(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.lo(x), dtype=float)
        hi = np.asarray(self.hi(x), dtype=float)
        return lo, np.maximum(hi, lo)

    def contains(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        inside_x = (x >= self.x0) & (x <= self.x1)
        lo = np.asarray(self.lo(np.clip(x, self.x0, self.x1)), dtype=float)
        hi = np.asarray(self.hi(np.clip(x, self.x0, self.x1)), dtype=float)
        return inside_x & (t >= lo) & (t <= hi)

    def diagonal(self) -> float:
        xs = np.linspace(self.x0, self.x1, 129)
        lo, hi = self.bounds(xs)
        height = float(np.max(hi) - np.min(lo))
        return float(np.hypot(self.x1 - self.x0, height))


def integrate_region(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    region: VRegion,
    cfg: QuadConfig = DEFAULT_2D,
) -> float:
    """Integrate f(x, t) over a vertically convex region.

    Midpoint rule in both directions with column-adapted bounds; dyadic
    refinement shared by the two directions.
    """
    if not (region.x1 > region.x0):
        return 0.0

    def sums(level: int) -> float:
        n = cfg.n0 * (1 << level)
        x = region.x0 + (region.x1 - region.x0) * (np.arange(n) + 0.5) / n
        lo, hi = region.bounds(x)
        heights = hi - lo
        frac = (np.arange(n) + 0.5) / n
        # t grid: shape (n_x, n_t), each column stretched to its own bounds
        t = lo[:, None] + heights[:, None] * frac[None, :]
        vals = f(np.broadcast_to(x[:, None], t.shape), t)
        col = np.sum(vals, axis=1) * heights / n
        return float(np.sum(col)) * (region.x1 - region.x0) / n

    empty_probe = np.linspace(region.x0, region.x1, 65)
    lo, hi = region.bounds(empty_probe)
    if np.all(hi - lo <= 0.0):
        return 0.0
    return _refine(sums, cfg, "integrate_region")

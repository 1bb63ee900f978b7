"""Ruled surface patches swept by horizontal segments.

A patch is given by two endpoint curves A(w), B(w); the surface point at
(w, s) is (1-s) A(w) + s B(w).  When every chord A(w) -> B(w) is horizontal
the segment itself is horizontal, and with h_t = z_t - (x y_t - y x_t)/2
(dual pairing of the w-tangent with the contact form) the perimeter is

    Per = int int |h_t(w, s)| * |(x_B - x_A, y_B - y_A)| ds dw.

If no ruling is vertical the patch projects to the plane {y = 0} as an
intrinsic graph whose gradient along a ruling is the ruling's plane slope
m = dy/dx, so the graph Dirichlet energy is (1/2) int int m^2 |x_B - x_A|
|h_t| ds dw.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import chord_offset_arr
from .quadrature import DEFAULT_2D, QuadConfig, VRegion, integrate_region

__all__ = ["RuledSurface", "strip_patch"]

_FD_H = 1e-6


@dataclass(frozen=True)
class RuledSurface:
    """Horizontally ruled patch between two endpoint curves.

    a, b map an array of parameters to points of shape (..., 3); da, db are
    optional exact derivatives (finite differences otherwise).  knots lists
    parameter values where the endpoint curves kink: integration splits
    there, and difference stencils never straddle a kink.
    """

    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    w_range: tuple[float, float]
    knots: tuple[float, ...] = ()
    da: Optional[Callable[[np.ndarray], np.ndarray]] = None
    db: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        w0, w1 = map(float, self.w_range)
        if not w1 > w0:
            raise ValueError("empty parameter range")
        object.__setattr__(self, "w_range", (w0, w1))
        ks = tuple(sorted(float(k) for k in self.knots if w0 < k < w1))
        object.__setattr__(self, "knots", ks)

    # -- geometry -----------------------------------------------------------

    def point(self, w, s) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        s = np.asarray(s, dtype=float)[..., None]
        A = np.asarray(self.a(w), dtype=float)
        B = np.asarray(self.b(w), dtype=float)
        return (1.0 - s) * A + s * B

    def horizontality_residual(self, n: int = 400) -> float:
        w0, w1 = self.w_range
        w = np.linspace(w0, w1, n)
        A = np.asarray(self.a(w), dtype=float)
        B = np.asarray(self.b(w), dtype=float)
        return float(np.max(np.abs(chord_offset_arr(A, B))))

    def _edges(self) -> list[tuple[float, float]]:
        cuts = [self.w_range[0], *self.knots, self.w_range[1]]
        return list(zip(cuts[:-1], cuts[1:]))

    def _derivatives(self, w: np.ndarray, lo: float, hi: float):
        if self.da is not None and self.db is not None:
            return (np.asarray(self.da(w), dtype=float),
                    np.asarray(self.db(w), dtype=float))
        h = np.minimum(_FD_H * (1.0 + np.abs(w)),
                       0.45 * np.minimum(w - lo, hi - w))
        h = h[..., None]
        dA = (np.asarray(self.a(w + h[..., 0]), dtype=float)
              - np.asarray(self.a(w - h[..., 0]), dtype=float)) / (2.0 * h)
        dB = (np.asarray(self.b(w + h[..., 0]), dtype=float)
              - np.asarray(self.b(w - h[..., 0]), dtype=float)) / (2.0 * h)
        return dA, dB

    def _density(self, w, s, lo, hi, weight):
        A = np.asarray(self.a(w), dtype=float)
        B = np.asarray(self.b(w), dtype=float)
        dA, dB = self._derivatives(w, lo, hi)
        sl = s[..., None]
        P = (1.0 - sl) * A + sl * B
        Pt = (1.0 - sl) * dA + sl * dB
        h_t = Pt[..., 2] - 0.5 * (P[..., 0] * Pt[..., 1]
                                  - P[..., 1] * Pt[..., 0])
        dx = B[..., 0] - A[..., 0]
        dy = B[..., 1] - A[..., 1]
        return np.abs(h_t) * weight(dx, dy)

    def area(self, cfg: QuadConfig = DEFAULT_2D) -> float:
        """Horizontal perimeter of the patch."""
        total = 0.0
        for lo, hi in self._edges():
            region = VRegion.rect(lo, hi, 0.0, 1.0)
            total += integrate_region(
                lambda w, s, lo=lo, hi=hi: self._density(
                    w, s, lo, hi, lambda dx, dy: np.hypot(dx, dy)),
                region, cfg)
        return total

    def intrinsic_energy(self, cfg: QuadConfig = DEFAULT_2D) -> float:
        """Dirichlet energy of the patch viewed as a graph over {y = 0}."""
        w0, w1 = self.w_range
        wprobe = np.linspace(w0, w1, 64)
        dx = np.asarray(self.b(wprobe), dtype=float)[..., 0] \
            - np.asarray(self.a(wprobe), dtype=float)[..., 0]
        if np.any(np.abs(dx) < 1e-12):
            raise ValueError("vertical ruling: patch is not a graph over the axis plane")

        def weight(dx, dy):
            return 0.5 * (dy / dx) ** 2 * np.abs(dx)

        total = 0.0
        for lo, hi in self._edges():
            region = VRegion.rect(lo, hi, 0.0, 1.0)
            total += integrate_region(
                lambda w, s, lo=lo, hi=hi: self._density(w, s, lo, hi, weight),
                region, cfg)
        return total


def strip_patch(strip, z_window: tuple[float, float],
                half: bool = False) -> RuledSurface:
    """Ruled patch of a strip over a height window.

    half=True sweeps only from the axis to the edge x = x_max; otherwise the
    patch spans the full width.
    """
    sigma = strip.sigma
    xm = strip.x_max
    z0, z1 = map(float, z_window)

    def right(z):
        z = np.asarray(z, dtype=float)
        v = np.asarray(sigma(z))
        return np.stack(np.broadcast_arrays(xm + 0.0 * z, xm * v, z), axis=-1)

    def dright(z):
        z = np.asarray(z, dtype=float)
        dv = np.asarray(sigma.derivative(z))
        return np.stack(np.broadcast_arrays(0.0 * z, xm * dv, 1.0 + 0.0 * z),
                        axis=-1)

    if half:
        left = lambda z: np.stack(
            np.broadcast_arrays(0.0 * np.asarray(z), 0.0 * np.asarray(z),
                                np.asarray(z, dtype=float)), axis=-1)
        dleft = lambda z: np.stack(
            np.broadcast_arrays(0.0 * np.asarray(z), 0.0 * np.asarray(z),
                                1.0 + 0.0 * np.asarray(z)), axis=-1)
    else:
        left = lambda z: right(z) * np.array([-1.0, -1.0, 1.0])
        dleft = lambda z: dright(z) * np.array([-1.0, -1.0, 1.0])

    knots = ()
    if hasattr(sigma, "w"):
        knots = tuple(float(k) for k in np.asarray(sigma.w))
    return RuledSurface(left, right, (z0, z1), knots=knots,
                        da=dleft, db=dright, name="strip-patch")

"""Intrinsic graphs over the vertical plane and their sub-Riemannian areas.

A scalar field f on V0 = {y = 0} (coordinates (x, z)) determines the graph
{ (x, 0, z) * (0, f(x,z), 0) }.  Its area over a region W is

    area = int_W sqrt(1 + (grad_f f)^2) dmu,   grad_f f = d_x f - f d_z f,

and the intrinsic Dirichlet energy replaces sqrt(1 + s^2) by s^2 / 2.  The
same machinery covers z-graphs z = phi(x, y), whose perimeter density is
|(phi_x + y/2, phi_y - x/2)|.

Derivatives are central finite differences.  The step shrinks per point (by
halving, floor 1e-9 * scale) so the stencil never leaves the integration
region: region boundaries are typically fold curves of the field, and a fixed
step would smear the derivative jump over an O(h) band.  Stencils are always
central; a point with no room for any central stencil raises DomainError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import DEFAULT_2D, QuadConfig, VRegion, integrate_region

__all__ = [
    "DomainError",
    "ScalarField",
    "intrinsic_gradient",
    "graph_area",
    "dirichlet_energy",
    "zgraph_area",
]


class DomainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# finite differences with shrink-to-fit central stencils

_H_REL = 1e-4
_H_FLOOR_REL = 1e-9


def _fit_step(
    inside: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    h0: float,
    hmin: float,
    axis: int,
) -> np.ndarray:
    """Largest per-point halving of h0 keeping a +-h central stencil inside."""
    h = np.full(np.shape(a), h0, dtype=float)

    def ok(hh: np.ndarray) -> np.ndarray:
        if axis == 0:
            return inside(a + hh, b) & inside(a - hh, b)
        return inside(a, b + hh) & inside(a, b - hh)

    good = ok(h)
    for _ in range(64):
        if good.all():
            return h
        shrink = ~good & (h > hmin)
        if not shrink.any():
            break
        h = np.where(shrink, 0.5 * h, h)
        good = ok(h)
    if not good.all():
        raise DomainError("boundary stencil")
    return h


def _central_partials(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    h0: float,
    inside: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hmin = h0 * (_H_FLOOR_REL / _H_REL)
    if inside is None:
        hx = np.full(x.shape, h0)
        hy = np.full(y.shape, h0)
    else:
        hx = _fit_step(inside, x, y, h0, hmin, axis=0)
        hy = _fit_step(inside, x, y, h0, hmin, axis=1)
    fx = (f(x + hx, y) - f(x - hx, y)) / (2.0 * hx)
    fy = (f(x, y + hy) - f(x, y - hy)) / (2.0 * hy)
    return fx, fy


# ---------------------------------------------------------------------------
# scalar fields


@dataclass
class ScalarField:
    """Closed-form scalar field on a rectangular window of V0.

    entire=True marks fields defined on all of V0 (evaluation outside the
    window is then allowed); region optionally restricts the domain to a
    vertically convex subset of the window.
    """

    window: tuple[float, float, float, float]
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    region: Optional[VRegion] = None
    entire: bool = False
    name: str = ""

    def __post_init__(self):
        x0, x1, z0, z1 = self.window
        if not (x1 > x0 and z1 > z0):
            raise ValueError("empty window")

    @staticmethod
    def from_function(fn, window, region=None, entire=False, name="") -> "ScalarField":
        return ScalarField(window=tuple(map(float, window)), fn=fn,
                           region=region, entire=entire, name=name)

    def default_region(self) -> VRegion:
        if self.region is not None:
            return self.region
        x0, x1, z0, z1 = self.window
        return VRegion.rect(x0, x1, z0, z1)

    def domain_contains(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        if self.entire:
            return np.ones(np.broadcast_shapes(np.shape(x), np.shape(z)), dtype=bool)
        x0, x1, z0, z1 = self.window
        ok = (x >= x0) & (x <= x1) & (z >= z0) & (z <= z1)
        if self.region is not None:
            ok &= self.region.contains(x, z)
        return ok

    def diagonal(self) -> float:
        x0, x1, z0, z1 = self.window
        return math.hypot(x1 - x0, z1 - z0)

    def __call__(self, x, z) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        return np.asarray(self.fn(x, z), dtype=float)


def intrinsic_gradient(
    field: ScalarField,
    x,
    z,
    h: Optional[float] = None,
    clip: Optional[VRegion] = None,
):
    """grad_f f = d_x f - f d_z f by central differences.

    clip (default: the field's domain) bounds the stencil; per-point steps
    shrink by halving so the stencil stays inside it.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    scalar_input = x.ndim == 0 and z.ndim == 0
    x, z = np.atleast_1d(x), np.atleast_1d(z)
    h0 = h if h is not None else _H_REL * field.diagonal()
    if field.entire and clip is None:
        inside = None
    elif clip is None:
        inside = field.domain_contains
    else:
        inside = lambda a, b: clip.contains(a, b) & field.domain_contains(a, b)
    fx, fz = _central_partials(field.__call__, x, z, h0, inside)
    out = fx - field(x, z) * fz
    return float(out[0]) if scalar_input else out


# ---------------------------------------------------------------------------
# area and energy


def _resolve_region(field: ScalarField, region: Optional[VRegion]) -> VRegion:
    return region if region is not None else field.default_region()


def graph_area(field: ScalarField, region: Optional[VRegion] = None) -> float:
    """Sub-Riemannian area of the intrinsic graph of f over the region."""
    reg = _resolve_region(field, region)

    def integrand(x, z):
        g = intrinsic_gradient(field, x, z, clip=reg)
        return np.sqrt(1.0 + g * g)

    return integrate_region(integrand, reg)


def dirichlet_energy(field: ScalarField, region: Optional[VRegion] = None) -> float:
    """Intrinsic Dirichlet energy (1/2) int (grad_f f)^2."""
    reg = _resolve_region(field, region)

    def integrand(x, z):
        g = intrinsic_gradient(field, x, z, clip=reg)
        return 0.5 * g * g

    return integrate_region(integrand, reg)


# ---------------------------------------------------------------------------
# z-graphs


def zgraph_area(
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
    region: VRegion,
    cfg: QuadConfig = DEFAULT_2D,
) -> float:
    """Perimeter of the z-graph z = phi(x, y) over a planar region.

    Integrand |(phi_x + y/2, phi_y - x/2)|; partials by central differences
    with the same shrink-to-fit stencil policy as intrinsic graphs.
    """
    h0 = _H_REL * region.diagonal()

    def integrand(x, y):
        px, py = _central_partials(phi, x, y, h0, region.contains)
        return np.hypot(px + 0.5 * y, py - 0.5 * x)

    return integrate_region(integrand, region, cfg)

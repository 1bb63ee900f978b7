"""Ruled deformations of graphical strips and their second variation.

A strip with graph profile alpha (value along the edge x = 1, parameter w)
has rulings at heights eta(w) = w + alpha(w)/2.  A deformation profile tau
tilts the rulings: with

    zeta(z) = z - tau(z)/2,   h = zeta^{-1} o eta,   delta = alpha - tau o h,

the deformed surface keeps its ruling at height eta(w) but changes its plane
slope to delta(w).  Its area over [a, b], normalized to the half-strip swept
from the axis to x = 1, is exactly

    A(tau) = int_a^b sqrt(1 + delta^2) eta'(w) dw
             - (1/6) [G(delta(b)) - G(delta(a))],

where G(m) = (m sqrt(1+m^2) + asinh m)/2 is the primitive of sqrt(1+m^2).
All steps are knot-exact for piecewise-linear profiles, so A evaluates to
machine precision and the tiny even residuals of the quadratic model are
measurable.  The quadratic term itself is

    II(tau) = int tau(eta(w))^2 (1 + alpha'(w)) / (1 + alpha(w)^2)^{3/2} dw,

with A(lam tau) + A(-lam tau) - 2 A(0) = lam^2 II(tau) + O(lam^4).  The
factor (1 + alpha') turns negative exactly when alpha' < -1, which is where
strips stop being graphical-minimizing.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .strips import ProfileError, PwlProfile, eta_of

__all__ = [
    "g_primitive",
    "zeta_profile",
    "delta_profile",
    "ruled_area_closed_form",
    "second_variation",
    "SecondVariationResult",
    "second_variation_experiment",
]

@functools.cache
def _gauss_legendre():
    """40-point Gauss-Legendre nodes and weights, built on first use."""
    return np.polynomial.legendre.leggauss(40)


def g_primitive(m):
    """G(m) = integral of sqrt(1+t^2) from 0 to m."""
    m = np.asarray(m, dtype=float)
    out = 0.5 * (m * np.sqrt(1.0 + m * m) + np.arcsinh(m))
    return out if out.ndim else float(out)


def zeta_profile(tau: PwlProfile) -> PwlProfile:
    """Height shift z -> z - tau(z)/2 of the deformation."""
    zeta = PwlProfile(tau.w, tau.w - tau.v / 2.0,
                      1.0 - tau.slope_left / 2.0,
                      1.0 - tau.slope_right / 2.0)
    if np.any(zeta.piece_slopes() <= 0):
        raise ProfileError("deformation too steep: slope of tau reaches 2")
    return zeta


def delta_profile(alpha: PwlProfile, tau: Optional[PwlProfile]) -> PwlProfile:
    """Deformed slope profile delta = alpha - tau(h(.)), h = zeta^{-1} o eta."""
    if tau is None:
        return alpha
    h = zeta_profile(tau).inverse().compose(eta_of(alpha))
    return alpha - tau.compose(h)


def ruled_area_closed_form(alpha: PwlProfile, tau: Optional[PwlProfile],
                           window: tuple[float, float]) -> float:
    """Exact half-strip area of the deformed surface over a w-window.

    Valid while the rulings sweep monotonically (the density eta' - s^2
    delta'/2 stays positive); a reversing sweep is refused.
    """
    a, b = map(float, window)
    if not b > a:
        raise ValueError("empty window")
    delta = delta_profile(alpha, tau)
    eta = eta_of(alpha)
    cuts = np.concatenate([[a], delta.w[(delta.w > a) & (delta.w < b)], [b]])
    total = 0.0
    for w0, w1 in zip(cuts[:-1], cuts[1:]):
        d0 = float(delta(w0))
        d1 = float(delta(w1))
        mid = 0.5 * (w0 + w1)
        ep = float(eta.derivative(mid))
        g = (d1 - d0) / (w1 - w0)
        if g > 2.0 * ep:
            raise ProfileError("ruling sweep reverses: deformation too large")
        if abs(d1 - d0) < 1e-8 * (1.0 + abs(d0)):
            dm = 0.5 * (d0 + d1)
            total += ep * math.sqrt(1.0 + dm * dm) * (w1 - w0)
        else:
            total += ep * (g_primitive(d1) - g_primitive(d0)) / g
    total -= (g_primitive(float(delta(b))) - g_primitive(float(delta(a)))) / 6.0
    return total


# ---------------------------------------------------------------------------
# second variation


def _auto_window(alpha: PwlProfile, tau: PwlProfile) -> tuple[float, float]:
    if tau.slope_left != 0 or tau.slope_right != 0 or tau.v[0] != 0 or \
            tau.v[-1] != 0:
        raise ProfileError(
            "deformation must be compactly supported to choose a window")
    eta = eta_of(alpha)
    if np.any(eta.piece_slopes() < 0):
        raise ProfileError("graph profile slopes below -2 are not supported")
    ends = [eta.preimage(float(v)) for v in (tau.w[0], tau.w[-1])]
    if None in ends:
        raise ProfileError("height map does not reach the requested level")
    pad = 1.0 + float(np.max(np.abs(tau.v)))
    lo = min(ends[0], float(alpha.w[0]))
    hi = max(ends[1], float(alpha.w[-1]))
    return lo - pad, hi + pad


def second_variation(alpha: PwlProfile, tau: PwlProfile,
                     window: Optional[tuple[float, float]] = None) -> float:
    """Quadratic coefficient II(tau) of the deformed-area expansion."""
    if window is None:
        window = _auto_window(alpha, tau)
    a, b = map(float, window)
    eta = eta_of(alpha)
    cuts = {a, b}
    cuts.update(float(w) for w in alpha.w if a < w < b)
    # split where eta crosses a knot of tau, so tau(eta(.)) stays linear
    base = np.unique(np.concatenate([[a], alpha.w[(alpha.w > a) & (alpha.w < b)],
                                     [b]]))
    for w0, w1 in zip(base[:-1], base[1:]):
        e0, e1 = float(eta(w0)), float(eta(w1))
        for v in tau.w:
            if (e0 - v) * (e1 - v) < 0:
                cuts.add(w0 + (v - e0) / (e1 - e0) * (w1 - w0))
    cuts = np.array(sorted(cuts))
    gl_nodes, gl_weights = _gauss_legendre()
    total = 0.0
    for w0, w1 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (w0 + w1)
        slope = float(alpha.derivative(mid))
        nodes = mid + 0.5 * (w1 - w0) * gl_nodes
        weights = 0.5 * (w1 - w0) * gl_weights
        avals = np.asarray(alpha(nodes))
        tvals = np.asarray(tau(np.asarray(eta(nodes))))
        total += float(np.sum(
            weights * tvals ** 2 * (1.0 + slope)
            / (1.0 + avals ** 2) ** 1.5))
    return total


# ---------------------------------------------------------------------------
# the numerical experiment


@dataclass(frozen=True)
class SecondVariationResult:
    lambdas: tuple[float, ...]
    delta_areas: tuple[float, ...]
    second_variation: float
    quadratic_fit: float
    quartic_fit: float
    residual_order: float
    window: tuple[float, float]

    def consistent(self, rel_tol: float = 1e-4) -> bool:
        """The quadratic fit matches II to rel_tol and the fitted residual
        order is at least 2.7."""
        ref = max(abs(self.second_variation), 1e-12)
        return (abs(self.quadratic_fit - self.second_variation) <= rel_tol * ref
                and self.residual_order >= 2.7)


def second_variation_experiment(
    alpha: PwlProfile,
    tau: PwlProfile,
    window: Optional[tuple[float, float]] = None,
    lambdas: Sequence[float] = (0.02, 0.04, 0.06, 0.08),
) -> SecondVariationResult:
    """Compare exact deformed areas against the quadratic model.

    For each lam, the symmetrized excess A(lam tau) + A(-lam tau) - 2 A(0)
    is computed exactly; it should match lam^2 II(tau).  For smooth height
    maps the residual is even O(lam^4), so the fitted residual order is near
    4 and the quadratic fit is accurate to ~1e-6.  Profiles whose sweep
    plateaus (slope exactly -2 somewhere, e.g. the fan edge of a broken
    plane) contribute an odd |lam|^3 residual instead: the order drops to
    about 3 and the fitted coefficient carries an O(max lam) bias of a few
    percent, so callers should gate them via consistent(rel_tol=0.05).
    """
    if window is None:
        window = _auto_window(alpha, tau)
    window = (float(window[0]), float(window[1]))
    ii = second_variation(alpha, tau, window)
    base = ruled_area_closed_form(alpha, None, window)
    lambdas = tuple(float(l) for l in lambdas)
    deltas = np.asarray([ruled_area_closed_form(alpha, tau * lam, window)
                         + ruled_area_closed_form(alpha, tau * -lam, window)
                         - 2.0 * base for lam in lambdas])
    lam2 = np.asarray(lambdas) ** 2
    design = np.stack([lam2, lam2 ** 2], axis=-1)
    (c2, c4), *_ = np.linalg.lstsq(design, deltas, rcond=None)
    residuals = np.abs(deltas - lam2 * ii)
    residuals = np.maximum(residuals, 1e-300)
    order = float(np.polyfit(np.log(lambdas), np.log(residuals), 1)[0])
    return SecondVariationResult(
        lambdas=lambdas,
        delta_areas=tuple(float(d) for d in deltas),
        second_variation=float(ii),
        quadratic_fit=float(c2),
        quartic_fit=float(c4),
        residual_order=order,
        window=window,
    )

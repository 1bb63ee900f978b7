"""Ruled surface patches swept by horizontal segments.

A patch joins two boundary curves, each given as data (x, c, f, g): the
curve w -> (x, c f(w), g(w)) at a constant abscissa x, with f and g
profiles.  The surface point at (w, s) is (1-s) A(w) + s B(w).  The
w-tangents (0, c f'(w), g'(w)) come from the profiles' derivatives, and
the quadrature splits at the profiles' knots (`Profile.knots`).  When
every chord A(w) -> B(w) is horizontal the segment itself is horizontal,
and with h_t = z_t - (x y_t - y x_t)/2 (dual pairing of the
w-tangent with the contact form) the perimeter is

    Per = int int |h_t(w, s)| * |(x_B - x_A, y_B - y_A)| ds dw.

If no ruling is vertical (x_A != x_B) the patch projects to the plane
{y = 0} as an intrinsic graph whose gradient along a ruling is the
ruling's plane slope m = dy/dx, so the graph Dirichlet energy is
(1/2) int int m^2 |x_B - x_A| |h_t| ds dw.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import chord_offset_arr
from .quadrature import VRegion, integrate_region
from .strips import CallableProfile, Profile

__all__ = ["IDENTITY", "RuledSurface", "strip_patch"]

#: The profile w -> w, with no knot: the height of a curve swept at unit
#: speed in z.
IDENTITY = CallableProfile(lambda w: w, dfn=np.ones_like, name="id")

#: Boundary curve w -> (x, c f(w), g(w)) as the data (x, c, f, g).
Curve = tuple[float, float, Profile, Profile]


def _curve(end: Curve, w, tangent: bool = False) -> np.ndarray:
    """Points (or w-tangents) of a boundary curve, shape (..., 3)."""
    x, c, f, g = end
    if tangent:
        x, f, g = 0.0, f.derivative, g.derivative
    w = np.asarray(w, dtype=float)
    return np.stack(np.broadcast_arrays(
        np.full_like(w, x), c * np.asarray(f(w)), np.asarray(g(w))), axis=-1)


@dataclass(frozen=True)
class RuledSurface:
    """Horizontally ruled patch between two boundary curves (x, c, f, g).

    ``knots`` (derived) lists the knots of the profiles of either curve
    inside the parameter range: integration splits there.
    """

    left: Curve
    right: Curve
    w_range: tuple[float, float]
    knots: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        w0, w1 = map(float, self.w_range)
        if not w1 > w0:
            raise ValueError("empty parameter range")
        object.__setattr__(self, "w_range", (w0, w1))
        ks = {float(k) for _, _, f, g in (self.left, self.right)
              for p in (f, g) for k in p.knots if w0 < k < w1}
        object.__setattr__(self, "knots", tuple(sorted(ks)))

    # -- geometry -----------------------------------------------------------

    def point(self, w, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)[..., None]
        return (1.0 - s) * _curve(self.left, w) + s * _curve(self.right, w)

    def horizontality_residual(self) -> float:
        w = np.linspace(*self.w_range, 400)
        return float(np.max(np.abs(chord_offset_arr(
            _curve(self.left, w), _curve(self.right, w)))))

    def _density(self, w, s, weight):
        A, B = _curve(self.left, w), _curve(self.right, w)
        dA = _curve(self.left, w, tangent=True)
        dB = _curve(self.right, w, tangent=True)
        sl = s[..., None]
        P = (1.0 - sl) * A + sl * B
        Pt = (1.0 - sl) * dA + sl * dB
        h_t = Pt[..., 2] - 0.5 * (P[..., 0] * Pt[..., 1]
                                  - P[..., 1] * Pt[..., 0])
        dx = B[..., 0] - A[..., 0]
        dy = B[..., 1] - A[..., 1]
        return np.abs(h_t) * weight(dx, dy)

    def _integrate(self, weight) -> float:
        cuts = [self.w_range[0], *self.knots, self.w_range[1]]
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            total += integrate_region(
                lambda w, s: self._density(w, s, weight),
                VRegion.rect(lo, hi, 0.0, 1.0))
        return total

    def area(self) -> float:
        """Horizontal perimeter of the patch."""
        return self._integrate(np.hypot)

    def intrinsic_energy(self) -> float:
        """Dirichlet energy of the patch viewed as a graph over {y = 0}."""
        if self.left[0] == self.right[0]:
            raise ValueError("vertical ruling: patch is not a graph over the axis plane")
        return self._integrate(
            lambda dx, dy: 0.5 * (dy / dx) ** 2 * np.abs(dx))


def strip_patch(strip, z_window: tuple[float, float]) -> RuledSurface:
    """Ruled patch of a strip over a height window, across its full width."""
    xm = strip.x_max
    return RuledSurface((-xm, -xm, strip.sigma, IDENTITY),
                        (xm, xm, strip.sigma, IDENTITY), z_window)

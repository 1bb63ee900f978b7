"""Heisenberg group arithmetic: product, Koranyi metric, projection, symmetries.

The group is R^3 with product

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x y' - y x')/2)

so the z axis is the center.  Left-invariant horizontal frame:
X = (1, 0, -y/2), Y = (0, 1, x/2).  A horizontal line is a left coset
p * <X + m Y>.

The *_arr kernels accept numpy arrays of shape (..., 3) and are the one
implementation of the group law.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "mul_arr",
    "inv_arr",
    "norm_arr",
    "project_arr",
    "chord_offset_arr",
    "dilate_arr",
]


# ---------------------------------------------------------------------------
# array kernels


def mul_arr(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Group product for (..., 3) arrays."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), dtype=float)
    out[..., 0] = p[..., 0] + q[..., 0]
    out[..., 1] = p[..., 1] + q[..., 1]
    out[..., 2] = (
        p[..., 2]
        + q[..., 2]
        + 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0])
    )
    return out


def inv_arr(p: np.ndarray) -> np.ndarray:
    return -np.asarray(p, dtype=float)


def norm_arr(p: np.ndarray) -> np.ndarray:
    """Koranyi norm ((x^2 + y^2)^2 + z^2)^(1/4)."""
    p = np.asarray(p, dtype=float)
    r2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return (r2 * r2 + p[..., 2] ** 2) ** 0.25


def project_arr(p: np.ndarray) -> np.ndarray:
    """Vertical-coset projection to V0: (x, y, z) -> (x, z - x y / 2)."""
    p = np.asarray(p, dtype=float)
    out = np.empty(p.shape[:-1] + (2,), dtype=float)
    out[..., 0] = p[..., 0]
    out[..., 1] = p[..., 2] - 0.5 * p[..., 0] * p[..., 1]
    return out


def chord_offset_arr(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """z component of p^-1 q; zero iff q lies in the horizontal plane of p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return (
        q[..., 2]
        - p[..., 2]
        - 0.5
        * (
            p[..., 0] * (q[..., 1] - p[..., 1])
            - p[..., 1] * (q[..., 0] - p[..., 0])
        )
    )


def dilate_arr(a: float, b: float, p: np.ndarray) -> np.ndarray:
    """Automorphism (x, y, z) -> (a x, b y, a b z); a = b = t scales the metric by t."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    out[..., 0] = a * p[..., 0]
    out[..., 1] = b * p[..., 1]
    out[..., 2] = a * b * p[..., 2]
    return out

"""Triangle meshes of realized surfaces and Wavefront OBJ export.

Meshes are deterministic: vertices come from structured grids traversed in
a fixed row-major order, numbers are written with 17 significant digits,
and the same inputs always produce byte-identical ``.obj`` text.  Files
contain only comment, ``v`` and ``f`` records, with 1-based face indices
and the group z coordinate up.

Graph patches are tessellated over mapped grids ``(x, t) -> (x, y(x, t))``
so the footprint may have curved upper/lower edges; columns where the
footprint pinches to a point produce collapsed cells whose zero-area
triangles are dropped, keeping the mesh valid at wedge corners.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .reports import atomic_write_text

__all__ = [
    "DegenerateMeshError",
    "MeshObj",
    "mesh_from_mapped_grid",
    "mesh_from_graph",
    "mesh_from_ruled",
    "merge_meshes",
    "strip_mesh",
    "broken_plane_mesh",
    "competitor_mesh",
    "write_obj",
]

# triangles whose area is below this fraction of the squared bounding-box
# diagonal count as degenerate
_DEGENERATE_REL = 1e-12


def _triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    a = vertices[faces[:, 0] - 1]
    b = vertices[faces[:, 1] - 1]
    c = vertices[faces[:, 2] - 1]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=-1)


def _degenerate_faces(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Mask of the faces below _DEGENERATE_REL of the squared diagonal.

    The vertices are first scaled by the power of two that brings the
    largest coordinate into [0.5, 1).  That scaling is exact, so the mask
    is the unscaled one, but neither the diagonal nor an area can overflow
    however large the (finite) coordinates are.
    """
    top = float(np.max(np.abs(vertices), initial=0.0))
    v = np.ldexp(vertices, -math.frexp(top)[1])
    diagonal = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
    return _triangle_areas(v, faces) <= _DEGENERATE_REL * diagonal * diagonal


class DegenerateMeshError(ValueError):
    """A mesh with a (numerically) zero-area triangle."""


@dataclass(frozen=True, eq=False)
class MeshObj:
    """Triangle mesh with provenance comments and validated topology."""

    vertices: np.ndarray
    faces: np.ndarray
    header: tuple[str, ...] = ()

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        f = np.asarray(self.faces, dtype=int).reshape(-1, 3)
        if not np.all(np.isfinite(v)):
            raise ValueError("mesh vertices must be finite")
        if f.size and (f.min() < 1 or f.max() > len(v)):
            raise ValueError("face index out of range")
        if f.size and np.any(_degenerate_faces(v, f)):
            raise DegenerateMeshError("degenerate (zero-area) triangle in mesh")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        object.__setattr__(self, "header",
                           tuple(str(line) for line in self.header))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def triangle_areas(self) -> np.ndarray:
        return _triangle_areas(self.vertices, self.faces)

    def edge_use_counts(self) -> dict[tuple[int, int], int]:
        """How many faces use each undirected edge (1-based indices)."""
        counts: dict[tuple[int, int], int] = {}
        for i, j, k in self.faces:
            for a, b in ((i, j), (j, k), (k, i)):
                key = (min(a, b), max(a, b))
                counts[key] = counts.get(key, 0) + 1
        return counts

    def boundary_edges(self) -> list[tuple[int, int]]:
        return [e for e, c in self.edge_use_counts().items() if c == 1]

    def to_obj_text(self) -> str:
        return ("".join(f"# {line}\n" for line in self.header)
                + ("v %.17g %.17g %.17g\n" * self.n_vertices
                   % tuple(self.vertices.ravel().tolist()))
                + ("f %d %d %d\n" * self.n_faces
                   % tuple(self.faces.ravel().tolist())))


# ---------------------------------------------------------------------------
# structured grids


def _grid_faces(nu: int, nv: int) -> np.ndarray:
    """Two triangles per cell of an (nu+1) x (nv+1) vertex grid, 1-based."""
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    v00 = i * (nv + 1) + j + 1
    v01 = v00 + 1
    v10 = v00 + (nv + 1)
    v11 = v10 + 1
    lower = np.stack([v00, v10, v11], axis=-1).reshape(-1, 3)
    upper = np.stack([v00, v11, v01], axis=-1).reshape(-1, 3)
    faces = np.empty((2 * nu * nv, 3), dtype=int)
    faces[0::2] = lower
    faces[1::2] = upper
    return faces


def mesh_from_mapped_grid(point_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          u_range: tuple[float, float],
                          v_range: tuple[float, float],
                          res_u: int, res_v: int,
                          header: Sequence[str] = (),
                          drop_degenerate: bool = False) -> MeshObj:
    """Tessellate ``point_fn`` over a parameter rectangle.

    ``point_fn`` maps broadcastable parameter arrays to points of shape
    ``(..., 3)``.  With ``drop_degenerate`` the zero-area triangles that a
    pinched parametrization produces are removed instead of rejected.
    """
    if res_u < 1 or res_v < 1:
        raise ValueError("resolution must be at least 1 cell per direction")
    for lo, hi in (u_range, v_range):
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError("unbounded window: mesh ranges must be finite "
                             "with lo < hi")
    us = np.linspace(float(u_range[0]), float(u_range[1]), res_u + 1)
    vs = np.linspace(float(v_range[0]), float(v_range[1]), res_v + 1)
    U, V = np.meshgrid(us, vs, indexing="ij")
    pts = np.asarray(point_fn(U, V), dtype=float)
    if pts.shape != (res_u + 1, res_v + 1, 3):
        raise ValueError("point function must return one 3-point per node")
    vertices = pts.reshape(-1, 3)
    faces = _grid_faces(res_u, res_v)
    if drop_degenerate:
        faces = faces[~_degenerate_faces(vertices, faces)]
    return MeshObj(vertices, faces, tuple(header))


def mesh_from_graph(phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    window: tuple[float, float, float, float],
                    res_x: int, res_z: int,
                    header: Sequence[str] = ()) -> MeshObj:
    """Mesh of an intrinsic graph y = phi(x, z') in group coordinates.

    The graph point over (x, z') is (x, phi, z' + x phi / 2); the grid is
    uniform in the intrinsic coordinates.
    """
    x0, x1, z0, z1 = map(float, window)

    def point(X, Zp):
        Y = np.asarray(phi(X, Zp), dtype=float)
        return np.stack([X, Y, Zp + 0.5 * X * Y], axis=-1)

    return mesh_from_mapped_grid(point, (x0, x1), (z0, z1), res_x, res_z,
                                 header)


def mesh_from_ruled(surface, res_w: int, res_s: int,
                    header: Sequence[str] = ()) -> MeshObj:
    """Mesh of a ruled surface sampled on its (w, s) parameter grid."""
    return mesh_from_mapped_grid(surface.point, surface.w_range, (0.0, 1.0),
                                 res_w, res_s, header)


def merge_meshes(meshes: Iterable[MeshObj],
                 header: Sequence[str] = ()) -> MeshObj:
    """Concatenate meshes, reindexing faces; headers come from the argument."""
    parts = list(meshes)
    if not parts:
        raise ValueError("nothing to merge")
    vertices = []
    faces = []
    offset = 0
    for mesh in parts:
        vertices.append(mesh.vertices)
        faces.append(mesh.faces + offset)
        offset += mesh.n_vertices
    return MeshObj(np.concatenate(vertices), np.concatenate(faces),
                   tuple(header))


# ---------------------------------------------------------------------------
# surface-specific builders


def strip_mesh(strip, z_window: tuple[float, float], res_x: int, res_z: int,
               header: Sequence[str] = ()) -> MeshObj:
    """Mesh of a ruled strip (x, x sigma(z), z) over a height window."""
    z0, z1 = map(float, z_window)
    xm = strip.x_max

    def point(X, Z):
        return np.stack([X, X * np.asarray(strip.sigma(Z), dtype=float), Z],
                        axis=-1)

    return mesh_from_mapped_grid(point, (-xm, xm), (z0, z1), res_x, res_z,
                                 header)


def broken_plane_mesh(bp, z_window: tuple[float, float], res_x: int,
                      res_z: int, header: Sequence[str] = ()) -> MeshObj:
    """Mesh of the broken plane as an intrinsic graph over its slab."""
    xm = bp.x_max
    z0, z1 = map(float, z_window)
    return mesh_from_graph(bp.value, (-xm, xm, z0, z1), res_x, res_z, header)


def _flip(points: np.ndarray) -> np.ndarray:
    """The isometry (x, y, z) -> (-x, y, -z) joining the two halves."""
    out = np.array(points, dtype=float)
    out[..., 0] *= -1.0
    out[..., 2] *= -1.0
    return out


def competitor_mesh(comp, z_cap: float, res: int, res_cross: int,
                    header: Sequence[str] = ()) -> MeshObj:
    """Mesh of a spanning competitor surface truncated at |z| <= z_cap.

    Pieces: the z-graph patch over the wedge triangle
    {|x| <= 1, -u <= y <= -u x}, the vertical wall over the top edge
    y = -u x from the exit height up to the cap, the images of both under
    (x, y, z) -> (-x, y, -z), and - when the exit height exceeds u/2 - the
    flat connector in the plane y = -u between the two patch bottom edges.
    The tiny corner connectors at (-+1, u) are not meshed.
    """
    u = comp.u
    b = comp.exit_height
    z_cap = float(z_cap)
    if not z_cap >= b:
        raise ValueError("z_cap must clear the sweep exit height")

    def patch_point(X, T):
        lo = -u * np.ones_like(X)
        hi = -u * X
        Y = lo + np.asarray(T, dtype=float) * (hi - lo)
        Z = np.asarray(comp.phi(X, Y), dtype=float)
        return np.stack([X, Y, Z], axis=-1)

    def wall_point(X, Z):
        return np.stack([X, -u * X, Z], axis=-1)

    # the flip has determinant +1 (a rotation about the y axis), so the
    # mirrored pieces keep their winding
    patch = mesh_from_mapped_grid(patch_point, (-1.0, 1.0), (0.0, 1.0),
                                  res, res_cross, drop_degenerate=True)
    pieces = [patch, MeshObj(_flip(patch.vertices), patch.faces)]
    if z_cap > b:
        wall = mesh_from_mapped_grid(wall_point, (-1.0, 1.0), (b, z_cap),
                                     res, res_cross)
        pieces.append(wall)
        pieces.append(MeshObj(_flip(wall.vertices), wall.faces))

    xs = np.linspace(-1.0, 1.0, res + 1)
    bottom = np.asarray(comp.phi(xs, np.full_like(xs, -u)), dtype=float)
    width = bottom + bottom[::-1]
    if float(np.min(width)) > 1e-9:
        def flat_point(X, T):
            z_lo = -np.asarray(comp.phi(-X, np.full_like(X, -u)), dtype=float)
            z_hi = np.asarray(comp.phi(X, np.full_like(X, -u)), dtype=float)
            Z = z_lo + np.asarray(T, dtype=float) * (z_hi - z_lo)
            return np.stack([X, -u * np.ones_like(X), Z], axis=-1)

        pieces.append(mesh_from_mapped_grid(flat_point, (-1.0, 1.0),
                                            (0.0, 1.0), res, res_cross))
    return merge_meshes(pieces, header)


def write_obj(mesh: MeshObj, path: str) -> str:
    """Write the mesh atomically; identical meshes give identical bytes."""
    return atomic_write_text(path, mesh.to_obj_text())

"""Triangle meshes of realized surfaces and Wavefront OBJ export.

Meshes are deterministic: vertices come from structured grids traversed in
a fixed row-major order, numbers are written with 17 significant digits,
and the same inputs always produce byte-identical ``.obj`` text.  Files
contain only comment, ``v`` and ``f`` records, with 1-based face indices
and the group z coordinate up.  The writer formats each distinct
coordinate magnitude once per mesh and puts the sign back from each
value's sign bit, so ``-0.0`` stays ``-0``; face indices come from a digit
table of ``0..n``.  Each record is one row of bytes, laid out from those
NUL-padded cells, and the NULs are dropped.

Validation and OBJ writing both run over fixed-size chunks of `_CHUNK`
faces or records, so their memory follows the mesh arrays, not the size
of the OBJ text: `write_obj` streams the chunks through the one atomic
writer of `reports`, and `MeshObj.to_obj_text` joins the same chunks.

Graph patches are tessellated over mapped grids ``(x, t) -> (x, y(x, t))``
so the footprint may have curved upper/lower edges; columns where the
footprint pinches to a point produce collapsed cells whose zero-area
triangles are dropped, keeping the mesh valid at wedge corners.  Every
exported mesh is validated once, as a whole: the competitor's pieces are
joined as arrays before its one `MeshObj` is made.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .reports import atomic_write_chunks

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
# faces per area pass and records per OBJ chunk, which bounds the memory of
# validation and of the OBJ writer
_CHUNK = 8192


def _triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Area of each face of an (n, 3) vertex array and 1-based (m, 3) faces.

    Written out by component on contiguous coordinate columns, in the order
    of operations of ``0.5 * norm(cross(b - a, c - a))``, so the areas
    equal that form bit for bit.
    """
    x, y, z = np.ascontiguousarray(vertices.T)
    i, j, k = np.ascontiguousarray(faces.T) - 1
    ax, ay, az = x[i], y[i], z[i]
    ux, uy, uz = x[j] - ax, y[j] - ay, z[j] - az
    wx, wy, wz = x[k] - ax, y[k] - ay, z[k] - az
    cx = uy * wz - uz * wy
    cy = uz * wx - ux * wz
    cz = ux * wy - uy * wx
    return 0.5 * np.sqrt((cx * cx + cy * cy) + cz * cz)


def _degenerate_faces(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Mask of the faces below _DEGENERATE_REL of the squared diagonal.

    The vertices are first scaled by the power of two that brings the
    largest coordinate into [0.5, 1).  That scaling is exact, so the mask
    is the unscaled one, but neither the diagonal nor an area can overflow
    however large the (finite) coordinates are.  The scaled vertices are
    kept as contiguous x, y, z columns for the diagonal and the areas,
    which are taken `_CHUNK` faces at a time.
    """
    top = float(np.max(np.abs(vertices), initial=0.0))
    columns = np.ldexp(vertices.T, -math.frexp(top)[1], order="C")
    dx, dy, dz = columns.max(axis=1) - columns.min(axis=1)
    diagonal = math.sqrt((dx * dx + dy * dy) + dz * dz)
    threshold = _DEGENERATE_REL * diagonal * diagonal
    mask = np.empty(len(faces), dtype=bool)
    for start in range(0, len(faces), _CHUNK):
        sl = slice(start, start + _CHUNK)
        mask[sl] = _triangle_areas(columns.T, faces[sl]) <= threshold
    return mask


class DegenerateMeshError(ValueError, ArithmeticError):
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

    def to_obj_text(self) -> bytes:
        """The OBJ text as ASCII bytes: header comments, then ``v`` and
        ``f`` records.

        Coordinates are written with ``%.17g``, so they read back exactly.
        This is the join of the chunks that `write_obj` streams to disk
        (`_obj_chunks`); the bytes are never decoded into a `str`.
        """
        return b"".join(self._obj_chunks())

    def _obj_chunks(self) -> Iterator[bytes]:
        """The OBJ bytes in order: the header, then `_CHUNK` records at a
        time, ``v`` records first.

        Each distinct magnitude is formatted once per mesh and a ``-`` is
        put back from each value's sign bit (``-0.0`` stays ``-0``); face
        indices are gathered from a digit table of ``0..n``.  Each chunk's
        records are laid out as rows of bytes (`_records`).
        """
        yield "".join(f"# {line}\n" for line in self.header).encode("ascii")
        cells, rows = _coordinate_table(self.vertices)
        digits = _index_digits(self.n_vertices)
        for kind, table, index in (("v", cells, rows),
                                   ("f", digits, self.faces)):
            for start in range(0, len(index), _CHUNK):
                yield _records(kind, np.take(table, index[start:start + _CHUNK],
                                             axis=0))


# clears the sign bit of a float64 viewed as int64
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _coordinate_table(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%.17g`` cells of the signed coordinates and each coordinate's row.

    The table holds NUL-padded ASCII cells, one per distinct magnitude and
    then each of those after a ``-``; the ``(n, 3)`` rows pick a value's
    cell by its magnitude and sign bit.  Each magnitude is formatted once.
    """
    bits = vertices.view(np.int64)
    magnitudes, inverse = np.unique(bits & _MAGNITUDE, return_inverse=True)
    words = ("%.17g " * len(magnitudes)
             % tuple(magnitudes.view(np.float64).tolist()))
    table = np.array(words.encode("ascii").split(), dtype=bytes)
    k, w = len(table), table.itemsize
    signed = np.zeros((2, k, w + 1), dtype=np.uint8)
    signed[:, :, -w:] = table.view(np.uint8).reshape(k, w)
    signed[1, :, 0] = ord("-")
    return (signed.reshape(2 * k, w + 1),
            inverse.reshape(bits.shape) + k * (bits < 0))


def _index_digits(n: int) -> np.ndarray:
    """ASCII digits of ``0..n``, row i holding i's, NUL in place of leading
    zeros; row 0 is all NUL, as 1-based face indices never use it."""
    width = len(str(n))
    index = np.arange(n + 1)
    table = np.empty((n + 1, width), dtype=np.uint8)
    for column in range(width):
        place = 10 ** (width - 1 - column)
        table[:, column] = index // place % 10 + ord("0")
        table[:place, column] = 0  # 0..place-1 have no digit here
    return table


def _records(kind: str, cells: np.ndarray) -> bytes:
    """``kind cell cell cell\\n`` per record of ``(m, 3, w)`` NUL-padded cells.

    Each record is laid out as one uint8 row; the NULs of the padding are
    dropped from the rows at the end.
    """
    m, _, w = cells.shape
    rows = np.empty((m, 3 * w + 5), dtype=np.uint8)
    rows[:, 0] = ord(kind)
    fields = rows[:, 1:-1].reshape(m, 3, w + 1)
    fields[:, :, 0] = ord(" ")
    fields[:, :, 1:] = cells
    rows[:, -1] = ord("\n")
    flat = rows.ravel()
    return flat[flat != 0].tobytes()


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


def _grid(point_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
          u_range: tuple[float, float], v_range: tuple[float, float],
          res_u: int, res_v: int,
          drop_degenerate: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and faces of ``point_fn`` over a parameter rectangle."""
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
    return vertices, faces


def _stack(pieces: Sequence[tuple[np.ndarray, np.ndarray]]
           ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (vertices, faces) pieces, reindexing the faces."""
    offsets = np.cumsum([0] + [len(v) for v, _ in pieces])
    return (np.concatenate([v for v, _ in pieces]),
            np.concatenate([f + k for (_, f), k in zip(pieces, offsets)]))


def mesh_from_mapped_grid(point_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          u_range: tuple[float, float],
                          v_range: tuple[float, float],
                          res_u: int, res_v: int,
                          header: Sequence[str] = ()) -> MeshObj:
    """Tessellate ``point_fn`` over a parameter rectangle.

    ``point_fn`` maps broadcastable parameter arrays to points of shape
    ``(..., 3)``.
    """
    return MeshObj(*_grid(point_fn, u_range, v_range, res_u, res_v),
                   tuple(header))


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
    parts = [(mesh.vertices, mesh.faces) for mesh in meshes]
    if not parts:
        raise ValueError("nothing to merge")
    return MeshObj(*_stack(parts), tuple(header))


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

    # the pieces are joined as arrays and validated once, as one mesh: a
    # piece's bounding box lies inside the whole one's, so no piece's own
    # check could reject a face that the whole mesh's check accepts.  The
    # flip has determinant +1 (a rotation about the y axis), so the
    # mirrored pieces keep their winding
    patch = _grid(patch_point, (-1.0, 1.0), (0.0, 1.0), res, res_cross,
                  drop_degenerate=True)
    pieces = [patch, (_flip(patch[0]), patch[1])]
    if z_cap > b:
        wall = _grid(wall_point, (-1.0, 1.0), (b, z_cap), res, res_cross)
        pieces += [wall, (_flip(wall[0]), wall[1])]

    xs = np.linspace(-1.0, 1.0, res + 1)
    bottom = np.asarray(comp.phi(xs, np.full_like(xs, -u)), dtype=float)
    width = bottom + bottom[::-1]
    if float(np.min(width)) > 1e-9:
        def flat_point(X, T):
            z_lo = -np.asarray(comp.phi(-X, np.full_like(X, -u)), dtype=float)
            z_hi = np.asarray(comp.phi(X, np.full_like(X, -u)), dtype=float)
            Z = z_lo + np.asarray(T, dtype=float) * (z_hi - z_lo)
            return np.stack([X, -u * np.ones_like(X), Z], axis=-1)

        pieces.append(_grid(flat_point, (-1.0, 1.0), (0.0, 1.0), res,
                            res_cross))
    return MeshObj(*_stack(pieces), tuple(header))


def write_obj(mesh: MeshObj, path: str) -> str:
    """Write the mesh atomically; identical meshes give identical bytes.

    The OBJ bytes are streamed to the file a chunk at a time through
    `reports.atomic_write_chunks`, so no copy of the whole text is made.
    The header is encoded first: a non-ASCII one fails before any
    directory or file is made.
    """
    chunks = mesh._obj_chunks()
    header = next(chunks)
    return atomic_write_chunks(path, itertools.chain((header,), chunks))

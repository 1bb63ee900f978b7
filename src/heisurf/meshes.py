"""Triangle meshes of realized surfaces and Wavefront OBJ export.

Meshes are deterministic: vertices come from structured grids traversed in
a fixed row-major order, numbers are written with 17 significant digits,
and the same inputs always produce byte-identical ``.obj`` text.  Files
contain only comment, ``v`` and ``f`` records, with 1-based face indices
and the group z coordinate up.  The writer formats each distinct
coordinate magnitude once per block of `_CHUNK` vertices, all of the
block's at once (`_fmt17_cells`): in [1e-4, 1e17), where `fmt17` writes
fixed notation, the 17 digits are exact, from Dekker's product, looked up
four at a time and laid out a decade at a time, and `reports.fmt17`,
which defines the format, writes zero, the other magnitudes and the exact
ties.  Each cell of the coordinate table is a space, the sign, put back
from each value's sign bit (``-0.0`` stays ``-0``), and the text; face
indices come from a table of a space and the digits of ``0..n``.  Each
record is one row of bytes, into which its three NUL-padded cells are
gathered straight from the table, and the NULs are dropped; a block of
faces whose indices all have the table's full width has none to drop.

Validation and OBJ writing both run over fixed-size chunks of `_CHUNK`
faces or records, so their working memory follows a chunk, not the mesh
or the OBJ text: `write_obj` streams the chunks through the one atomic
writer of `reports`, and `MeshObj.to_obj_text` joins the same chunks.

Graph patches are tessellated over mapped grids ``(x, t) -> (x, y(x, t))``
so the footprint may have curved upper/lower edges; columns where the
footprint pinches to a point produce collapsed cells whose zero-area
triangles are dropped, keeping the mesh valid at wedge corners.  Every
exported mesh is validated once, as a whole: the competitor's pieces are
assembled in place, each written into its slice of vertex and face arrays
allocated once, before its one `MeshObj` is made.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .reports import atomic_write_chunks, fmt17

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
    equal that form bit for bit.  The corners are gathered as coordinate
    rows, and each later step writes in place into the edge, cross-product
    or area arrays, so a pass holds about ten arrays of its faces' size.
    """
    columns = np.ascontiguousarray(vertices.T)
    # the coordinate rows of the corners a, b and c; b and c become the
    # edges b - a and c - a
    a, u, w = (columns.take(corner - 1, axis=1) for corner in faces.T)
    u -= a
    w -= a
    del a
    cross = np.empty_like(u)
    area = np.empty(len(faces))
    for axis in range(3):
        p, q = (axis + 1) % 3, (axis + 2) % 3
        np.multiply(u[p], w[q], out=cross[axis])
        np.multiply(u[q], w[p], out=area)
        cross[axis] -= area
    cross *= cross
    np.add(cross[0], cross[1], out=area)
    area += cross[2]
    np.sqrt(area, out=area)
    area *= 0.5
    return area


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

        Coordinates are written as `reports.fmt17` writes them, with 17
        significant digits, so they read back exactly; each distinct
        magnitude of a block of `_CHUNK` vertices is formatted once, and
        where it is in fixed notation the digits are exact, from Dekker's
        product, and laid out a decade at a time (`_fmt17_cells`), and
        `fmt17` writes the rest.  This is the join of the chunks that
        `write_obj` streams to disk (`_obj_chunks`); the bytes are never
        decoded into a `str`.
        """
        return b"".join(self._obj_chunks())

    def _obj_chunks(self) -> Iterator[bytes]:
        """The OBJ bytes in order: the header, then `_CHUNK` records at a
        time, ``v`` records first.

        Each block of `_CHUNK` vertices gets its own table of cells, in
        which each distinct magnitude of the block is formatted once, all
        of them together and exactly, after a space and, from each value's
        sign bit, a ``-`` (``-0.0`` stays ``-0``) (`_coordinate_table`);
        the cells of face indices are a space and the digits of ``0..n``.
        Each chunk's records are gathered from the table into rows of bytes
        (`_records`); a block of faces whose smallest index has every digit
        of the widest has no NUL padding to drop.
        """
        yield "".join(f"# {line}\n" for line in self.header).encode("ascii")
        for start in range(0, self.n_vertices, _CHUNK):
            yield _records("v", *_coordinate_table(
                self.vertices[start:start + _CHUNK]))
        digits = _index_digits(self.n_vertices)
        # indices from 10^(w-1) on have all w digits of the widest, so the
        # rows of a block whose smallest index is one of them hold no NUL
        full = 10 ** (digits.shape[1] - 2)
        for start in range(0, self.n_faces, _CHUNK):
            faces = self.faces[start:start + _CHUNK]
            yield _records("f", digits, faces, padded=faces.min() < full)


# ---------------------------------------------------------------------------
# exact 17-digit cells of coordinate magnitudes


# the decades 10^k <= x < 10^(k+1), k in [-4, 16], where `fmt17` writes
# fixed notation: 1e-4 .. 1e16, each the smallest double >= 10^k (the four
# below 1 round up, the others are exact), and the exact 10^(16 - k)
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 17)])
_SCALES = np.array([float(f"1e{16 - k}") for k in range(-4, 17)])


def _split(a):
    """Dekker's split of doubles into halves of 26 bits, a = big + small."""
    c = 134217729.0 * a
    big = c - (c - a)
    return big, a - big


def _scaled(x):
    """k with 10^k <= x < 10^(k+1), and x 10^(16 - k) exactly, as an
    unevaluated sum high + low of doubles, for x in [1e-4, 1e17)."""
    at = np.searchsorted(_DECADES, x, side="right") - 1
    ten = _SCALES[at]
    x_big, x_small = _split(x)
    ten_big, ten_small = _split(ten)
    high = x * ten
    low = (((x_big * ten_big - high) + x_big * ten_small)
           + x_small * ten_big) + x_small * ten_small
    return at - 4, high, low


@functools.cache
def _four_digits() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as the bytes of a uint32,
    then the same with trailing zeros as NULs, and the number of trailing
    zeros of each, 4 for 0."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    zeros = np.cumprod(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    text = ((digits + ord("0")) * np.stack([np.ones_like(zeros), 1 - zeros])
            ).astype(np.uint8)
    return text.view(np.uint32).ravel(), zeros.sum(axis=1).astype(np.uint8)


def _digits(nearest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of integers in [1e16, 1e17), one row each, with
    NUL in place of trailing zeros and four NUL columns after them, and
    how many digits there are up to the last nonzero one.

    The digits are a leading one and four groups of four, split off with
    ``//`` and a multiply-subtract; each group's text and trailing zeros
    are looked up.
    """
    high = nearest // 10 ** 8
    low = nearest - high * 10 ** 8
    top = high // 10 ** 4
    lead = top // 10 ** 4
    third = low // 10 ** 4
    groups = (lead, top - lead * 10 ** 4, high - top * 10 ** 4, third,
              low - third * 10 ** 4)
    words, trailing = _four_digits()
    stream = np.zeros((len(nearest), 24), dtype=np.uint8)
    columns = stream.view(np.uint32)
    # the last group is trimmed, and each before it when all after it are
    # zeros
    columns[:, 4] = words[groups[4] + 10000]
    zeros = trailing[groups[4]]
    for column, place in ((3, 4), (2, 8), (1, 12)):
        after = zeros == place
        columns[:, column] = words[groups[column] + 10000 * after]
        zeros += after * trailing[groups[column]]
    columns[:, 0] = words[lead]
    # the leading digit is the last of the first group's four
    return stream[:, 3:], 17 - zeros


# the longest text of `fmt17`, such as ``1.2345678901234567e-100``; a
# fixed-notation cell is at most ``0.000`` and 17 digits long
_WIDTH = 23
_POINT = np.frombuffer(b"0.000", dtype=np.uint8)


def _layout(nearest: np.ndarray, k: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-notation ``%g`` cells, one row each, of nearest 10^(k - 16)
    for integers nearest in [1e16, 1e17) and k in [-4, 16] sorted, and
    the length of each.

    The digits follow ``0.`` and -k-1 zeros when k < 0, and a point after
    the first k+1 of them otherwise.  Trailing fraction zeros are dropped,
    and so is a bare point.  The rows of each decade k are contiguous, so
    each is laid out with slice copies.
    """
    digits, significant = _digits(nearest)
    cells = np.zeros((len(k), _WIDTH), dtype=np.uint8)
    bounds = np.searchsorted(k, np.arange(-4, 18)).tolist()
    for decade, lo, hi in zip(range(-4, 17), bounds, bounds[1:]):
        if lo == hi:
            continue
        rows = cells[lo:hi]
        if decade < 0:
            rows[:, :1 - decade] = _POINT[:1 - decade]
            rows[:, 1 - decade:18 - decade] = digits[lo:hi, :17]
        else:
            # integer digits are written, zero or not, and the point only
            # before a fraction digit
            np.maximum(digits[lo:hi, :decade + 1], ord("0"),
                       out=rows[:, :decade + 1])
            np.multiply(digits[lo:hi, decade + 1] != 0, np.uint8(ord(".")),
                        out=rows[:, decade + 1])
            rows[:, decade + 2:18] = digits[lo:hi, decade + 1:17]
    length = (np.maximum(significant + (significant > k + 1), k + 1)
              - np.minimum(k, 0))
    return cells, length


# the largest double below 1e17
_LAST = math.nextafter(1e17, 0.0)


def _fmt17_cells(values: np.ndarray) -> np.ndarray:
    """`reports.fmt17` of nonnegative finite doubles as an ``(n, w)``
    uint8 table of ASCII cells, NUL-padded to w, the longest text's length.

    For x in [1e-4, 1e17), where `fmt17` writes fixed notation, the 17
    digits are those of the integer nearest x 10^q, where q = 16 - k and
    10^k <= x < 10^(k+1).  k is looked up in `_DECADES`; 10^q, q in
    [0, 20], is a double, so Dekker's product (Dekker 1971) gives x 10^q
    exactly as a pair of doubles, with Dekker's split standing in for the
    fused multiply-add numpy lacks.  `fmt17`, which defines the format,
    writes the rest: zero, x outside [1e-4, 1e17), and the exact ties,
    where x 10^q is a half-integer.

    The cells are laid out a decade at a time (`_layout`).  Sorted values
    have sorted decades; other values are grouped by a stable sort of k.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    inside = (x >= _DECADES[0]) & (x < 1e17)
    # the ends of the range stand in for the values outside it, which
    # `fmt17` writes, so that sorted values keep sorted decades
    k, high, low = _scaled(np.clip(x, _DECADES[0], _LAST))
    # high is an integer, and low a multiple of 2^-46, so the fraction is
    # exact
    whole = np.floor(low)
    fraction = low - whole
    decided = inside & (fraction != 0.5)
    # no double of a decade is within 1/2 of 10^17 once scaled, so the 17
    # digits never carry into the next decade
    nearest = (high.astype(np.int64) + whole.astype(np.int64)
               + (fraction > 0.5))
    order = None if np.all(k[:-1] <= k[1:]) else np.argsort(k, kind="stable")
    rows = slice(None) if order is None else order
    cells, length = _layout(nearest[rows], k[rows])
    undecided = (~decided).nonzero()[0]
    texts = [fmt17(v) for v in x[undecided].tolist()]
    width = max([int(length.max(where=decided[rows], initial=0)),
                 *map(len, texts)])
    table = cells[:, :width]
    if order is not None:
        table = np.empty_like(table)
        table[order] = cells[:, :width]
    table[undecided] = np.array(texts, dtype=f"S{width}").view(
        np.uint8).reshape(len(undecided), width)
    return table


# clears the sign bit of a float64 viewed as int64
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _coordinate_table(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`reports.fmt17` cells of the signed coordinates and each one's row.

    The writer calls it on one block of `_CHUNK` vertices at a time.  The
    table holds NUL-padded ASCII cells, each a space and then one distinct
    magnitude of the block, first as it is and then after a ``-``; the
    ``(n, 3)`` rows pick a value's cell by its magnitude and sign bit.  The
    magnitudes are formatted once, together, by `_fmt17_cells`, whose
    digits are exact from Dekker's product in fixed notation;
    `reports.fmt17` defines the format and writes zero, the other
    magnitudes and the exact ties.
    """
    bits = vertices.view(np.int64)
    magnitudes, inverse = np.unique(bits & _MAGNITUDE, return_inverse=True)
    table = _fmt17_cells(magnitudes.view(np.float64))
    k, w = table.shape
    signed = np.zeros((2, k, w + 2), dtype=np.uint8)
    signed[:, :, 0] = ord(" ")
    signed[1, :, 1] = ord("-")
    signed[:, :, 2:] = table
    return (signed.reshape(2 * k, w + 2),
            inverse.reshape(bits.shape) + k * (bits < 0))


# the ASCII digits 0..9
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)


def _index_digits(n: int) -> np.ndarray:
    """Cells of ``0..n``: row i holds a space, then i's ASCII digits, with
    NUL in place of leading zeros; row 0 has no digit, as 1-based face
    indices never use it.

    The column of place p repeats each digit p times, cycling through
    0..9, so it is written from uint8 runs with no integer temporaries.
    """
    width = len(str(n))
    table = np.empty((n + 1, width + 1), dtype=np.uint8)
    table[:, 0] = ord(" ")
    for column in range(1, width + 1):
        place = 10 ** (width - column)
        runs = np.resize(_DIGITS, -(-(n + 1) // place))
        table[:, column] = np.repeat(runs, place)[:n + 1]
        table[:place, column] = 0  # 0..place-1 have no digit here
    return table


def _records(kind: str, table: np.ndarray, rows: np.ndarray,
             padded: bool = True) -> bytes:
    """``kind cell cell cell\\n`` per record of ``(m, 3)`` rows of a table
    of NUL-padded cells, each of which begins with its space.

    Each record is one uint8 row, into which the cells are gathered
    straight from the table; the NULs are dropped from the rows at the
    end, unless ``padded`` is false: no cell the rows pick has a NUL.
    """
    m, w = len(rows), table.shape[1]
    out = np.empty((m, 3 * w + 2), dtype=np.uint8)
    out[:, 0] = ord(kind)
    np.take(table, rows, axis=0, out=out[:, 1:-1].reshape(m, 3, w))
    out[:, -1] = ord("\n")
    flat = out.ravel()
    return (flat[flat != 0] if padded else flat).tobytes()


# ---------------------------------------------------------------------------
# structured grids


def _grid_faces(nu: int, nv: int) -> np.ndarray:
    """Two triangles per cell of an (nu+1) x (nv+1) vertex grid, 1-based:
    cell (i, j) with corners v00, v01 = v00 + 1, v10 = v00 + nv + 1 and
    v11 = v10 + 1 gives (v00, v10, v11), then (v00, v11, v01).

    Each corner column is written straight into the face array from the
    cells' v00, the one other grid-sized array."""
    v00 = np.arange(nu)[:, None] * (nv + 1) + np.arange(1, nv + 1)
    faces = np.empty((nu, nv, 2, 3), dtype=int)
    for triangle, corners in enumerate(((nv + 1, nv + 2), (nv + 2, 1))):
        faces[:, :, triangle, 0] = v00
        for column, shift in enumerate(corners, 1):
            np.add(v00, shift, out=faces[:, :, triangle, column])
    return faces.reshape(-1, 3)


def _grid_points(point_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 u_range: tuple[float, float], v_range: tuple[float, float],
                 res_u: int, res_v: int) -> np.ndarray:
    """The (n, 3) vertices of ``point_fn`` over a parameter rectangle, in
    the order of `_grid_faces(res_u, res_v)`."""
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
    return pts.reshape(-1, 3)


def _joined_faces(faces: Sequence[np.ndarray],
                  sizes: Sequence[int]) -> np.ndarray:
    """The faces of consecutive pieces of ``sizes`` vertices in one array,
    each piece's shifted by the vertices before it straight into its
    slice."""
    joined = np.empty((sum(map(len, faces)), 3), dtype=int)
    row = shift = 0
    for piece, size in zip(faces, sizes):
        np.add(piece, shift, out=joined[row:row + len(piece)])
        row += len(piece)
        shift += size
    return joined


def mesh_from_mapped_grid(point_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          u_range: tuple[float, float],
                          v_range: tuple[float, float],
                          res_u: int, res_v: int,
                          header: Sequence[str] = ()) -> MeshObj:
    """Tessellate ``point_fn`` over a parameter rectangle.

    ``point_fn`` maps broadcastable parameter arrays to points of shape
    ``(..., 3)``.
    """
    return MeshObj(_grid_points(point_fn, u_range, v_range, res_u, res_v),
                   _grid_faces(res_u, res_v), tuple(header))


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
    meshes = list(meshes)
    if not meshes:
        raise ValueError("nothing to merge")
    return MeshObj(np.concatenate([mesh.vertices for mesh in meshes]),
                   _joined_faces([mesh.faces for mesh in meshes],
                                 [mesh.n_vertices for mesh in meshes]),
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


# the isometry (x, y, z) -> (-x, y, -z) joining the two halves, as the
# factor of each coordinate
_FLIP = np.array([-1.0, 1.0, -1.0])


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

    def flat_point(X, T):
        # the heights of the two bottom edges depend on the column only
        x = X[:, :1]
        z_lo = -np.asarray(comp.phi(-x, np.full_like(x, -u)), dtype=float)
        z_hi = np.asarray(comp.phi(x, np.full_like(x, -u)), dtype=float)
        Z = z_lo + np.asarray(T, dtype=float) * (z_hi - z_lo)
        return np.stack([X, -u * np.ones_like(X), Z], axis=-1)

    patch = _grid_points(patch_point, (-1.0, 1.0), (0.0, 1.0), res, res_cross)
    grid = _grid_faces(res, res_cross)
    kept = grid[~_degenerate_faces(patch, grid)]
    walled = z_cap > b
    xs = np.linspace(-1.0, 1.0, res + 1)
    bottom = np.asarray(comp.phi(xs, np.full_like(xs, -u)), dtype=float)
    flat = float(np.min(bottom + bottom[::-1])) > 1e-9

    # every piece has the grid's vertices: the face and vertex arrays are
    # allocated once, the faces shifted into theirs before the vertices are
    # made, and each piece's vertices written into its slot, the mirrored
    # ones from the slot just written.  The pieces are validated once, as
    # one mesh: a piece's bounding box lies inside the whole one's, so no
    # piece's own check could reject a face that the whole mesh's check
    # accepts.  The flip has determinant +1 (a rotation about the y axis),
    # so the mirrored pieces keep their winding
    count = 2 + 2 * walled + flat
    faces = _joined_faces([kept] * 2 + [grid] * (count - 2),
                          [len(patch)] * count)
    del grid, kept
    vertices = np.empty((count, len(patch), 3))
    vertices[0] = patch
    del patch
    np.multiply(vertices[0], _FLIP, out=vertices[1])
    if walled:
        vertices[2] = _grid_points(wall_point, (-1.0, 1.0), (b, z_cap), res,
                                   res_cross)
        np.multiply(vertices[2], _FLIP, out=vertices[3])
    if flat:
        vertices[-1] = _grid_points(flat_point, (-1.0, 1.0), (0.0, 1.0), res,
                                    res_cross)
    return MeshObj(vertices.reshape(-1, 3), faces, tuple(header))


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

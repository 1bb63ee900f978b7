"""Deterministic structured-grid meshes and Wavefront OBJ export."""
import hashlib
import math
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heisurf import cli, meshes
from heisurf.families import build_competitor, sigma_rho_surface
from heisurf.meshes import (
    MeshObj,
    broken_plane_mesh,
    competitor_mesh,
    merge_meshes,
    mesh_from_graph,
    mesh_from_mapped_grid,
    mesh_from_ruled,
    strip_mesh,
    write_obj,
)
from heisurf.reports import fmt17
from heisurf.strips import (CallableProfile, PwlProfile, broken_plane,
                            strip_surface)


def flat_graph(res_x=2, res_z=2):
    return mesh_from_graph(lambda X, Z: np.zeros_like(X),
                           (-1.0, 1.0, -1.0, 1.0), res_x, res_z)


# ---------------------------------------------------------------------------
# grid contract


def test_resolution_two_grid_has_nine_vertices_eight_faces():
    mesh = flat_graph(2, 2)
    assert mesh.n_vertices == 9
    assert mesh.n_faces == 8


def test_vertex_order_is_row_major_in_the_parameter_grid():
    mesh = flat_graph(3, 2)
    xs = np.linspace(-1.0, 1.0, 4)
    zs = np.linspace(-1.0, 1.0, 3)
    for i, x in enumerate(xs):
        for j, z in enumerate(zs):
            np.testing.assert_array_equal(mesh.vertices[i * 3 + j],
                                          [x, 0.0, z])


def test_counts_scale_with_resolution():
    mesh = flat_graph(5, 7)
    assert mesh.n_vertices == 6 * 8
    assert mesh.n_faces == 2 * 5 * 7
    assert mesh.faces.min() == 1 and mesh.faces.max() == mesh.n_vertices


def test_graph_mesh_embeds_points_in_group_coordinates():
    # y = phi(x, z') sits at the group point (x, phi, z' + x phi / 2)
    mesh = mesh_from_graph(lambda X, Z: X + 0.0 * Z,
                           (0.0, 1.0, 0.0, 1.0), 2, 2)
    x, y, z = mesh.vertices[np.argmax(mesh.vertices[:, 0] +
                                      mesh.vertices[:, 2])]
    assert (x, y) == (1.0, 1.0)
    assert z == pytest.approx(1.0 + 0.5 * 1.0 * 1.0)


def test_strip_mesh_lies_on_the_ruled_surface():
    strip = strip_surface(PwlProfile.line(-1.0), kind="sigma")
    mesh = strip_mesh(strip, (-1.0, 1.0), 4, 4)
    x, y, z = mesh.vertices.T
    np.testing.assert_allclose(y, x * (-z), atol=1e-15)


# ---------------------------------------------------------------------------
# validation


def test_degenerate_triangles_are_rejected():
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
    with pytest.raises(ValueError, match="degenerate"):
        MeshObj(verts, [[1, 2, 3]])


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200, 1e307])
def test_degeneracy_is_judged_at_any_scale_without_overflow(scale):
    # the squared diagonal of a mesh this large overflows unless scaled
    verts = scale * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0], [1.0, 2.0, 0.0]])
    with np.errstate(over="raise", under="ignore"):
        assert MeshObj(verts, [[1, 2, 3]]).n_faces == 1
        with pytest.raises(ValueError, match="degenerate"):
            MeshObj(verts, [[1, 2, 3], [1, 2, 2]])
        kept = mesh_from_mapped_grid(
            lambda X, Z: scale * np.stack([X, X * Z, Z], axis=-1),
            (-1.0, 1.0), (0.0, 1.0), 2, 2)
    assert kept.n_faces == 8 and np.isfinite(kept.vertices).all()


def reference_areas(vertices, faces):
    a, b, c = (vertices[faces[:, i] - 1] for i in range(3))
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=-1)


def reference_degenerate(vertices, faces):
    top = float(np.max(np.abs(vertices)))
    v = np.ldexp(vertices, -np.frexp(top)[1])
    diagonal = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
    return reference_areas(v, faces) <= 1e-12 * diagonal * diagonal


def random_mesh(rng, n, m, scale):
    """Vertices with mixed exponents around `scale`; some faces collapsed
    (a repeated vertex) and some of about the threshold's area."""
    vertices = (rng.uniform(-1.0, 1.0, (n, 3)) * scale
                * 10.0 ** rng.integers(-3, 1, (n, 3)))
    faces = rng.integers(1, n + 1, (m, 3))
    faces[::7, 2] = faces[::7, 0]
    near = rng.uniform(-1.0, 1.0, (3, 3)) * scale
    near[2] = near[0] + np.array([1e-12, 2e-12, 0.0]) * scale
    vertices[:3] = near
    faces[1::7] = [1, 2, 3]
    return vertices, faces


def threshold_ladder(vertices, faces):
    """Make faces[2::7] cycle through (1, 2, k), k = 4..13, whose areas are
    1/4 to 128 times that of face (1, 2, 3) and so straddle the threshold."""
    a, c = vertices[0], vertices[2]
    vertices[3:13] = a + np.outer(2.0 ** np.arange(-2, 8), c - a)
    ladder = faces[2::7]
    ladder[:, :2] = [1, 2]
    ladder[:, 2] = 4 + np.arange(len(ladder)) % 10


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e150, 1e300])
def test_areas_and_degenerate_mask_equal_the_cross_norm_form(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 400)
    chunk = meshes._CHUNK
    for n in (3, 50, 2000, chunk - 1):
        vertices, faces = random_mesh(rng, n, 3 * n, scale)
        if n > 3:
            threshold_ladder(vertices, faces)
        mask = meshes._degenerate_faces(vertices, faces)
        np.testing.assert_array_equal(
            mask, reference_degenerate(vertices, faces))
        assert mask[::7].all() and (n == 3 or not mask.all())
        # each area pass has faces on either side of the threshold
        passes = range(0, len(faces), chunk)
        for start in passes:
            ladder = mask[start:start + chunk][(2 - start) % 7::7]
            assert n == 3 or (ladder.any() and not ladder.all())
        # unscaled areas overflow at 1e300 and underflow at 1e-300 alike
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            areas = meshes._triangle_areas(vertices, faces)
            expected = reference_areas(vertices, faces)
        np.testing.assert_array_equal(areas, expected)
        finite = np.isfinite(expected)
        assert (areas[finite].view(np.int64)
                == expected[finite].view(np.int64)).all()
    # the largest mesh spans three area passes
    assert len(passes) == 3


def test_an_area_pass_holds_about_ten_arrays_of_its_faces():
    # the edges, the cross product and the areas are written in place: one
    # pass over 8,192 faces peaks at 10 arrays of as many doubles (0.66 MB),
    # where the by-component form with a new array per step held 18
    # (1.18 MB)
    mesh = flat_graph(64, 64)
    assert mesh.n_faces == meshes._CHUNK
    columns = np.ascontiguousarray(mesh.vertices.T)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        meshes._triangle_areas(columns.T, mesh.faces)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 8 * meshes._CHUNK


def test_face_indices_must_be_in_range():
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(ValueError, match="out of range"):
        MeshObj(verts, [[1, 2, 4]])
    with pytest.raises(ValueError, match="out of range"):
        MeshObj(verts, [[0, 1, 2]])


def test_vertices_must_be_finite():
    verts = [[0.0, 0.0, np.inf], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(ValueError, match="finite"):
        MeshObj(verts, [[1, 2, 3]])


def test_mapped_grid_argument_validation():
    good = lambda U, V: np.stack([U, V, 0.0 * U], axis=-1)  # noqa: E731
    with pytest.raises(ValueError, match="at least 1"):
        mesh_from_mapped_grid(good, (0.0, 1.0), (0.0, 1.0), 0, 3)
    with pytest.raises(ValueError, match="unbounded window"):
        mesh_from_mapped_grid(good, (0.0, np.inf), (0.0, 1.0), 2, 2)
    bad = lambda U, V: np.stack([U, V], axis=-1)  # noqa: E731
    with pytest.raises(ValueError, match="3-point"):
        mesh_from_mapped_grid(bad, (0.0, 1.0), (0.0, 1.0), 2, 2)


def test_merge_requires_at_least_one_mesh():
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_meshes([])


def test_merge_reindexes_faces():
    a = flat_graph(1, 1)
    b = flat_graph(2, 2)
    merged = merge_meshes([a, b])
    assert merged.n_vertices == a.n_vertices + b.n_vertices
    assert merged.n_faces == a.n_faces + b.n_faces
    assert merged.faces.max() == merged.n_vertices


# ---------------------------------------------------------------------------
# watertightness


def edge_use_counts(mesh):
    """How many faces use each undirected edge (1-based indices)."""
    counts = {}
    for i, j, k in mesh.faces.tolist():
        for a, b in ((i, j), (j, k), (k, i)):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_broken_plane_mesh_is_watertight_inside_its_window():
    mesh = broken_plane_mesh(broken_plane(1.0), (-2.0, 2.0), 10, 8)
    counts = edge_use_counts(mesh)
    assert max(counts.values()) == 2
    assert sum(c == 1 for c in counts.values()) == 2 * 10 + 2 * 8


def test_ruled_mesh_of_the_spanning_surface():
    surface = sigma_rho_surface(CallableProfile(lambda z: z), (-2.0, 2.0))
    mesh = mesh_from_ruled(surface, 6, 5)
    assert mesh.n_vertices == 7 * 6
    assert mesh.n_faces == 2 * 6 * 5
    assert max(edge_use_counts(mesh).values()) == 2


# ---------------------------------------------------------------------------
# the competitor assembly


@pytest.mark.parametrize("kind", ("minimal", "harmonic"))
def test_competitor_patch_respects_its_defining_graph(kind):
    comp = build_competitor(kind, 1.0)
    res, res_cross = 12, 10
    mesh = competitor_mesh(comp, 2.0, res, res_cross)
    n_patch = (res + 1) * (res_cross + 1)
    patch = mesh.vertices[:n_patch]
    x, y, z = patch.T
    assert np.all(y >= -1.0 - 1e-12)
    assert np.all(y <= -x + 1e-12)
    np.testing.assert_allclose(z, np.asarray(comp.phi(x, y)), atol=1e-12)
    # second piece: the flipped patch
    flipped = mesh.vertices[n_patch:2 * n_patch]
    np.testing.assert_allclose(flipped[:, 0], -patch[:, 0], atol=0.0)
    np.testing.assert_allclose(flipped[:, 2], -patch[:, 2], atol=0.0)


def test_competitor_wall_and_flip_invariance():
    comp = build_competitor("minimal", 1.0)
    res, res_cross = 12, 10
    z_cap = 2.0
    mesh = competitor_mesh(comp, z_cap, res, res_cross)
    n_patch = (res + 1) * (res_cross + 1)
    wall = mesh.vertices[2 * n_patch:3 * n_patch]
    x, y, z = wall.T
    np.testing.assert_allclose(y, -x, atol=1e-15)
    assert z.min() == pytest.approx(comp.exit_height)
    assert z.max() == pytest.approx(z_cap)
    # the vertex multiset is invariant under (x, y, z) -> (-x, y, -z)
    flipped = mesh.vertices.copy()
    flipped[:, 0] *= -1.0
    flipped[:, 2] *= -1.0
    order = np.lexsort(mesh.vertices.T)
    order_f = np.lexsort(flipped.T)
    np.testing.assert_allclose(mesh.vertices[order], flipped[order_f],
                               atol=1e-12)


def test_competitor_pinched_column_drops_only_collapsed_triangles():
    comp = build_competitor("harmonic", 1.0)
    res, res_cross = 8, 6
    mesh = competitor_mesh(comp, 2.0, res, res_cross)
    # patch loses res_cross faces at the x = 1 pinch; no flat connector
    per_patch = 2 * res * res_cross - res_cross
    per_wall = 2 * res * res_cross
    assert mesh.n_faces == 2 * per_patch + 2 * per_wall
    assert mesh.n_vertices == 4 * (res + 1) * (res_cross + 1)


def test_competitor_cap_must_clear_the_exit_height():
    comp = build_competitor("minimal", 1.0)
    with pytest.raises(ValueError, match="exit height"):
        competitor_mesh(comp, 0.5 * comp.exit_height, 4, 4)


# ---------------------------------------------------------------------------
# OBJ text


def test_obj_text_format_and_determinism(tmp_path):
    mesh = flat_graph(2, 2)
    text = mesh.to_obj_text().decode("ascii")
    assert mesh.to_obj_text() == mesh.to_obj_text()
    lines = text.splitlines()
    assert len(lines) == 9 + 8
    assert all(line.startswith("v ") for line in lines[:9])
    assert all(line.startswith("f ") for line in lines[9:])
    assert text.endswith("\n")
    with_header = MeshObj(mesh.vertices, mesh.faces, ("made by test",))
    assert with_header.to_obj_text().splitlines()[0] == b"# made by test"
    p1 = tmp_path / "a.obj"
    p2 = tmp_path / "b.obj"
    write_obj(with_header, str(p1))
    write_obj(with_header, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().decode("ascii").splitlines()[0] == "# made by test"
    # OBJ text is ASCII: a header that is not is refused, and leaves no
    # file, not even a temporary one
    accented = MeshObj(mesh.vertices, mesh.faces, ("café",))
    with pytest.raises(UnicodeEncodeError):
        accented.to_obj_text()
    with pytest.raises(UnicodeEncodeError):
        write_obj(accented, str(tmp_path / "c.obj"))
    assert sorted(os.listdir(str(tmp_path))) == ["a.obj", "b.obj"]


def test_obj_vertices_use_seventeen_significant_digits():
    mesh = mesh_from_mapped_grid(
        lambda U, V: np.stack([U + 0.1, V, U], axis=-1),
        (0.0, 1.0), (0.0, 1.0), 1, 1)
    first = mesh.to_obj_text().splitlines()[0]
    assert first == b"v 0.10000000000000001 0 0"


def test_obj_text_matches_per_element_fmt17():
    # a mesh 1e300 wide is validated without overflow
    with np.errstate(over="raise"):
        extremes = MeshObj([[-0.0, 1e-300, 1e300], [0.1, -1e300, -1e-300],
                            [5e-324, 1.0, -0.1]], np.empty((0, 3), dtype=int),
                           ("extremes",))
        # signed zeros, repeats across vertices and the extremes, with faces
        signed = MeshObj([[0.0, -0.0, 1e300], [-1e300, 0.0, -0.0],
                          [5e-324, 1e300, 0.0], [-0.0, 0.0, -1e300],
                          [0.0, 1e300, 1e300]],
                         [[1, 2, 3], [1, 3, 4], [4, 5, 2], [5, 3, 1]])
    flat = flat_graph(3, 2)
    for mesh in (extremes, signed,
                 MeshObj(flat.vertices * 0.1, flat.faces, ("flat",))):
        lines = [f"# {line}" for line in mesh.header]
        lines += [f"v {fmt17(x)} {fmt17(y)} {fmt17(z)}"
                  for x, y, z in mesh.vertices]
        lines += [f"f {i} {j} {k}" for i, j, k in mesh.faces]
        assert mesh.to_obj_text() == ("\n".join(lines) + "\n").encode("ascii")


def reference_obj(mesh):
    return ("".join(f"# {line}\n" for line in mesh.header)
            + "".join("v %.17g %.17g %.17g\n" % tuple(v)
                      for v in mesh.vertices.tolist())
            + "".join("f %d %d %d\n" % tuple(f) for f in mesh.faces.tolist()))


def _around(*values):
    """Each value between its two float neighbours."""
    return [v for x in values
            for v in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]


#: exact ties of the 18th significant digit, which `_fmt17_cells` hands to
#: `fmt17`: 10 (1e15 + 0.25) = 10000000000000002.5 rounds to even, down,
#: and 10 (1e15 + 0.75) up
TIES = [1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.375]

#: the nearest misses of a tie, which `_fmt17_cells` decides itself:
#: x 10^20 is a half-integer plus and minus 2^-46
NEAR_TIES = [0.00010019038333442954, 0.00010008122311088296]

#: magnitudes at the edges of the ``%.17g`` layouts and of `_fmt17_cells`
FMT17_BOUNDARY = [
    # where fixed notation switches to scientific, at the ends of the range
    # `_fmt17_cells` decides, where 17 integer digits end, and exponents of
    # three digits
    *_around(1e-5, 1e-4, 1e16, 1e17, 1e100, 1e-100),
    # doubles whose 17 digits round up to a power of ten
    math.nextafter(1e23, 0.0), 1e23, 1e-14, 1e98, 1e-176,
    # doubles just below a power of ten whose scaled high part rounds to
    # 1e17: their 17 digits are 9.99...
    1e-6, 1e-12, 1e24,
    # exact halves and ties
    0.5, 2.5, 0.125, *TIES, *NEAR_TIES,
    # deep in scientific notation, where `fmt17` writes every value
    *_around(1e-280, 1e290),
]


# the vertex counts at which the widest face index gains a digit, and the
# record counts around the chunk boundaries of the OBJ writer
@pytest.mark.parametrize("n", [3, 9, 10, 99, 100, 999, 1000, 1001, 10000,
                               10001, meshes._CHUNK - 1, meshes._CHUNK,
                               meshes._CHUNK + 1, 2 * meshes._CHUNK + 1])
@pytest.mark.parametrize("header", [(), ("made by test", "second line")])
def test_obj_text_equals_a_per_record_writer(tmp_path, n, header):
    rng = np.random.default_rng(n)
    # every coordinate drawn from the extremes or with a random exponent
    extremes = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, -1.0,
                *FMT17_BOUNDARY, *(-v for v in FMT17_BOUNDARY)]
    mixed = rng.standard_normal(3 * n) * 10.0 ** rng.integers(-320, 300, 3 * n)
    coordinates = np.where(rng.random(3 * n) < 0.3,
                           rng.choice(extremes, 3 * n), mixed)
    bare = MeshObj(coordinates.reshape(n, 3), np.empty((0, 3), dtype=int),
                   header)
    # faces that use every vertex, the last one included
    order = rng.permutation(n) + 1
    faced = MeshObj(rng.uniform(-1.0, 1.0, (n, 3)),
                    np.stack([order, np.roll(order, 1), np.roll(order, 2)], 1),
                    header)
    for mesh in (bare, faced):
        path = tmp_path / f"{mesh.n_faces}.obj"
        write_obj(mesh, str(path))
        assert path.read_bytes() == mesh.to_obj_text()
        assert mesh.to_obj_text() == reference_obj(mesh).encode("ascii")


def _blocks(*blocks):
    """A faceless mesh of `_CHUNK` vertices per block of coordinates (the
    last block as given), each block's values cycled to fill it."""
    rows = [np.resize(np.asarray(block, dtype=float), (meshes._CHUNK, 3))
            for block in blocks[:-1]]
    last = np.asarray(blocks[-1], dtype=float).reshape(-1, 3)
    return MeshObj(np.concatenate([*rows, last]), np.empty((0, 3), dtype=int))


#: coordinates with 17 significant digits, which widen a block's cells
DIGITS = np.random.default_rng(28).uniform(-1.0, 1.0, 3 * meshes._CHUNK)

#: magnitudes `_fmt17_cells` hands to `fmt17`, each with its own sign
UNDECIDED = [0.0, -0.0, 5e-324, -1e-300, 9.9e-5, -1e17, 1e200, *TIES,
             -TIES[0]]


def test_each_block_of_vertices_is_written_from_its_own_table():
    assert all(_undecidable(abs(v)) for v in UNDECIDED)
    # a repeated magnitude on both sides of the first boundary: the last
    # vertex of one block starts the next, once negated
    after = DIGITS.reshape(-1, 3)[:5].copy()
    after[:2] = DIGITS.reshape(-1, 3)[meshes._CHUNK - 1]
    after[0] *= -1.0
    for mesh in (
            # blocks of different cell widths: signed zeros, whose widest
            # cell is ``-0``, between blocks of 17-digit values
            _blocks(DIGITS, [0.0, -0.0, -0.0, 0.0], DIGITS[:7 * 3]),
            _blocks([0.0, -0.0, 0.0], DIGITS, [-0.0, 0.0, -0.0]),
            # a block whose every magnitude `fmt17` writes, and one part-block
            _blocks(UNDECIDED, DIGITS, UNDECIDED[:6]),
            _blocks(DIGITS, after)):
        assert mesh.to_obj_text() == reference_obj(mesh).encode("ascii")


@pytest.mark.parametrize("n", [12_345, 123_456])
def test_face_blocks_of_full_width_indices_are_not_compacted(n):
    # a block whose smallest index has every digit of the widest, 10^(w-1),
    # holds no NUL and skips the compaction; one index below it, 10^(w-1) - 1,
    # is a digit shorter, and so is compacted; blocks of both kinds alternate
    full = 10 ** (len(str(n)) - 1)
    rng = np.random.default_rng(n)
    blocks = []
    for smallest, size in ((full, meshes._CHUNK), (full - 1, meshes._CHUNK),
                           (full, meshes._CHUNK), (full - 1, meshes._CHUNK),
                           (full, 100)):
        first = rng.integers(full, n - 1, size)
        first[0] = smallest
        blocks.append(first[:, None] + np.arange(3))
    mesh = MeshObj(rng.uniform(-1.0, 1.0, (n, 3)), np.concatenate(blocks),
                   ("full width",))
    with mock.patch.object(meshes, "_records",
                           wraps=meshes._records) as records:
        text = mesh.to_obj_text()
    padded = [call.kwargs["padded"] for call in records.call_args_list
              if call.args[0] == "f"]
    assert padded == [False, True, False, True, False]
    assert text == reference_obj(mesh).encode("ascii")


def _carries(texts):
    """The doubles of decimal texts that lie below their text, yet whose 17
    significant digits end in zeros: rounding carried through a run of
    nines."""
    return [float(text) for text in texts
            if Fraction(float(text)) < Fraction(text)
            and len(fmt17(float(text)).replace(".", "").strip("0")) < 17]


def test_a_large_shuffled_table_is_laid_out_decade_by_decade():
    # a few thousand magnitudes over all 21 fixed-notation decades, shuffled,
    # so that each decade's rows are grouped by a stable sort before they
    # are laid out; the sorted table takes the contiguous-decade path
    rng = np.random.default_rng(29)
    decades = [float(f"1e{k}") for k in range(-4, 18)]
    spread = [lo * rng.uniform(1.0, 10.0, 120) for lo in decades[:-1]]
    carries = _carries([f"{m}e{e}" for m in range(101, 1000)
                        for e in range(-6, 15)])
    ends = [*meshes._DECADES, *(math.nextafter(v, 0.0) for v in decades[1:])]
    values = np.concatenate([
        *spread, carries, ends, TIES, NEAR_TIES, FMT17_BOUNDARY,
        [0.0, 5e-324, 9.9e-5, 1e17, 1e200, 1.7976931348623157e308]])
    assert len(carries) > 200
    inside = [_decade(Fraction(v)) for v in values.tolist()
              if 1e-4 <= v < 1e17]
    assert set(inside) == set(range(-4, 17))
    for table in (np.sort(values), rng.permutation(values)):
        with mock.patch.object(meshes, "fmt17", wraps=fmt17) as fallback:
            cells = meshes._fmt17_cells(table)
        texts = [fmt17(v) for v in table.tolist()]
        assert cells.shape == (len(table), max(map(len, texts)))
        assert [bytes(row).rstrip(b"\0") for row in cells] \
            == [text.encode("ascii") for text in texts]
        handed = [call.args[0] for call in fallback.call_args_list]
        assert handed == [v for v in table.tolist() if _undecidable(v)]


def test_no_double_of_a_decade_rounds_up_to_the_next():
    # the largest double of each decade is further than 1/2 below 10^17
    # once scaled, and rounding is monotone, so no 17 digits carry into the
    # next decade: `_fmt17_cells` needs no carry
    for k, bound in zip(range(-4, 17), [*meshes._DECADES[1:].tolist(),
                                        1e17]):
        largest = Fraction(math.nextafter(bound, 0.0))
        assert _decade(largest) == k
        assert largest * Fraction(10) ** (16 - k) < 10 ** 17 - Fraction(1, 2)


def _undecidable(value):
    """Is value zero, outside [1e-4, 1e17), or x 10^(16 - k) exactly a
    half-integer, with 10^k <= x < 10^(k+1)?"""
    exact = Fraction(value)
    if not Fraction(1, 10 ** 4) <= exact < 10 ** 17:
        return True
    k = _decade(exact)
    scaled = exact * Fraction(10) ** (16 - k)
    return scaled - math.floor(scaled) == Fraction(1, 2)


def _decade(exact):
    """k with 10^k <= exact < 10^(k+1), for a positive Fraction."""
    k = math.floor(math.log10(exact))
    return k + (exact >= Fraction(10) ** (k + 1)) - (exact < Fraction(10) ** k)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 0x7FEF_FFFF_FFFF_FFFF), min_size=1,
                max_size=40))
@example([int(v) for v in np.array(FMT17_BOUNDARY).view(np.int64)])
@example([0, 1, 0x000F_FFFF_FFFF_FFFF, 0x0010_0000_0000_0000,
          0x7FEF_FFFF_FFFF_FFFF])
def test_fmt17_cells_write_fmt17(bits):
    # float64 bit patterns over every exponent, subnormals included: the
    # cells are `fmt17`'s texts, as wide as the longest, and `fmt17` itself
    # writes exactly the values the exact product does not decide
    values = np.array(bits, dtype=np.int64).view(np.float64)
    with mock.patch.object(meshes, "fmt17", wraps=fmt17) as fallback:
        table = meshes._fmt17_cells(values)
    texts = [fmt17(v) for v in values.tolist()]
    assert table.dtype == np.uint8
    assert table.shape == (len(values), max(map(len, texts)))
    assert [bytes(row).rstrip(b"\0") for row in table] \
        == [text.encode("ascii") for text in texts]
    handed = [call.args[0] for call in fallback.call_args_list]
    assert handed == [v for v in values.tolist() if _undecidable(v)]
    # among them the ties, zero and values beyond the fixed-notation range
    assert all(map(_undecidable,
                   [*TIES, 0.0, 5e-324, 1e-300, 1e-280, 1e290, 1e300]))
    assert not any(map(_undecidable,
                       [0.1, 2.5, 1e-4, 1e17 - 16, *NEAR_TIES]))


#: the float64 bit patterns of 1e-4 and of 1e17 - 16, the ends of the range
#: `_fmt17_cells` decides
_FIXED_BITS = [int(b) for b in np.array([1e-4, 1e17 - 16]).view(np.int64)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.integers(*_FIXED_BITS), min_size=1, max_size=40))
@example(_FIXED_BITS)
@example([int(v) for v in np.array([v for v in FMT17_BOUNDARY
                                    if 1e-4 <= v < 1e17]).view(np.int64)])
def test_scaled_product_is_exact(bits):
    # k is x's decade, and high + low is x 10^(16 - k) with no rounding
    values = np.array(bits, dtype=np.int64).view(np.float64)
    k, high, low = meshes._scaled(values)
    for x, q, h, lo in zip(values.tolist(), (16 - k).tolist(),
                           high.tolist(), low.tolist()):
        assert 16 - q == _decade(Fraction(x))
        assert Fraction(h) + Fraction(lo) == Fraction(x) * 10 ** q


def test_decades_are_the_smallest_doubles_at_least_each_power_of_ten():
    assert len(meshes._DECADES) == len(meshes._SCALES) == 21
    for k, bound, scale in zip(range(-4, 17), meshes._DECADES.tolist(),
                               meshes._SCALES.tolist()):
        power = Fraction(10) ** k
        assert Fraction(math.nextafter(bound, 0.0)) < power <= Fraction(bound)
        assert Fraction(scale) == Fraction(10) ** (16 - k)


_DISPATCH_SCRIPT = """
import sys
import numpy as np
from heisurf import meshes
np.save(sys.argv[2], meshes._fmt17_cells(np.load(sys.argv[1])))
"""


def test_fmt17_cells_do_not_depend_on_the_cpu_dispatch(tmp_path,
                                                       without_dispatch):
    # the cells are the same bytes with every dispatched numpy kernel this
    # CPU runs switched off, in a fresh interpreter
    rng = np.random.default_rng(7)
    # bit patterns, most of them in the range the exact product decides
    bits = np.concatenate([rng.integers(*_FIXED_BITS, 40_000, endpoint=True),
                           rng.integers(0, 0x7FEF_FFFF_FFFF_FFFF, 2_000)])
    values = tmp_path / "values.npy"
    np.save(values, bits.view(np.float64))
    cells = tmp_path / "cells.npy"
    without_dispatch(_DISPATCH_SCRIPT, values, cells)
    expected = meshes._fmt17_cells(bits.view(np.float64))
    got = np.load(cells)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


_WRITER_SCRIPT = """
import sys
import numpy as np
from heisurf import meshes
mesh = meshes.MeshObj(np.load(sys.argv[1]), np.load(sys.argv[2]), ("cpu",))
with open(sys.argv[3], "wb") as fh:
    fh.write(mesh.to_obj_text())
"""


def test_obj_text_does_not_depend_on_the_cpu_dispatch(tmp_path,
                                                      without_dispatch):
    # the whole writer, tables, gathers, compaction and the face fast path
    # included, gives the same bytes with every dispatched numpy kernel this
    # CPU runs switched off
    rng = np.random.default_rng(29)
    # faces of consecutive vertices of a wide random cloud, whose blocks
    # start below and above 10000, the first index with every digit, then
    # faceless vertices from every decade, signed, with zeros, ties and
    # magnitudes below 1e-4 among them
    cloud = rng.uniform(-1e16, 1e16, (20_000, 3))
    bits = rng.integers(*_FIXED_BITS, 9 * meshes._CHUNK, endpoint=True)
    bits[::40] = rng.integers(0, _FIXED_BITS[0], len(bits[::40]))
    spread = bits.view(np.float64)
    spread[::97] = rng.choice([0.0, *TIES], len(spread[::97]))
    spread *= rng.choice([-1.0, 1.0], len(spread))
    vertices = np.concatenate([cloud, spread.reshape(-1, 3)])
    faces = np.arange(1, len(cloud) - 1)[:, None] + np.arange(3)
    np.save(tmp_path / "vertices.npy", vertices)
    np.save(tmp_path / "faces.npy", faces)
    obj = tmp_path / "mesh.obj"
    without_dispatch(_WRITER_SCRIPT, tmp_path / "vertices.npy",
                     tmp_path / "faces.npy", obj)
    mesh = MeshObj(vertices, faces, ("cpu",))
    assert obj.read_bytes() == mesh.to_obj_text()
    assert obj.read_bytes() == reference_obj(mesh).encode("ascii")


def test_a_stream_that_fails_partway_leaves_no_file(tmp_path, monkeypatch):
    mesh = flat_graph(2, 2)
    records = meshes._records
    calls = []

    def failing(kind, table, rows, **options):
        calls.append(kind)
        if len(calls) == 2:
            # the v records are in the temporary file by now
            assert [name for name in os.listdir(str(tmp_path))
                    if name.startswith(".tmp-") and name.endswith("~")]
            raise RuntimeError("stream broken")
        return records(kind, table, rows, **options)

    monkeypatch.setattr(meshes, "_records", failing)
    target = tmp_path / "mesh.obj"
    with pytest.raises(RuntimeError, match="stream broken"):
        write_obj(mesh, str(target))
    assert calls == ["v", "f"] and not os.listdir(str(tmp_path))
    target.write_bytes(b"old bytes\n")
    calls.clear()
    with pytest.raises(RuntimeError, match="stream broken"):
        write_obj(mesh, str(target))
    assert calls == ["v", "f"] and os.listdir(str(tmp_path)) == ["mesh.obj"]
    assert target.read_bytes() == b"old bytes\n"


def test_non_ascii_out_name_exits_two_and_makes_nothing(tmp_path, capsys):
    # the header, which repeats the command line, is encoded before the
    # writer makes a directory or a temporary file
    out = tmp_path / "out"
    assert cli.main(["export-obj", "--surface", "competitor", "--u", "1",
                     "--res", "2", "--out", "café",
                     "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: 'ascii' codec can't encode character '\\xe9' in position 66:"
        " ordinal not in range(128)\n")
    assert not out.exists()


@pytest.mark.parametrize("res", [100, 200])
def test_competitor_export_memory_follows_the_mesh_arrays(tmp_path, res):
    # validation and the OBJ writer work chunk by chunk, so neither peak
    # grows with a whole-mesh temporary or a whole-file text
    comp = build_competitor("minimal", 1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mesh = competitor_mesh(comp, 2.0, res, res)
        build_peak = tracemalloc.get_traced_memory()[1] - before
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_obj(mesh, str(tmp_path / "competitor.obj"))
        write_peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    arrays = mesh.vertices.nbytes + mesh.faces.nbytes
    assert build_peak <= 3 * arrays
    assert write_peak <= 3 * arrays


@pytest.mark.parametrize("res, write_bound", [(100, 1.0), (200, 0.5)])
def test_competitor_export_transient_does_not_follow_the_mesh(tmp_path, res,
                                                              write_bound):
    # the pieces are assembled in place and the writer's tables are made
    # per block of `_CHUNK` vertices, so the write's transient falls as a
    # share of the mesh arrays as the mesh grows
    comp = build_competitor("minimal", 1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mesh = competitor_mesh(comp, 2.0, res, res)
        build_peak = tracemalloc.get_traced_memory()[1] - before
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_obj(mesh, str(tmp_path / "competitor.obj"))
        write_peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    arrays = mesh.vertices.nbytes + mesh.faces.nbytes
    assert build_peak <= 2 * arrays
    assert write_peak <= write_bound * arrays


@pytest.mark.parametrize("argv, digest", [
    (("export-obj", "--surface", "competitor", "--u", "1",
      "--competitor-kind", "minimal", "--res", "100"),
     "9558698cf7413185dd2846eeb9186ea80e68399a3d48c0abc67801aebd729217"),
    (("export-obj", "--surface", "strip", "--profile",
      "samples(-2,0.3,-1,-0.9,0,0.4,1,1.5,2,0.25)", "--window", "-2,2",
      "--res", "100"),
     "9efa6814e739cd68342e44dff45b25a08edd19e0f4d236a579da67ee2677cce6"),
])
def test_obj_records_are_pinned(tmp_path, monkeypatch, argv, digest):
    # the v and f records, without the header that repeats the command line
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main(list(argv)) == 0
    (path,) = tmp_path.iterdir()
    records = b"".join(line for line in path.read_bytes().splitlines(True)
                       if not line.startswith(b"#"))
    assert hashlib.sha256(records).hexdigest() == digest


def test_competitor_export_validates_its_mesh_once(tmp_path, monkeypatch):
    # the drop mask of the patch grid and the check of the merged mesh are
    # the only area evaluations; no piece is validated on its own
    evaluated = []
    areas = meshes._triangle_areas

    def counted(vertices, faces):
        evaluated.append(len(faces))
        return areas(vertices, faces)

    monkeypatch.setattr(meshes, "_triangle_areas", counted)
    res = 20
    assert cli.main(["export-obj", "--surface", "competitor", "--u", "1",
                     "--res", str(res), "--output-dir", str(tmp_path)]) == 0
    with open(tmp_path / "competitor.obj", encoding="ascii") as fh:
        merged = sum(line.startswith("f ") for line in fh)
    assert sum(evaluated) <= 2 * res * res + merged

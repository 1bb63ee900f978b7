"""Deterministic structured-grid meshes and Wavefront OBJ export."""
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

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
from heisurf.strips import PwlProfile, broken_plane, strip_surface


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
    surface = sigma_rho_surface(lambda z: z, (-2.0, 2.0))
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


# the vertex counts at which the widest face index gains a digit, and the
# record counts around the chunk boundaries of the OBJ writer
@pytest.mark.parametrize("n", [3, 9, 10, 99, 100, 999, 1000, 1001, 10000,
                               10001, meshes._CHUNK - 1, meshes._CHUNK,
                               meshes._CHUNK + 1, 2 * meshes._CHUNK + 1])
@pytest.mark.parametrize("header", [(), ("made by test", "second line")])
def test_obj_text_equals_a_per_record_writer(tmp_path, n, header):
    rng = np.random.default_rng(n)
    # every coordinate drawn from the extremes or with a random exponent
    extremes = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, -1.0]
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


def test_a_stream_that_fails_partway_leaves_no_file(tmp_path, monkeypatch):
    mesh = flat_graph(2, 2)
    records = meshes._records
    calls = []

    def failing(kind, cells):
        calls.append(kind)
        if len(calls) == 2:
            # the v records are in the temporary file by now
            assert [name for name in os.listdir(str(tmp_path))
                    if name.startswith(".tmp-") and name.endswith("~")]
            raise RuntimeError("stream broken")
        return records(kind, cells)

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

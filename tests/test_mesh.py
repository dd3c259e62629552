"""Mesh construction, refinement, prolongation and geometry queries."""
import io
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ocfem import (Mesh, MeshError, MeshSizeError, P0Field, P1Field,
                   barycenters, build_unit_square_mesh, prolong_p0,
                   prolong_p1, refine)
from ocfem.fem import _boundary_edges
from ocfem.mesh import barycentric_coordinates, check_level, locate


def canonical_triangles(mesh):
    """Mesh as a set of coordinate triples, invariant to renumbering."""
    tris = set()
    for tri in mesh.triangles:
        pts = sorted(tuple(np.round(mesh.vertices[v], 12)) for v in tri)
        tris.add(tuple(map(tuple, pts)))
    return tris


def count_edges(mesh):
    tri = mesh.triangles.astype(np.int64)
    edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                    tri[:, [2, 0]]]), axis=1)
    keys = np.sort(edges[:, 0] * mesh.num_vertices + edges[:, 1])
    # Counted on the sorted keys: a bare np.unique of 6.3M int64 keys takes
    # numpy 2.4's hash path, about 30 times slower than sorting them.
    return 1 + np.count_nonzero(np.diff(keys))


def test_builder_level3_counts():
    mesh = build_unit_square_mesh(3)
    assert mesh.num_vertices == 81
    assert mesh.num_triangles == 128
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 8.0, rel=1e-15)


def test_builder_level0_base_case():
    mesh = build_unit_square_mesh(0)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    assert mesh.h == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_builder_level5_partition_of_unity():
    mesh = build_unit_square_mesh(5)
    assert abs(mesh.areas.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("level", range(7))
def test_builder_invariants(level):
    mesh = build_unit_square_mesh(level)
    mesh.validate()
    n = 1 << level
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_triangles == 2 * 4 ** level
    assert np.all(mesh.areas > 0.0)
    assert abs(mesh.areas.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6, 10])
def test_euler_formula(level):
    mesh = build_unit_square_mesh(level)
    v, e, f = mesh.num_vertices, count_edges(mesh), mesh.num_triangles
    assert v - e + f == 1


def test_boundary_length():
    mesh = build_unit_square_mesh(4)
    edges = _boundary_edges(mesh)
    p0 = mesh.vertices[edges[:, 0]]
    p1 = mesh.vertices[edges[:, 1]]
    total = np.linalg.norm(p1 - p0, axis=1).sum()
    assert abs(total - 4.0) <= 1e-12


def test_boundary_edges_belong_to_owner():
    # The derived boundary: each edge (i < j) lies in exactly one triangle,
    # and it is derived once per mesh and read-only.
    mesh = build_unit_square_mesh(3)
    edges = _boundary_edges(mesh)
    assert len(edges) == 4 * 8
    assert np.all(edges[:, 0] < edges[:, 1])
    for v0, v1 in edges:
        owners = [t for t in mesh.triangles if {v0, v1} <= set(t)]
        assert len(owners) == 1
    assert _boundary_edges(mesh) is edges
    assert not edges.flags.writeable


def test_refine_matches_direct_build():
    child = refine(build_unit_square_mesh(3))
    child.validate()
    assert canonical_triangles(child) == \
        canonical_triangles(build_unit_square_mesh(4))


def test_double_refine_matches_two_level_build():
    mesh = build_unit_square_mesh(2)
    once = refine(mesh)
    twice = refine(once)
    assert canonical_triangles(twice) == \
        canonical_triangles(build_unit_square_mesh(4))


def test_refine_halves_h():
    mesh = build_unit_square_mesh(3)
    child = refine(mesh)
    assert child.h == pytest.approx(mesh.h / 2.0, rel=1e-14)


def test_prolongation_p1_exact_for_linear():
    mesh = build_unit_square_mesh(3)
    child = refine(mesh)
    field = P1Field(mesh, mesh.vertices[:, 0])
    fine = prolong_p1(child, field)
    assert np.max(np.abs(fine.values - child.vertices[:, 0])) <= 1e-15


def test_prolongation_p0_is_exact_injection():
    mesh = build_unit_square_mesh(2)
    child = refine(mesh)
    rng = np.random.default_rng(3)
    coarse = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    fine = prolong_p0(child, coarse)
    pulled = fine.values[::4], fine.values[1::4], fine.values[2::4], \
        fine.values[3::4]
    for block in pulled:
        assert np.array_equal(block, coarse.values)


@pytest.mark.parametrize("prolong, field_type",
                         [(prolong_p1, P1Field), (prolong_p0, P0Field)])
@pytest.mark.parametrize("target", ["root", "grandchild"])
def test_prolongation_refuses_a_mesh_not_refined_from_the_field(
        prolong, field_type, target):
    mesh = build_unit_square_mesh(1)
    child = refine(mesh)
    # A root of the child's size, or a refinement two levels down.
    wrong = {"root": build_unit_square_mesh(2),
             "grandchild": refine(child)}[target]
    with pytest.raises(MeshError, match="parent mesh"):
        prolong(wrong, field_type.zeros(mesh))
    assert prolong(child, field_type.zeros(mesh)).mesh is child


def test_nestedness_every_child_inside_parent():
    mesh = build_unit_square_mesh(2)
    child = refine(mesh)
    centers = barycenters(child)
    parents = np.arange(child.num_triangles) // 4
    lam = barycentric_coordinates(mesh, parents, centers)
    assert lam.min() >= -1e-13


def test_barycenter_reference_triangle():
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), 0)
    assert barycenters(mesh)[0] == pytest.approx([1.0 / 3.0, 1.0 / 3.0])


def test_barycenters_inside_their_triangles():
    mesh = build_unit_square_mesh(0)
    centers = barycenters(mesh)
    assert len(centers) == 2
    lam = barycentric_coordinates(mesh, np.arange(2), centers)
    assert lam.min() > 0.0


def test_area_weighted_barycenters_give_centroid():
    mesh = build_unit_square_mesh(3)
    centroid = (mesh.areas[:, None] * barycenters(mesh)).sum(axis=0)
    assert centroid == pytest.approx([0.5, 0.5], abs=1e-12)


def test_size_error():
    with pytest.raises(MeshSizeError):
        build_unit_square_mesh(40)


def test_check_level_matches_the_builder():
    check_level(15)                     # 32769**2 vertices still fit
    for level in (16, 40, 10 ** 9):
        with pytest.raises(MeshSizeError, match=f"level {level} "):
            check_level(level)
    with pytest.raises(MeshError):
        check_level(-1)


def test_refine_refuses_child_triangle_indices_beyond_int32():
    # Checked from the counts alone, before any array is touched.
    stand_in = SimpleNamespace(num_vertices=4, num_triangles=2 ** 29 + 1)
    with pytest.raises(MeshSizeError):
        refine(stand_in)


def _refined_chain(levels):
    mesh = build_unit_square_mesh(0)
    for _ in range(levels):
        child = refine(mesh)
        yield mesh, child
        mesh = child


@pytest.mark.parametrize("level", range(7))
def test_refine_keeps_parent_vertex_indices(level):
    mesh = build_unit_square_mesh(level)
    child = refine(mesh)
    assert np.array_equal(child.vertices[:mesh.num_vertices], mesh.vertices)


def test_middle_child_has_parent_barycenter():
    # Dyadic coordinates: the vertex sums are exact, so the barycenters are
    # equal bit for bit.
    for mesh, child in _refined_chain(7):
        assert np.array_equal(barycenters(child)[3::4], barycenters(mesh))


@pytest.mark.parametrize("level", range(7))
def test_refined_boundary_edges_split_at_midpoints(level):
    # The boundary derived on the child is the parent's, each edge split
    # into its two halves at its midpoint vertex.
    mesh = build_unit_square_mesh(level)
    child = refine(mesh)
    child.validate()
    at = {tuple(x): k for k, x in enumerate(child.vertices.tolist())}
    halves = set()
    for v0, v1 in _boundary_edges(mesh).tolist():
        m = at[tuple(0.5 * (mesh.vertices[v0] + mesh.vertices[v1]))]
        halves |= {(min(v0, m), max(v0, m)), (min(m, v1), max(m, v1))}
    assert set(map(tuple, _boundary_edges(child).tolist())) == halves
    assert len(_boundary_edges(child)) == len(halves)


def _reference_refinement(mesh):
    """Midpoint table as built by row-wise ``np.unique``."""
    tri = mesh.triangles
    edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                    tri[:, [2, 0]]]), axis=1)
    uniq, inverse = np.unique(edges, axis=0, return_inverse=True)
    return uniq, mesh.num_vertices + inverse.reshape(3, -1)


def test_refine_matches_row_wise_edge_dedup():
    assert build_unit_square_mesh(0).midpoints is None
    for mesh, child in _refined_chain(6):
        uniq, mid = _reference_refinement(mesh)
        assert child.parent is mesh
        assert np.array_equal(child.midpoints, uniq)
        assert not child.midpoints.flags.writeable
        assert np.array_equal(child.triangles[3::4], mid.T)


def test_locate_structured_and_refined():
    mesh = build_unit_square_mesh(3)
    child = refine(mesh)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    for m in (mesh, child):
        tri = locate(m, pts)
        lam = barycentric_coordinates(m, tri, pts)
        assert lam.min() >= -1e-12


def test_locate_requires_structured_ancestor():
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), 0)
    with pytest.raises(MeshError):
        locate(mesh, np.array([[0.1, 0.1]]))


def test_vertex_numbering_is_lexicographic():
    mesh = build_unit_square_mesh(2)
    order = np.lexsort((mesh.vertices[:, 0], mesh.vertices[:, 1]))
    assert np.array_equal(order, np.arange(mesh.num_vertices))


def test_mesh_dump_format():
    mesh = build_unit_square_mesh(1)
    out = io.StringIO()
    mesh.write_text(out)
    lines = out.getvalue().splitlines()
    nv, nt = map(int, lines[0].split())
    assert (nv, nt) == (9, 8)
    assert len(lines) == 1 + nv + nt
    coords = np.array([[float(tok) for tok in line.split()]
                       for line in lines[1:1 + nv]])
    assert np.array_equal(coords, mesh.vertices)


def test_validate_accepts_the_unit_square():
    build_unit_square_mesh(0).validate()


def test_validate_rejects_an_edge_in_three_triangles():
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                          [0.5, 1.0]]),
                np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]), 0)
    with pytest.raises(MeshError, match="shared by >2 triangles"):
        mesh.validate()


def test_invalid_mesh_triangle_index_out_of_range():
    for bad in (-1, 3):
        with pytest.raises(MeshError, match="outside the vertex range"):
            Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                 np.array([[0, 1, bad]]), 0)


def test_invalid_mesh_negative_area():
    with pytest.raises(MeshError):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 2, 1]]), 0)   # clockwise


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_invalid_mesh_non_finite_vertex(bad):
    # A NaN area would pass the positive-area test; refuse it before.
    with pytest.raises(MeshError, match="finite"):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, bad]]),
             np.array([[0, 1, 2]]), 0)


@pytest.mark.parametrize("vertices", [
    [[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]],     # the area overflows
    [[0.0, 0.0], [1e155, 0.0], [0.0, 1e-155]],    # area 0.5, h overflows
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-310]],      # the gradients overflow
], ids=["area", "diameter", "gradient"])
def test_invalid_mesh_overflowing_triangle(vertices):
    # Finite coordinates: only the derived quantities are not finite.
    with pytest.raises(MeshError, match="finite"), np.errstate(over="ignore"):
        Mesh(np.array(vertices), np.array([[0, 1, 2]]), 0)


@pytest.mark.parametrize("vertices", [
    [[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]],
    [[0.0, 0.0], [1e155, 0.0], [0.0, 1e-155]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-310]],
], ids=["area", "diameter", "gradient"])
def test_invalid_mesh_overflow_raises_without_warnings(vertices):
    # The refusal is the one message: no numpy overflow warning before it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match="finite"):
            Mesh(np.array(vertices), np.array([[0, 1, 2]]), 0)


@pytest.mark.parametrize("level", range(5))
def test_gradients_of_given_triangles_are_those_of_all(level):
    # The given triangles' rows of the full (nt, 3, 2) array, bit for bit;
    # grad(lambda_i) . (p_j - p_0) = lambda_i(p_j) - lambda_i(p_0).
    mesh = refine(build_unit_square_mesh(level))
    grads = mesh.gradients()
    assert grads.shape == (mesh.num_triangles, 3, 2)
    idx = np.random.default_rng(level).integers(0, mesh.num_triangles,
                                                (4, 5))
    assert np.array_equal(mesh.gradients(idx), grads[idx])
    p = mesh.vertices[mesh.triangles]
    np.testing.assert_allclose(
        np.einsum("tid,tjd->tij", grads, p - p[:, :1]),
        np.broadcast_to(np.eye(3) - [[1, 1, 1], [0, 0, 0], [0, 0, 0]],
                        (mesh.num_triangles, 3, 3)), atol=1e-12)


def test_quasi_uniformity_equal_diameters():
    for level in (0, 2, 4):
        mesh = build_unit_square_mesh(level)
        p = mesh.vertices[mesh.triangles]
        edges = p - np.roll(p, 1, axis=1)
        diameters = np.sqrt(np.max(np.sum(edges ** 2, axis=2), axis=1))
        assert np.max(diameters) / np.min(diameters) <= 1.0 + 1e-12

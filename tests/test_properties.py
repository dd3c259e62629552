"""Property tests of the nested mesh hierarchy (samples by index against
point location, exact prolongation, cross-level norms, and the layout
``refine`` fixes), of the P1 mass matrix against its closed form, of the
exact symmetry of every assembled operator, and of the reduced gradient
against central differences of the cost.

Every test is derandomized, so each run draws the same examples.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocfem import (Linearization, Mesh, P0Field, P1Field,
                   assemble_stiffness, assemble_weighted_mass, barycenters,
                   fem, build_unit_square_mesh, cost, get_preset, l2_diff_p0,
                   l2_diff_p0_cross, l2_diff_p1, l2_diff_p1_cross,
                   postprocessed_samples, prolong_p0, prolong_p1, refine)
from ocfem.mesh import barycentric_coordinates, locate

EPS = np.finfo(float).eps
deterministic = settings(derandomize=True, deadline=None, max_examples=50)
seeds = st.integers(0, 2 ** 32 - 1)


@pytest.fixture(scope="module")
def hierarchy():
    """Meshes of levels 0..7 refined from one root."""
    meshes = [build_unit_square_mesh(0)]
    for _ in range(7):
        meshes.append(refine(meshes[-1]))
    return meshes


@deterministic
@given(level=st.integers(0, 4), k=st.integers(0, 3), seed=seeds,
       alpha=st.floats(-1.0, 0.0), width=st.floats(0.01, 2.0),
       nu=st.floats(0.05, 2.0), scale=st.floats(1e-3, 1e3))
def test_samples_on_match_located_values(hierarchy, level, k, seed, alpha,
                                         width, nu, scale):
    coarse, fine = hierarchy[level], hierarchy[level + k]
    rng = np.random.default_rng(seed)
    y = scale * rng.uniform(-1.0, 1.0, fine.num_vertices)
    phi = rng.uniform(-1.0, 1.0, fine.num_vertices)
    spec = get_preset("paper-sec6").with_overrides(
        alpha=alpha, beta=alpha + width, nu=nu)
    points = np.concatenate([coarse.vertices[coarse.triangles],
                             barycenters(coarse)[:, None, :]],
                            axis=1).reshape(-1, 2)
    tri = locate(fine, points)
    lam = barycentric_coordinates(fine, tri, points)
    nodes = fine.triangles[tri]
    located = spec.clamp(np.sum(y[nodes] * lam, axis=-1)
                         * np.sum(phi[nodes] * lam, axis=-1)
                         / nu).reshape(-1, 4)
    samples = postprocessed_samples(spec, P1Field(fine, y),
                                    P1Field(fine, phi), coarse)
    assert np.array_equal(samples[:, :3], located[:, :3])
    # Barycentric coordinates at a barycenter carry round-off of order
    # eps / h, relative to the size of the unclamped product.
    bound = 4.0 * EPS / fine.h * np.abs(y).max() * np.abs(phi).max() / nu
    assert np.max(np.abs(samples[:, 3] - located[:, 3])) <= bound


@deterministic
@given(level=st.integers(0, 6), seed=seeds, scale=st.floats(1e-6, 1e6))
def test_prolongation_keeps_the_l2_norm(hierarchy, level, seed, scale):
    mesh, child = hierarchy[level], hierarchy[level + 1]
    rng = np.random.default_rng(seed)
    p1 = P1Field(mesh, scale * rng.uniform(-1.0, 1.0, mesh.num_vertices))
    fine = prolong_p1(child, p1)
    assert l2_diff_p1(fine, P1Field(child, np.zeros_like(fine.values))) == \
        pytest.approx(l2_diff_p1(p1, P1Field(mesh, np.zeros_like(p1.values))),
                      rel=1e-13)
    # Bit for bit: inherited vertices keep their values, and each midpoint,
    # placed between the two parent vertices the child mesh names, takes the
    # half-sum of their values.
    nv, ends = mesh.num_vertices, child.midpoints
    assert np.array_equal(child.vertices[nv:], (mesh.vertices[ends[:, 0]]
                                                + mesh.vertices[ends[:, 1]]) / 2)
    assert np.array_equal(fine.values[:nv], p1.values)
    assert np.array_equal(fine.values[nv:], (p1.values[ends[:, 0]]
                                             + p1.values[ends[:, 1]]) / 2)
    p0 = P0Field(mesh, scale * rng.uniform(-1.0, 1.0, mesh.num_triangles))
    fine = prolong_p0(child, p0)
    assert l2_diff_p0(fine, P0Field.zeros(child)) == \
        pytest.approx(l2_diff_p0(p0, P0Field.zeros(mesh)), rel=1e-13)
    assert np.array_equal(fine.values,
                          p0.values[np.arange(child.num_triangles) // 4])


@deterministic
@given(level=st.integers(0, 4), seed=seeds, scale=st.floats(1e-6, 1e6))
def test_cross_level_norms_equal_same_level_norms(hierarchy, level, seed,
                                                  scale):
    # The P1 and P0 spaces are nested, so the distance between a coarse
    # field and the prolongation of another is their same-level distance.
    mesh, child = hierarchy[level], hierarchy[level + 1]
    rng = np.random.default_rng(seed)
    a, b = scale * rng.uniform(-1.0, 1.0, (2, mesh.num_vertices))
    assert l2_diff_p1_cross(P1Field(mesh, a),
                            prolong_p1(child, P1Field(mesh, b))) == \
        pytest.approx(l2_diff_p1(P1Field(mesh, a), P1Field(mesh, b)),
                      rel=1e-12)
    a, b = scale * rng.uniform(-1.0, 1.0, (2, mesh.num_triangles))
    assert l2_diff_p0_cross(P0Field(mesh, a),
                            prolong_p0(child, P0Field(mesh, b))) == \
        pytest.approx(l2_diff_p0(P0Field(mesh, a), P0Field(mesh, b)),
                      rel=1e-12)


def jittered_mesh(level, seed, jitter):
    """The level's mesh with its interior vertices moved by up to
    ``jitter`` cells: still valid, but no longer structured."""
    mesh = build_unit_square_mesh(level)
    n = 1 << level
    interior = np.all((mesh.vertices > 0.0) & (mesh.vertices < 1.0), axis=1)
    moved = mesh.vertices.copy()
    moved[interior] += jitter / n * np.random.default_rng(seed).uniform(
        -1.0, 1.0, (int(interior.sum()), 2))
    return Mesh(moved, mesh.triangles, level)


@deterministic
@given(level=st.integers(0, 4), seed=seeds, jitter=st.floats(0.0, 0.125),
       weight=st.floats(1e-3, 1e3))
def test_p1_mass_matches_closed_form(level, seed, jitter, weight):
    # int lambda_i lambda_j over a triangle T is |T|/12 (1 + delta_ij).
    mesh = jittered_mesh(level, seed, jitter)
    tri = mesh.triangles
    e1, e2 = (mesh.vertices[tri[:, k]] - mesh.vertices[tri[:, 0]]
              for k in (1, 2))
    area = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) / 2.0
    exact = np.zeros((mesh.num_vertices, mesh.num_vertices))
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    for i in range(3):
        for j in range(3):
            np.add.at(exact, (tri[:, i], tri[:, j]), area * local[i, j])
    shape = (mesh.num_triangles, len(fem.TRIANGLE_WEIGHTS))
    assert np.max(np.abs(assemble_weighted_mass(mesh, np.ones(shape))
                         .matrix.toarray() - exact)) \
        <= 4.0 * EPS * np.abs(exact).max()
    assert np.max(np.abs(assemble_weighted_mass(mesh, np.full(shape, weight))
                         .matrix.toarray() - weight * exact)) \
        <= 8.0 * EPS * weight * np.abs(exact).max()


def varying_diffusion(x):
    """A symmetric, anisotropic coefficient that varies in space."""
    out = np.empty(x.shape[:-1] + (2, 2))
    out[..., 0, 0] = 2.0 + x[..., 0]
    out[..., 1, 1] = 1.0 + x[..., 1] ** 2
    out[..., 0, 1] = out[..., 1, 0] = 0.3 * np.sin(3.0 * x[..., 0]) \
        * x[..., 1]
    return out


@deterministic
@given(level=st.integers(0, 5), seed=seeds, jitter=st.floats(0.0, 0.125))
def test_assembled_operators_are_exactly_symmetric(level, seed, jitter):
    # Operators are not checked for symmetry when built: every one that
    # fem assembles must equal its transpose bit for bit.
    mesh = jittered_mesh(level, seed, jitter)
    weight = np.random.default_rng(seed).uniform(
        -1.0, 2.0, (mesh.num_triangles, len(fem.TRIANGLE_WEIGHTS)))
    for op in (assemble_stiffness(mesh),
               assemble_stiffness(mesh, varying_diffusion),
               assemble_weighted_mass(mesh, weight),
               fem.add_weighted_mass(mesh, None, weight),
               fem.add_weighted_mass(mesh, varying_diffusion, weight)):
        transpose = op.matrix.T.tocsr()
        transpose.sort_indices()
        assert np.array_equal(op.matrix.indptr, transpose.indptr)
        assert np.array_equal(op.matrix.indices, transpose.indices)
        assert op.matrix.data.tobytes() == transpose.data.tobytes()


@deterministic
@given(level=st.integers(0, 5), seed=seeds, jitter=st.floats(0.0, 0.125))
def test_refine_keeps_vertices_and_middle_barycenters(level, seed, jitter):
    # The layout must not depend on the structure of the mesh.
    mesh = jittered_mesh(level, seed, jitter)
    child = refine(mesh)
    assert np.array_equal(child.vertices[:mesh.num_vertices], mesh.vertices)
    middle = barycenters(child)[3::4]
    assert np.max(np.abs(middle - barycenters(mesh))) <= 4.0 * EPS


@deterministic
@given(level=st.integers(1, 3), seed=seeds)
def test_gradient_matches_central_differences(level, seed):
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(level)
    rng = np.random.default_rng(seed)
    u = P0Field(mesh, rng.uniform(spec.alpha, spec.beta, mesh.num_triangles))
    v = rng.standard_normal(mesh.num_triangles)
    problem = Linearization(spec, mesh, u)
    derivative = float(np.sum(mesh.areas * problem.gradient * v))
    t = 1e-4
    plus, minus = (cost(spec, mesh, P0Field(mesh, u.values + step * v),
                        init=problem.state) for step in (t, -t))
    fd = (plus - minus) / (2.0 * t)
    assert abs(derivative - fd) <= 1e-5 * (1.0 + abs(derivative))

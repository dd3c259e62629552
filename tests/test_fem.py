"""Assembly, quadrature, projection and norm evaluation.

Derived expectations are computed by independent oracles: closed-form
monomial integrals over triangles (factorial formula in barycentric
coordinates) and tensor-product Gauss quadrature for non-polynomial data.
"""
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from ocfem import (Mesh, MeshError, OcfemError, P0Field, P1Field,
                   TRIANGLE_RULE, assemble_boundary_load, assemble_stiffness,
                   assemble_volume_load, assemble_weighted_mass, barycenters,
                   build_unit_square_mesh, integrate, l2_diff_p0,
                   l2_diff_p0_cross, l2_diff_p1, l2_diff_p1_cross,
                   l2_project_p0, linf_diff_p1, prolong_p0, refine)
from ocfem import fem, get_preset, pde
from ocfem.linalg import SparseSymOperator


def reference_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), 0)


def at_quadrature(mesh, f):
    """Values of the coefficient ``f(x)`` at the mesh's quadrature points."""
    return fem.at_points(f, fem.quadrature_points(mesh))


def integrate_p1_power(mesh, nodal, power):
    """Oracle: exact integral of (P1 field)**power by the factorial formula
    for barycentric monomials, summing the multinomial expansion."""
    corners = nodal[mesh.triangles]                   # (nt, 3)
    total = np.zeros(mesh.num_triangles)
    for combo in itertools.product(range(3), repeat=power):
        expo = [combo.count(k) for k in range(3)]
        coef = 2.0 * math.factorial(expo[0]) * math.factorial(expo[1]) * \
            math.factorial(expo[2]) / math.factorial(power + 2)
        term = np.ones(mesh.num_triangles)
        for k in combo:
            term = term * corners[:, k]
        total += coef * term
    return total * mesh.areas


def gauss_product_integral(f, n=48):
    """Oracle: tensor-product Gauss-Legendre integral over the unit square."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    xx, yy = np.meshgrid(x, x)
    vals = f(np.stack([xx, yy], axis=-1))
    return float(np.einsum("i,j,ij->", w, w, vals))


def test_volume_rule_exact_to_degree_4():
    rule = TRIANGLE_RULE
    assert abs(rule.weights.sum() - 1.0) <= 1e-15
    xy = rule.points[:, 1:3]
    for a in range(5):
        for b in range(5 - a):
            approx = 0.5 * float(rule.weights @ (xy[:, 0] ** a * xy[:, 1] ** b))
            exact = math.factorial(a) * math.factorial(b) / \
                math.factorial(a + b + 2)
            assert abs(approx - exact) <= 5e-14 * exact


def test_boundary_rule_exact_to_degree_5():
    for k in range(6):
        approx = float(fem.EDGE_RULE_WEIGHTS @ fem.EDGE_RULE_POINTS ** k)
        assert abs(approx - 1.0 / (k + 1)) <= 1e-15 * (k + 1)


def test_stiffness_kernel_contains_constants():
    mesh = build_unit_square_mesh(3)
    K = assemble_stiffness(mesh)
    assert np.max(np.abs(K.matvec(np.ones(mesh.num_vertices)))) <= 1e-13

    def diffusion(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 + x[..., 0]
        out[..., 1, 1] = 1.0 + x[..., 1]
        out[..., 0, 1] = out[..., 1, 0] = 0.25
        return out

    K_var = assemble_stiffness(mesh, diffusion)
    assert np.max(np.abs(K_var.matvec(np.ones(mesh.num_vertices)))) <= 1e-13


def test_local_stiffness_matches_symbolic_reference():
    K = assemble_stiffness(reference_triangle()).matrix.toarray()
    exact = np.array([[1.0, -0.5, -0.5],
                      [-0.5, 0.5, 0.0],
                      [-0.5, 0.0, 0.5]])
    assert np.max(np.abs(K - exact)) <= 1e-14


def test_stiffness_energy_of_linear_field():
    mesh = build_unit_square_mesh(4)
    y = mesh.vertices[:, 0]
    K = assemble_stiffness(mesh)
    assert y @ K.matvec(y) == pytest.approx(1.0, abs=1e-12)


def test_stiffness_symmetry_identity():
    mesh = build_unit_square_mesh(3)
    K = assemble_stiffness(mesh)
    rng = np.random.default_rng(4)
    y, z = rng.standard_normal((2, mesh.num_vertices))
    assert z @ K.matvec(y) == pytest.approx(y @ K.matvec(z), rel=1e-13)


def test_anisotropic_diffusion_energy():
    mesh = build_unit_square_mesh(4)

    def diffusion(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 3.0
        out[..., 1, 1] = 1.0
        return out

    y = mesh.vertices[:, 0]
    K = assemble_stiffness(mesh, diffusion)
    assert y @ K.matvec(y) == pytest.approx(3.0, abs=1e-12)


def test_nonsymmetric_diffusion_rejected():
    def diffusion(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        out[..., 0, 1] = 0.5
        return out

    with pytest.raises(OcfemError):
        assemble_stiffness(build_unit_square_mesh(1), diffusion)


def test_unit_weight_total_mass():
    mesh = build_unit_square_mesh(3)
    M = assemble_weighted_mass(mesh, at_quadrature(mesh, lambda x: 1.0))
    one = np.ones(mesh.num_vertices)
    assert one @ M.matvec(one) == pytest.approx(1.0, abs=1e-12)


def test_p0_weight_total_mass():
    mesh = build_unit_square_mesh(3)
    rng = np.random.default_rng(8)
    w = rng.uniform(0.5, 2.0, mesh.num_triangles)
    M = assemble_weighted_mass(mesh, np.repeat(
        w[:, None], len(TRIANGLE_RULE.weights), axis=1))
    one = np.ones(mesh.num_vertices)
    assert one @ M.matvec(one) == pytest.approx(
        float(np.sum(w * mesh.areas)), rel=1e-13)


def test_coordinate_weight_total_mass():
    mesh = build_unit_square_mesh(4)
    M = assemble_weighted_mass(mesh, at_quadrature(mesh, lambda x: x[..., 0]))
    one = np.ones(mesh.num_vertices)
    assert one @ M.matvec(one) == pytest.approx(0.5, abs=1e-10)


def test_boundary_load_partition_of_unity():
    mesh = build_unit_square_mesh(4)
    b = assemble_boundary_load(mesh, lambda x: np.ones(len(x)))
    assert b.sum() == pytest.approx(4.0, abs=1e-12)
    # A constant flux may return a scalar: the same load, bit for bit.
    assert np.array_equal(assemble_boundary_load(mesh, lambda x: 1.0), b)


def _square_sides(level):
    """Oracle: the boundary of ``build_unit_square_mesh(level)`` listed side
    by side (bottom, right, top, left), counterclockwise, from the
    lexicographic vertex numbering."""
    n = 1 << level
    idx = np.arange(n)
    return np.concatenate([
        np.column_stack([idx, idx + 1]),
        np.column_stack([idx * (n + 1) + n, (idx + 1) * (n + 1) + n]),
        np.column_stack([n * (n + 1) + idx + 1, n * (n + 1) + idx]),
        np.column_stack([(idx + 1) * (n + 1), idx * (n + 1)]),
    ])


def _split_at_midpoints(parent, child, edges):
    """Oracle: each parent boundary edge (v0, v1) becomes (v0, m) and
    (m, v1), m the child vertex at its midpoint (dyadic, so exact)."""
    at = {tuple(x): k for k, x in enumerate(child.vertices.tolist())}
    rows = []
    for v0, v1 in edges.tolist():
        m = at[tuple(0.5 * (parent.vertices[v0] + parent.vertices[v1]))]
        rows += [(v0, m), (m, v1)]
    return np.array(rows)


def _edge_load(mesh, edges, g):
    """Oracle: ``int_Gamma g phi_i`` edge by edge with the 3-point rule."""
    out = np.zeros(mesh.num_vertices)
    for v0, v1 in edges.tolist():
        p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
        length = np.linalg.norm(p1 - p0)
        for t, w in zip(fem.EDGE_RULE_POINTS, fem.EDGE_RULE_WEIGHTS):
            gv = g(((1.0 - t) * p0 + t * p1)[None])[0] * w * length
            out[v0] += gv * (1.0 - t)
            out[v1] += gv * t
    return out


@pytest.mark.parametrize("level, built", [(j, "built") for j in range(7)]
                         + [(j, "refined") for j in range(1, 7)])
def test_boundary_load_matches_the_listed_sides(level, built):
    def g(x):
        return np.cos(3.0 * x[:, 0]) + x[:, 0] * x[:, 1] ** 2 - 0.5

    if built == "built":
        mesh = build_unit_square_mesh(level)
        edges = _square_sides(level)
    else:
        parent = build_unit_square_mesh(level - 1)
        mesh = refine(parent)
        edges = _split_at_midpoints(parent, mesh, _square_sides(level - 1))
    expected = _edge_load(mesh, edges, g)
    assert np.allclose(assemble_boundary_load(mesh, g), expected,
                       rtol=0.0, atol=1e-15)
    assert np.count_nonzero(expected) == 4 << level


def test_volume_load_partition_of_unity():
    mesh = build_unit_square_mesh(4)
    b = assemble_volume_load(mesh, at_quadrature(mesh, lambda x: 1.0))
    assert b.sum() == pytest.approx(1.0, abs=1e-12)


def test_volume_load_trigonometric_against_product_gauss():
    def f(x):
        return np.sin(2.0 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    oracle = gauss_product_integral(f)
    mesh = build_unit_square_mesh(5)
    b = assemble_volume_load(mesh, at_quadrature(mesh, f))
    assert abs(b.sum() - oracle) <= 1e-8


def test_project_affine_gives_barycenter_values():
    mesh = build_unit_square_mesh(3)
    proj = l2_project_p0(mesh, lambda x: x[..., 0])
    assert proj.values == pytest.approx(barycenters(mesh)[:, 0], abs=1e-14)


def test_projection_is_orthogonal():
    mesh = build_unit_square_mesh(3)

    def source(x):
        return x[..., 0] ** 2 - 0.3 * x[..., 0] * x[..., 1]

    proj = l2_project_p0(mesh, source)
    # orthogonality against every P0 direction via per-element residuals
    vals = at_quadrature(mesh, source)
    residual = mesh.areas * ((vals - proj.values[:, None])
                             @ TRIANGLE_RULE.weights)
    assert np.max(np.abs(residual)) <= 1e-12


def test_projection_error_decay_against_monomial_oracle():
    """First-order decay for a smooth quadratic; expectations frozen from
    the exact factorial-formula integrals."""
    errors = []
    oracles = []
    for level in range(3, 7):
        mesh = build_unit_square_mesh(level)
        # source x1^2 has exact P1 representation of x1 available; build
        # the exact element means and the exact L2 defect with the oracle.
        x1 = mesh.vertices[:, 0]
        int_u = integrate_p1_power(mesh, x1, 2)
        means = int_u / mesh.areas
        int_u2 = integrate_p1_power(mesh, x1, 4)
        oracle = float(np.sqrt(np.sum(int_u2 - mesh.areas * means ** 2)))
        oracles.append(oracle)

        proj = l2_project_p0(mesh, lambda x: x[..., 0] ** 2)
        vals = at_quadrature(mesh, lambda x: x[..., 0] ** 2)
        d2 = (vals - proj.values[:, None]) ** 2
        err = float(np.sqrt(np.sum(mesh.areas * (d2 @ TRIANGLE_RULE.weights))))
        errors.append(err)
        assert err == pytest.approx(oracle, rel=1e-12)
    for e_prev, e_cur in zip(errors, errors[1:]):
        assert 0.45 <= e_cur / e_prev <= 0.55


def test_norm_of_identical_fields_is_zero():
    mesh = build_unit_square_mesh(2)
    a = P1Field(mesh, mesh.vertices[:, 1])
    assert l2_diff_p1(a, a) == 0.0
    u = P0Field(mesh, np.full(mesh.num_triangles, 2.0))
    assert l2_diff_p0(u, u) == 0.0


def test_p0_constant_norm():
    mesh = build_unit_square_mesh(3)
    c = P0Field(mesh, np.full(mesh.num_triangles, -1.7))
    assert l2_diff_p0(c, P0Field.zeros(mesh)) == pytest.approx(1.7, rel=1e-14)


def test_p1_linear_norm_analytic():
    mesh = build_unit_square_mesh(3)
    field = P1Field(mesh, mesh.vertices[:, 0])
    assert l2_diff_p1(field, P1Field.zeros(mesh)) == \
        pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_cross_level_norms_exact_on_polynomials():
    mesh = build_unit_square_mesh(3)
    child = refine(mesh)
    coarse = P1Field(mesh, 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1])
    fine = P1Field(child,
                   2.0 * child.vertices[:, 0] - child.vertices[:, 1] + 0.25)
    assert l2_diff_p1_cross(coarse, fine) == \
        pytest.approx(0.25, abs=1e-12)
    u = l2_project_p0(mesh, lambda x: x[..., 0])
    v = P0Field(child, prolong_p0(child, u).values + 0.5)
    assert l2_diff_p0_cross(u, v) == pytest.approx(0.5, abs=1e-12)


def test_mismatched_meshes_rejected():
    a = P1Field.zeros(build_unit_square_mesh(2))
    b = P1Field.zeros(build_unit_square_mesh(2))
    with pytest.raises(MeshError):
        l2_diff_p1(a, b)


def test_integrate_matches_oracle():
    mesh = build_unit_square_mesh(4)

    def f(x):
        return np.exp(x[..., 0]) * np.cos(x[..., 1])

    assert integrate(mesh, at_quadrature(mesh, f)) == \
        pytest.approx(gauss_product_integral(f), abs=1e-9)


def test_product_mean_is_exact_and_bitwise_the_summed_form():
    mesh = build_unit_square_mesh(5)
    rng = np.random.default_rng(19)
    a, b = (P1Field(mesh, rng.standard_normal(mesh.num_vertices))
            for _ in range(2))
    mean = fem.elementwise_p1_product_mean(mesh, a, b)
    av, bv = a.values[mesh.triangles], b.values[mesh.triangles]
    summed = (np.sum(av * bv, axis=1) + av.sum(axis=1) * bv.sum(axis=1)) / 12
    assert np.array_equal(mean, summed)
    # The degree-4 rule is exact for the quadratic a b.
    exact = (a.at_quadrature() * b.at_quadrature()) @ TRIANGLE_RULE.weights
    assert mean == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_p0_weighted_load_is_exact_and_bitwise_the_summed_form():
    mesh = build_unit_square_mesh(4)
    rng = np.random.default_rng(23)
    v = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    w = P1Field(mesh, rng.standard_normal(mesh.num_vertices))
    load = fem.p0_weighted_p1_load(mesh, v, w)
    w_loc = w.values[mesh.triangles]
    action = (w_loc + np.sum(w_loc, axis=1, keepdims=True)) / 12.0
    summed = np.bincount(
        mesh.triangles.ravel(),
        weights=((v.values * mesh.areas)[:, None] * action).ravel(),
        minlength=mesh.num_vertices)
    assert np.array_equal(load, summed)
    # The degree-4 rule is exact for the quadratic integrand v w phi_i.
    exact = assemble_volume_load(mesh, v.values[:, None] * w.at_quadrature())
    assert load == pytest.approx(exact, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("integrand", [
    lambda mesh: (lambda x: x[..., 0]),
    lambda mesh: np.ones(mesh.num_triangles),
    lambda mesh: np.ones((mesh.num_triangles, len(TRIANGLE_RULE.weights) + 1)),
], ids=["callable", "per-element", "too-many-points"])
@pytest.mark.parametrize("integrate_with", [
    assemble_volume_load, integrate, assemble_weighted_mass])
def test_integrands_are_quadrature_values_only(integrand, integrate_with):
    mesh = build_unit_square_mesh(2)
    with pytest.raises(OcfemError):
        integrate_with(mesh, integrand(mesh))


def test_linf_diff():
    mesh = build_unit_square_mesh(2)
    a = P1Field(mesh, mesh.vertices[:, 0])
    b = P1Field(mesh, mesh.vertices[:, 0] ** 2)
    expected = np.max(np.abs(mesh.vertices[:, 0] - mesh.vertices[:, 0] ** 2))
    assert linf_diff_p1(a, b) == pytest.approx(expected, abs=1e-15)


def _reference_operator(mesh, local):
    """Oracle: global matrix from local (nt, 3, 3) blocks by COO summation."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    n = mesh.num_vertices
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _local_stiffness(mesh, diffusion):
    g = mesh.gradients()
    if diffusion is None:
        coef = np.broadcast_to(np.eye(2), (mesh.num_triangles, 2, 2))
    else:
        pts = fem.quadrature_points(mesh).reshape(-1, 2)
        vals = diffusion(pts).reshape(mesh.num_triangles, -1, 2, 2)
        coef = np.einsum("q,tqab->tab", TRIANGLE_RULE.weights, vals)
    return mesh.areas[:, None, None] * np.einsum("tia,tab,tjb->tij",
                                                  g, coef, g)


def _local_mass(mesh, wq):
    lam = TRIANGLE_RULE.points
    return mesh.areas[:, None, None] * np.einsum(
        "tq,q,qi,qj->tij", wq, TRIANGLE_RULE.weights, lam, lam)


def _varying_diffusion(x):
    out = np.empty(x.shape[:-1] + (2, 2))
    out[..., 0, 0] = 2.0 + x[..., 0]
    out[..., 1, 1] = 1.0 + x[..., 1] ** 2
    out[..., 0, 1] = out[..., 1, 0] = 0.3 * x[..., 0] * x[..., 1]
    return out


def _assert_matches(op, ref):
    np.testing.assert_allclose(op.matrix.toarray(), ref.toarray(),
                               rtol=1e-14)


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("diffusion", [None, _varying_diffusion])
def test_assembly_matches_coo_oracle(level, diffusion):
    mesh = build_unit_square_mesh(level)
    rng = np.random.default_rng(level)
    wq = rng.uniform(0.5, 2.0, (mesh.num_triangles,
                                len(TRIANGLE_RULE.weights)))
    K = assemble_stiffness(mesh, diffusion)
    M = assemble_weighted_mass(mesh, wq)
    _assert_matches(K, _reference_operator(mesh, _local_stiffness(mesh,
                                                                  diffusion)))
    _assert_matches(M, _reference_operator(mesh, _local_mass(mesh, wq)))
    assert np.array_equal(K.matrix.indptr, M.matrix.indptr)
    assert np.array_equal(K.matrix.indices, M.matrix.indices)


@pytest.mark.parametrize("level", range(9))
def test_laplacian_stiffness_is_bitwise_the_einsum_kernel(level):
    mesh = build_unit_square_mesh(level)
    g = mesh.gradients()
    local = mesh.areas[:, None, None] * np.einsum("tid,tjd->tij", g, g)
    assert np.array_equal(assemble_stiffness(mesh).matrix.data,
                          fem._pattern_data(mesh, local))


def test_laplacian_stiffness_is_bitwise_the_closed_form_off_the_grid():
    # Perturbed interior vertices: no gradient entry is a power of two, so
    # the identity's zero cross term must vanish from g g^T to the bit.
    base = build_unit_square_mesh(4)
    vertices = base.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    rng = np.random.default_rng(11)
    vertices[interior] += rng.uniform(-0.1, 0.1, (interior.sum(), 2)) / 16
    mesh = Mesh(vertices, base.triangles, 4)
    g = mesh.gradients()
    local = mesh.areas[:, None, None] * np.einsum("tid,tjd->tij", g, g)
    assert np.array_equal(assemble_stiffness(mesh).matrix.data,
                          fem._pattern_data(mesh, local))


@pytest.mark.parametrize("level", range(7))
def test_local_mass_matches_oracle_for_weights_of_both_signs(level):
    # One sign per triangle: a local entry sums positive terms only, so the
    # oracle's rounding stays relative to the entry.
    mesh = build_unit_square_mesh(level)
    rng = np.random.default_rng(20 + level)
    nq = len(TRIANGLE_RULE.weights)
    sign = np.resize([1.0, -1.0], (mesh.num_triangles, 1))
    wq = sign * rng.uniform(0.5, 2.0, (mesh.num_triangles, nq))
    np.testing.assert_allclose(fem._weighted_mass_local(mesh, wq),
                               _local_mass(mesh, wq), rtol=1e-14)


@pytest.mark.parametrize("level", range(5))
def test_linearized_operator_is_stiffness_plus_weighted_mass(level):
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(level)
    rng = np.random.default_rng(10 + level)
    u = P0Field(mesh, rng.uniform(-1.0, 1.0, mesh.num_triangles))
    y = P1Field(mesh, rng.standard_normal(mesh.num_vertices))
    pts = fem.quadrature_points(mesh)
    yq = y.at_quadrature()
    weight = spec.nonlinearity_dy(pts, yq) + u.values[:, None]
    ref = (_reference_operator(mesh, _local_stiffness(mesh, None))
           + _reference_operator(mesh, _local_mass(mesh, weight)))
    _assert_matches(pde.linearized_operator(spec, mesh, u, y), ref)


def test_quadrature_points_are_read_only():
    mesh = build_unit_square_mesh(2)
    pts = fem.quadrature_points(mesh)
    with pytest.raises(ValueError):
        pts[0, 0, 0] = 1.0


def test_linearized_operator_builds_one_operator(monkeypatch):
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    rng = np.random.default_rng(3)
    u = P0Field(mesh, rng.uniform(-1.0, 1.0, mesh.num_triangles))
    y = P1Field(mesh, rng.standard_normal(mesh.num_vertices))
    K = assemble_stiffness(mesh)                 # fills the per-mesh store
    weight = (fem.at_points(spec.nonlinearity_dy, fem.quadrature_points(mesh),
                            y.at_quadrature()) + u.values[:, None])
    expected = K.matrix.data + assemble_weighted_mass(mesh, weight).matrix.data
    built = []
    real = SparseSymOperator.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SparseSymOperator, "__init__", recording)
    for _ in range(2):
        built.clear()
        op = pde.linearized_operator(spec, mesh, u, y)
        assert built == [op]
        assert np.array_equal(op.matrix.data, expected)


def test_stored_stiffness_is_read_only():
    mesh = build_unit_square_mesh(2)
    K = assemble_stiffness(mesh)
    with pytest.raises(ValueError):
        K.matrix.data[0] = 1.0
    assert np.shares_memory(assemble_stiffness(mesh).matrix.data,
                            K.matrix.data)


def test_stored_stiffness_is_dropped_with_its_mesh():
    # A parameter sweep builds many meshes; the store must not keep them.
    mesh = build_unit_square_mesh(2)
    pde.solve_state(get_preset("paper-sec6"), mesh, P0Field.zeros(mesh))
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None


def _constant_anisotropic_diffusion(x):
    return np.broadcast_to(np.array([[2.0, 0.5], [0.5, 1.0]]),
                           x.shape[:-1] + (2, 2))


def test_solve_state_with_anisotropic_diffusion():
    # The store is keyed on (mesh, diffusion): after a Laplacian solve on the
    # same mesh, the anisotropic solve must still use its own stiffness.
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(4)
    u = P0Field.zeros(mesh)
    pde.solve_state(spec, mesh, u)
    aniso = spec.with_overrides(diffusion=_constant_anisotropic_diffusion)
    y, _ = pde.solve_state(aniso, mesh, u)
    stiffness = _reference_operator(
        mesh, _local_stiffness(mesh, _constant_anisotropic_diffusion))
    load = assemble_boundary_load(mesh, spec.boundary_flux)
    yq = y.at_quadrature()
    res = stiffness @ y.values
    res += assemble_volume_load(mesh, fem.at_points(
        spec.nonlinearity, fem.quadrature_points(mesh), yq))
    res += fem.p0_weighted_p1_load(mesh, u, y)
    res -= load
    assert np.linalg.norm(res) <= 1e-11 * (1.0 + np.linalg.norm(load))


def _sorted_pattern(mesh):
    """Oracle: the pattern and the local entries' positions by sorting the
    9 nt keys ``row * nv + col`` with ``np.unique``."""
    nv = mesh.num_vertices
    tri = mesh.triangles.astype(np.int64)
    keys = np.repeat(tri, 3, axis=1) * nv + np.tile(tri, (1, 3))
    unique, position = np.unique(keys.ravel(), return_inverse=True)
    return (np.searchsorted(unique // nv, np.arange(nv + 1)), unique % nv,
            position)


def _pattern_meshes():
    meshes = [build_unit_square_mesh(level) for level in range(6)]
    meshes += [refine(meshes[1]), refine(refine(meshes[1]))]
    return meshes


@pytest.mark.parametrize("mesh", _pattern_meshes(),
                         ids=[f"l{j}" for j in range(6)] + ["r2", "r3"])
def test_pattern_is_the_sorted_oracle_with_int32_positions(mesh):
    indptr, indices, position = fem._pattern(mesh)
    for got, want in zip((indptr, indices, position), _sorted_pattern(mesh)):
        assert got.dtype == np.int32
        assert np.array_equal(got, want)
    # Each local entry's position holds its column, in its row's range.
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    assert np.array_equal(indices[position], np.tile(tri, (1, 3)).ravel())
    assert np.all(indptr[rows] <= position)
    assert np.all(position < indptr[rows + 1])
    # The boundary: the edges of one triangle only, in the oracle's order.
    edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                    tri[:, [2, 0]]]), axis=1)
    pairs, count = np.unique(edges, axis=0, return_counts=True)
    assert np.array_equal(fem._boundary_edges(mesh), pairs[count == 1])


def test_resident_bytes_per_triangle_after_a_state_solve():
    # What a solved level keeps: the mesh's arrays and fem's per-mesh store
    # (pattern, stiffness data, quadrature points, boundary).  Stored int64
    # positions or stored (nt, 3, 2) gradients would read about 291.
    mesh = build_unit_square_mesh(5)
    pde.solve_state(get_preset("paper-sec6"), mesh, P0Field.zeros(mesh))
    arrays = [a for a in vars(mesh).values() if isinstance(a, np.ndarray)]
    arrays += [a for stored in fem._PER_MESH[mesh].values() for a in stored]
    assert sum(a.nbytes for a in arrays) <= 210 * mesh.num_triangles

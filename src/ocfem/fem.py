"""P1/P0 spaces, quadrature, assembly, L2 projection and norms.

Element conventions
-------------------
* P1 basis functions on a triangle are the barycentric coordinates; their
  gradients are constant per triangle, computed by ``Mesh.gradients``.
* Integrals over a triangle use a symmetric quadrature rule stated in
  barycentric coordinates with weights summing to one, so that
  ``int_T f ~= |T| * sum_q w_q f(x_q)``.
* Integrands of ``assemble_volume_load``, ``integrate`` and the weighted
  mass are quadrature values, shape (nt, nq), and nothing else;
  ``at_points`` is the one way from a coefficient callable to such values
  and to the boundary flux's; it broadcasts, so every coefficient but the
  diffusion may return a scalar.  ``l2_project_p0`` takes a callable.
* The boundary is not stored on the mesh: it is the set of edges in one
  triangle only, read once per mesh off the sparsity pattern's counts.
* Products of two P1 factors (elementwise means of y*phi, norms, the mass
  action on a P0 weight) are integrated with the closed-form identity
  ``int_T y z = |T|/12 * (sum_i y_i z_i + (sum_i y_i)(sum_i z_i))``,
  which is exact.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import MeshError, OcfemError
from .linalg import FactorSlot, SparseSymOperator
from .mesh import Mesh


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points/weights integrating polynomials exactly up to
    ``degree`` on the reference triangle; weights sum to one."""

    points: np.ndarray   # (nq, 3)
    weights: np.ndarray  # (nq,)
    degree: int


def _symmetric_rule(groups):
    pts, wts = [], []
    for w, a, b in groups:
        pts += [(a, b, b), (b, a, b), (b, b, a)]
        wts += [w, w, w]
    return QuadratureRule(np.array(pts), np.array(wts), degree=4)


# 6-point degree-4 symmetric rule (two orbits).
TRIANGLE_RULE = _symmetric_rule([
    (0.223381589678011, 0.108103018168070, 0.445948490915965),
    (0.109951743655322, 0.816847572980459, 0.091576213509771),
])

# lambda_i * lambda_j at the rule's points, (nq, 9) in row-major (i, j)
# order: the local weighted mass matrices are one matmul against it.
_LAMBDA_PRODUCTS = (TRIANGLE_RULE.points[:, :, None]
                    * TRIANGLE_RULE.points[:, None, :]).reshape(-1, 9)

# 3-point Gauss rule on [0,1]: exact for polynomials up to degree 5.
_S35 = np.sqrt(0.6)
EDGE_RULE_POINTS = np.array([0.5 * (1.0 - _S35), 0.5, 0.5 * (1.0 + _S35)])
EDGE_RULE_WEIGHTS = np.array([5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0])
EDGE_RULE_DEGREE = 5
# Shape functions (1 - t, t) of an edge's two ends at the rule's points.
_EDGE_SHAPES = np.column_stack([1.0 - EDGE_RULE_POINTS, EDGE_RULE_POINTS])


class P1Field:
    """Continuous piecewise-linear field given by nodal values."""

    def __init__(self, mesh: Mesh, values):
        self.mesh = mesh
        self.values = np.ascontiguousarray(values, dtype=float)
        if self.values.shape != (mesh.num_vertices,):
            raise MeshError("P1 field needs one value per vertex")

    @classmethod
    def zeros(cls, mesh: Mesh) -> "P1Field":
        return cls(mesh, np.zeros(mesh.num_vertices))

    def at_quadrature(self) -> np.ndarray:
        """Values at all quadrature points, shape (nt, nq)."""
        return self.values[self.mesh.triangles] @ TRIANGLE_RULE.points.T


class P0Field:
    """Elementwise-constant field given by one value per triangle."""

    def __init__(self, mesh: Mesh, values):
        self.mesh = mesh
        self.values = np.ascontiguousarray(values, dtype=float)
        if self.values.shape != (mesh.num_triangles,):
            raise MeshError("P0 field needs one value per triangle")

    @classmethod
    def zeros(cls, mesh: Mesh) -> "P0Field":
        return cls(mesh, np.zeros(mesh.num_triangles))


# Read-only arrays derived from a mesh (and a diffusion), computed on first
# use and dropped with the mesh (a parameter sweep builds many meshes).
_PER_MESH = weakref.WeakKeyDictionary()


def _per_mesh(mesh: Mesh, key, build):
    cache = _PER_MESH.setdefault(mesh, {})
    if key not in cache:
        cache[key] = build()
        for arr in cache[key]:
            arr.setflags(write=False)
    return cache[key]


def quadrature_points(mesh: Mesh) -> np.ndarray:
    """Physical coordinates of all volume quadrature points, (nt, nq, 2).

    Computed once per mesh and read-only.
    """
    def build():
        corners = mesh.vertices[mesh.triangles]      # (nt, 3, 2)
        return (np.einsum("qk,tkd->tqd", TRIANGLE_RULE.points, corners),)

    return _per_mesh(mesh, "quadrature_points", build)[0]


def at_points(fn, points: np.ndarray, y=None) -> np.ndarray:
    """Values of a coefficient ``fn(x)``, or ``fn(x, y)`` if ``y`` is given,
    at ``points`` (..., 2) with ``y`` (...).  The callable sees both
    flattened; its result is broadcast to ``points.shape[:-1]``."""
    shape = points.shape[:-1]
    flat = points.reshape(-1, 2)
    vals = fn(flat) if y is None else fn(flat, np.reshape(y, -1))
    # Contiguous: a scalar kept as a zero-stride view raised peak RSS.
    return np.ascontiguousarray(np.broadcast_to(
        np.asarray(vals, dtype=float), (len(flat),))).reshape(shape)


def _quad_values(mesh, vals) -> np.ndarray:
    """``vals`` as an array, if it has the quadrature shape (nt, nq)."""
    shape = (mesh.num_triangles, len(TRIANGLE_RULE.weights))
    if np.shape(vals) != shape:
        raise OcfemError(f"expected quadrature values of shape {shape}")
    return np.asarray(vals, dtype=float)


def _scatter_nodal(mesh: Mesh, nodes, contributions) -> np.ndarray:
    """Sum the contributions to the vertex rows ``nodes`` into (nv,)."""
    return np.bincount(nodes.ravel(), weights=contributions.ravel(),
                       minlength=mesh.num_vertices)


def assemble_stiffness(mesh: Mesh, diffusion=None) -> SparseSymOperator:
    """Stiffness operator of the diffusion bilinear form.

    ``diffusion`` is None for the identity matrix (Laplacian) or a callable
    mapping points (m, 2) to symmetric coefficient matrices (m, 2, 2).
    The result is symmetric positive semidefinite with constants in its
    kernel.  Its data are assembled once per (mesh, diffusion) and stored
    read-only next to the mesh's pattern.
    """
    return _operator_on_pattern(mesh, _stiffness_data(mesh, diffusion))


def _stiffness_data(mesh: Mesh, diffusion) -> np.ndarray:
    return _per_mesh(mesh, ("stiffness", diffusion), lambda: (
        _pattern_data(mesh, _local_stiffness(mesh, diffusion)),))[0]


def _local_stiffness(mesh: Mesh, diffusion) -> np.ndarray:
    """Local (nt, 3, 3) stiffness matrices of the mean coefficients."""
    g0, g1 = np.moveaxis(mesh.gradients(), 2, 0)    # (nt, 3) each
    if diffusion is None:
        c00, c01, c10, c11 = 1.0, 0.0, 0.0, 1.0
    else:
        pts = quadrature_points(mesh).reshape(-1, 2)
        coef = np.asarray(diffusion(pts), dtype=float)
        if coef.shape != (len(pts), 2, 2):
            raise OcfemError("diffusion evaluator must return (m, 2, 2)")
        if np.max(np.abs(coef - np.swapaxes(coef, 1, 2))) > \
                1e-12 * max(np.max(np.abs(coef)), 1.0):
            raise OcfemError("diffusion coefficient matrix is not symmetric")
        avg = np.einsum("q,tqab->tab",
                        TRIANGLE_RULE.weights,
                        coef.reshape(mesh.num_triangles, -1, 2, 2))
        c00, c01, c10, c11 = avg.reshape(-1, 4).T[:, :, None]
    # Row by row, so the temporaries are (nt, 3).  Each term is symmetric in
    # (i, j) to the bit, so is the sum; the identity gives gi0 gj0 + gi1 gj1.
    local = np.empty((mesh.num_triangles, 3, 3))
    for i in range(3):
        gi0, gi1 = g0[:, i, None], g1[:, i, None]
        local[:, i] = (c00 * (gi0 * g0) + c11 * (gi1 * g1)
                       + (c01 + c10) / 2 * (gi0 * g1 + gi1 * g0))
    local *= mesh.areas[:, None, None]
    return local


def assemble_weighted_mass(mesh: Mesh, weight) -> SparseSymOperator:
    """Mass operator of ``int w y z`` for the weight's quadrature values
    ``weight`` (nt, nq)."""
    return _operator_on_pattern(
        mesh, _pattern_data(mesh, _weighted_mass_local(mesh, weight)))


def _weighted_mass_local(mesh: Mesh, weight) -> np.ndarray:
    """Local (nt, 3, 3) mass matrices of ``int w y z``."""
    wq = _quad_values(mesh, weight) * TRIANGLE_RULE.weights     # (nt, nq)
    local = (wq @ _LAMBDA_PRODUCTS).reshape(mesh.num_triangles, 3, 3)
    local *= mesh.areas[:, None, None]
    return local


def _pattern(mesh: Mesh):
    """CSR ``(indptr, indices)`` of the P1 couplings of ``mesh`` and the
    position in ``indices`` of each of the 9 nt local entries, in the
    row-major order of the local (nt, 3, 3) matrices, in the index dtype."""
    def build():
        nv = mesh.num_vertices
        rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
        cols = np.tile(mesh.triangles, (1, 3)).ravel()
        # COO to CSR sums duplicates without a sort; its keys come sorted.
        csr = sp.csr_matrix((np.ones(len(rows), np.int8), (rows, cols)),
                            shape=(nv, nv))
        keys = np.repeat(np.arange(nv, dtype=np.int64) * nv,
                         np.diff(csr.indptr)) + csr.indices
        position = np.searchsorted(keys, rows.astype(np.int64) * nv + cols)
        return csr.indptr, csr.indices, position.astype(csr.indices.dtype)

    return _per_mesh(mesh, "pattern", build)


def _operator_on_pattern(mesh: Mesh, data: np.ndarray,
                         slot: FactorSlot = None) -> SparseSymOperator:
    indptr, indices, _ = _pattern(mesh)
    nv = mesh.num_vertices
    return SparseSymOperator(
        sp.csr_matrix((data, indices, indptr), shape=(nv, nv)), slot=slot)


def _pattern_data(mesh: Mesh, local: np.ndarray) -> np.ndarray:
    """Local (nt, 3, 3) matrices summed into the data of the mesh's pattern,
    in ``np.bincount``'s order but without its int64 copy of the positions."""
    _, indices, position = _pattern(mesh)
    data = np.zeros(len(indices))
    np.add.at(data, position, local.ravel())
    return data


def add_weighted_mass(mesh: Mesh, diffusion, weight,
                      slot: FactorSlot = None) -> SparseSymOperator:
    """Stiffness of (``mesh``, ``diffusion``) plus the mass operator of
    ``weight`` (as in ``assemble_weighted_mass``): the mass data add to the
    stored stiffness data entry by entry on the mesh's one sparsity
    pattern, and one operator, sharing ``slot``, is built."""
    mass = _pattern_data(mesh, _weighted_mass_local(mesh, weight))
    return _operator_on_pattern(mesh, _stiffness_data(mesh, diffusion) + mass,
                                slot)


def assemble_volume_load(mesh: Mesh, f) -> np.ndarray:
    """Load vector with entries ``int_Omega f phi_i`` by quadrature, for
    the quadrature values ``f`` (nt, nq)."""
    contrib = ((_quad_values(mesh, f) * TRIANGLE_RULE.weights)
               @ TRIANGLE_RULE.points)                           # (nt, 3)
    contrib *= mesh.areas[:, None]
    return _scatter_nodal(mesh, mesh.triangles, contrib)


def _boundary_edges(mesh: Mesh) -> np.ndarray:
    """Vertex pairs ``(i, j)``, ``i < j``, of the edges in one triangle
    only, (ne, 2): the pattern entries above the diagonal that one local
    matrix adds to.  Computed once per mesh."""
    def build():
        indptr, indices, slot = _pattern(mesh)
        rows = np.repeat(np.arange(mesh.num_vertices), np.diff(indptr))
        once = (np.bincount(slot) == 1) & (rows < indices)
        return (np.column_stack([rows[once], indices[once]]),)

    return _per_mesh(mesh, "boundary_edges", build)[0]


def assemble_boundary_load(mesh: Mesh, g) -> np.ndarray:
    """Load vector with entries ``int_Gamma g phi_i`` by edge quadrature
    (a symmetric rule, so the orientation of an edge is immaterial)."""
    edges = _boundary_edges(mesh)
    corners = mesh.vertices[edges]                            # (ne, 2, 2)
    lengths = np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)
    gv = at_points(g, _EDGE_SHAPES @ corners)                 # (ne, 3)
    contrib = (gv * (EDGE_RULE_WEIGHTS * lengths[:, None])) @ _EDGE_SHAPES
    return _scatter_nodal(mesh, edges, contrib)


def p0_weighted_p1_load(mesh: Mesh, v: P0Field, w: P1Field) -> np.ndarray:
    """Load vector with entries ``int v w phi_i``; exact for P0 v, P1 w.

    Uses the exact local mass action ``|T|/12 (w_loc + sum(w_loc))``.
    """
    # np.sum's order of terms, spelled out as in
    # elementwise_p1_product_mean.
    w_loc = w.values[mesh.triangles]                  # (nt, 3)
    total = w_loc[:, 0] + w_loc[:, 1] + w_loc[:, 2]
    action = (w_loc + total[:, None]) / 12.0
    contrib = (v.values * mesh.areas)[:, None] * action
    return _scatter_nodal(mesh, mesh.triangles, contrib)


def elementwise_p1_product_mean(mesh: Mesh, a: P1Field, b: P1Field) -> np.ndarray:
    """Exact per-element mean ``(1/|T|) int_T a b`` for P1 factors, (nt,)."""
    # np.sum's order of terms, spelled out: a reduction over the short
    # axis costs about three times these column operations.
    t = mesh.triangles
    a0, a1, a2 = (a.values[t[:, k]] for k in range(3))
    b0, b1, b2 = (b.values[t[:, k]] for k in range(3))
    return (a0 * b0 + a1 * b1 + a2 * b2
            + (a0 + a1 + a2) * (b0 + b1 + b2)) / 12.0


def l2_project_p0(mesh: Mesh, fn) -> P0Field:
    """L2-orthogonal projection of the coefficient ``fn(x)`` onto
    elementwise constants: its quadrature mean on each element."""
    vals = at_points(fn, quadrature_points(mesh))
    return P0Field(mesh, vals @ TRIANGLE_RULE.weights)


def integrate(mesh: Mesh, vals) -> float:
    """Quadrature value of ``int_Omega f`` for the quadrature values
    ``vals`` (nt, nq) of f."""
    return float(np.sum(mesh.areas * (_quad_values(mesh, vals)
                                      @ TRIANGLE_RULE.weights)))


def l2_diff_p0(a: P0Field, b: P0Field) -> float:
    """Exact L2 norm of the difference of two P0 fields on one mesh."""
    _require_same_mesh(a, b)
    d = a.values - b.values
    return float(np.sqrt(np.sum(a.mesh.areas * d * d)))


def l2_diff_p1(a: P1Field, b: P1Field) -> float:
    """Exact L2 norm of the difference of two P1 fields on one mesh."""
    _require_same_mesh(a, b)
    d = P1Field(a.mesh, a.values - b.values)
    return float(np.sqrt(np.sum(
        a.mesh.areas * elementwise_p1_product_mean(a.mesh, d, d))))


def linf_diff_p1(a: P1Field, b: P1Field) -> float:
    _require_same_mesh(a, b)
    return float(np.max(np.abs(a.values - b.values))) if len(a.values) else 0.0


def prolong_p1(child: Mesh, field: P1Field) -> P1Field:
    """Exact prolongation to the refinement ``child`` of the field's mesh:
    inherited vertices keep their values, and each midpoint gets the mean
    of its parent edge's end values."""
    if child.parent is not field.mesh:
        raise MeshError("field does not live on the target's parent mesh")
    v, m = field.values, child.midpoints
    return P1Field(child, np.concatenate([v, 0.5 * (v[m[:, 0]] + v[m[:, 1]])]))


def prolong_p0(child: Mesh, field: P0Field) -> P0Field:
    """Exact injection: the four children of a triangle take its value."""
    if child.parent is not field.mesh:
        raise MeshError("field does not live on the target's parent mesh")
    return P0Field(child, np.repeat(field.values, 4))


def l2_diff_p1_cross(coarse: P1Field, fine: P1Field) -> float:
    """Exact L2 difference across one refinement level (prolong, then norm)."""
    return l2_diff_p1(prolong_p1(fine.mesh, coarse), fine)


def l2_diff_p0_cross(coarse: P0Field, fine: P0Field) -> float:
    return l2_diff_p0(prolong_p0(fine.mesh, coarse), fine)


def _require_same_mesh(a, b):
    if a.mesh is not b.mesh:
        raise MeshError("fields live on different meshes; "
                        "use a cross-level norm for consecutive levels")

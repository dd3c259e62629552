"""Sparse symmetric operators and SPD solves against dense oracles."""
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ocfem import (CoercivityError, LinearSolverError, SparseSymOperator,
                   build_unit_square_mesh,
                   assemble_volume_load, assemble_weighted_mass,
                   assemble_stiffness, fem, refine)
from ocfem.linalg import FactorSlot, _symmetric_csc


def constant_mass(mesh, weight):
    """Mass operator of a constant weight, from its quadrature values."""
    return assemble_weighted_mass(mesh, np.full(
        (mesh.num_triangles, len(fem.TRIANGLE_WEIGHTS)), weight))


def random_spd(n, seed):
    """Diagonally dominant random symmetric instance (hence SPD)."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    for _ in range(4 * n):
        i, j = rng.integers(0, n, size=2)
        v = rng.normal() * 0.3
        dense[i, j] += v
        dense[j, i] += v
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    return SparseSymOperator(sp.csr_matrix(dense)), dense


def test_identity_solve():
    op = SparseSymOperator(sp.identity(7, format="csr"))
    b = np.arange(7.0)
    assert op.solve_spd(b) == pytest.approx(b, abs=1e-14)


def test_two_by_two_exact():
    op = SparseSymOperator(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    x = op.solve_spd(np.array([3.0, 3.0]))
    assert x == pytest.approx([1.0, 1.0], abs=1e-14)


def test_random_spd_against_dense_oracle():
    op, dense = random_spd(50, seed=5)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(50)
    x = op.solve_spd(b, tol=1e-12)
    assert np.linalg.norm(op.matvec(x) - b) <= 1e-12 * np.linalg.norm(b)
    oracle = np.linalg.solve(dense, b)
    assert x == pytest.approx(oracle, rel=1e-9, abs=1e-11)


def test_refinement_on_perturbed_factor_meets_tol():
    # The factor of 1.001 A is an exact preconditioner up to scale: the
    # first preconditioned step, F^-1 b times its exact length, meets tol.
    op, dense = random_spd(50, seed=5)
    op._factorization = spla.splu(sp.csc_matrix(1.001 * dense))
    rng = np.random.default_rng(6)
    b = rng.standard_normal(50)
    x = op.solve_spd(b, tol=1e-12)
    assert np.linalg.norm(op.matvec(x) - b) <= 1e-12 * np.linalg.norm(b)
    oracle = np.linalg.solve(dense, b)
    assert x == pytest.approx(oracle, rel=1e-9, abs=1e-11)


def far_matrix(dense):
    """``dense`` plus a diagonal spanning four orders of magnitude."""
    return dense + np.diag(
        10.0 ** np.random.default_rng(7).uniform(0.0, 4.0, 50))


def test_own_factor_stall_raises_with_history():
    # An own factor that is the factor of a far matrix: conjugate gradients
    # preconditioned by it lower the residual from 0.91 to only 0.31 in the
    # step budget, far above tol and far above the precision floor.
    op, dense = random_spd(50, seed=5)
    op._factorization = spla.splu(sp.csc_matrix(far_matrix(dense)))
    b = np.random.default_rng(6).standard_normal(50)
    with pytest.raises(LinearSolverError) as err:
        op.solve_spd(b, tol=1e-12)
    history = err.value.residual_history
    assert history
    assert all(later < earlier for earlier, later in zip(history, history[1:]))
    assert history[-1] > 1e-12


def test_matvec_identity_and_zero():
    op = SparseSymOperator(sp.identity(5, format="csr"))
    v = np.linspace(-1.0, 1.0, 5)
    assert op.matvec(v) == pytest.approx(v, abs=0.0)
    assert op.matvec(np.zeros(5)) == pytest.approx(np.zeros(5), abs=0.0)


def test_matvec_against_dense_oracle():
    op, dense = random_spd(30, seed=9)
    rng = np.random.default_rng(10)
    v = rng.standard_normal(30)
    assert op.matvec(v) == pytest.approx(dense @ v, rel=1e-13)


def test_matvec_linearity():
    op, _ = random_spd(20, seed=12)
    rng = np.random.default_rng(13)
    x, y = rng.standard_normal((2, 20))
    lhs = op.matvec(2.5 * x - 0.75 * y)
    rhs = 2.5 * op.matvec(x) - 0.75 * op.matvec(y)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_dimension_mismatch():
    op, _ = random_spd(10, seed=1)
    with pytest.raises(LinearSolverError):
        op.matvec(np.zeros(9))
    with pytest.raises(LinearSolverError):
        op.solve_spd(np.zeros(11))


def test_non_square_matrix_rejected():
    with pytest.raises(LinearSolverError, match="square"):
        SparseSymOperator(sp.csr_matrix((3, 4)))


def test_negative_diagonal_raises_coercivity():
    mesh = build_unit_square_mesh(2)
    reaction = constant_mass(mesh, -1.0)
    with pytest.raises(CoercivityError):
        reaction.solve_spd(np.ones(mesh.num_vertices))


def test_assembled_system_with_admissible_weight_solves():
    mesh = build_unit_square_mesh(3)
    op = SparseSymOperator(assemble_stiffness(mesh).matrix +
                           constant_mass(mesh, 1.0).matrix)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(mesh.num_vertices)
    x = op.solve_spd(b, tol=1e-12)
    assert np.linalg.norm(op.matvec(x) - b) <= 1e-12 * np.linalg.norm(b)


def test_abs_norm_of_assembled_operator_is_its_largest_column_sum():
    # Assembled operators are symmetric to the bit with sorted indices, so
    # the row sums of |A| in index order, which set the floor's norm bound,
    # are its column sums to the bit.  scipy's row sums associate in
    # another order and may differ in the last bit.
    mesh = build_unit_square_mesh(4)
    rng = np.random.default_rng(12)
    weight = rng.uniform(0.5, 2.0,
                         (mesh.num_triangles, len(fem.TRIANGLE_WEIGHTS)))
    op = SparseSymOperator(assemble_stiffness(mesh).matrix +
                           assemble_weighted_mass(mesh, weight).matrix)
    assert (op.matrix != op.matrix.T).nnz == 0
    x = np.ones(mesh.num_vertices)
    r = np.zeros(mesh.num_vertices)
    op._at_floor(x, r, op.matvec(x), 0.0, 1.0)
    a = abs(op.matrix)
    assert op._abs_norm == a.sum(axis=0).max()
    assert op._abs_norm == pytest.approx(a.sum(axis=1).max(), rel=1e-15)


def test_solve_is_deterministic():
    op, _ = random_spd(40, seed=21)
    b = np.sin(np.arange(40.0))
    x1 = op.solve_spd(b)
    x2 = op.solve_spd(b)
    assert np.array_equal(x1, x2)


def level6_meshes():
    """Level 6 built directly, and refined from level 2 (another numbering)."""
    refined = build_unit_square_mesh(2)
    for _ in range(4):
        refined = refine(refined)
    return {"direct": build_unit_square_mesh(6), "refined": refined}


def stiffness_plus_mass(mesh):
    return SparseSymOperator(assemble_stiffness(mesh).matrix +
                             constant_mass(mesh, 1.0).matrix)


def fill(lu):
    return lu.L.nnz + lu.U.nnz


def test_symmetric_factor_fill_is_small_and_numbering_independent():
    fills = {}
    for name, mesh in level6_meshes().items():
        op = stiffness_plus_mass(mesh)
        fills[name] = fill(op._factor().lu)
        default = fill(spla.splu(op.matrix.tocsc()))
        assert fills[name] <= 0.75 * default, name
    assert fills["refined"] == pytest.approx(fills["direct"], rel=0.05)


def test_symmetric_factor_solution_is_numbering_independent():
    def source(x):
        return np.sin(3.0 * x[..., 0]) * np.cos(2.0 * x[..., 1]) + 1.0

    solutions = []
    for mesh in level6_meshes().values():
        op = stiffness_plus_mass(mesh)
        x = op.solve_spd(assemble_volume_load(mesh, fem.at_points(
            source, fem.quadrature_points(mesh))), tol=1e-12)
        # Order the vertices by their coordinates, exact on this dyadic grid.
        grid = np.rint(mesh.vertices * 2 ** 6).astype(int)
        solutions.append(x[np.lexsort((grid[:, 0], grid[:, 1]))])
    direct, refined = solutions
    assert np.linalg.norm(refined - direct) <= 1e-12 * np.linalg.norm(direct)


def chain_with_factor(seed):
    """A slot holding the factor of a random SPD A, after one solve of A."""
    slot = FactorSlot()
    op, dense = random_spd(50, seed=seed)
    op.slot = slot
    op.solve_spd(np.ones(50))
    assert slot.factor is op._factorization is not None
    return slot, op, dense


def test_nearby_operator_solves_with_slot_factor(monkeypatch):
    slot, op, dense = chain_with_factor(5)
    shared = slot.factor
    shifted = dense + 1e-3 * np.eye(50)
    near = SparseSymOperator(sp.csr_matrix(shifted), slot=slot)
    monkeypatch.setattr(SparseSymOperator, "_factor",
                        lambda self: pytest.fail("nearby operator factored"))
    b = np.random.default_rng(6).standard_normal(50)
    x = near.solve_spd(b, tol=1e-12)
    assert near._factorization is None
    assert slot.factor is shared
    assert np.linalg.norm(near.matvec(x) - b) <= 1e-12 * np.linalg.norm(b)
    assert x == pytest.approx(np.linalg.solve(shifted, b), rel=1e-9,
                              abs=1e-11)


def test_own_and_slot_factor_solve_alike(monkeypatch):
    # One iteration whichever factor it is given: an operator solving with
    # the factor of the operator before it, on the same matrix, returns
    # that operator's solution bit for bit, and does not factor.
    slot, op, dense = chain_with_factor(5)
    b = np.random.default_rng(6).standard_normal(50)
    x = op.solve_spd(b, tol=1e-12)
    twin = SparseSymOperator(sp.csr_matrix(dense), slot=slot)
    monkeypatch.setattr(SparseSymOperator, "_factor",
                        lambda self: pytest.fail("twin operator factored"))
    assert np.array_equal(twin.solve_spd(b, tol=1e-12), x)
    assert twin._factorization is None


def counting(slot):
    """Replace the slot's factor by one that records each right-hand side."""
    shared, solves = slot.factor, []

    class Counting:
        def solve(self, b):
            solves.append(b)
            return shared.solve(b)

    slot.factor = Counting()
    return shared, solves


def test_slot_factor_where_refinement_diverges_solves_by_pcg(monkeypatch):
    # F^-1 B has its spectrum in [2.5001, 2.5008] for the factor F of A:
    # stationary refinement multiplies the residual by about -1.5 per step,
    # while conjugate gradients preconditioned by F meet 1e-12 in 3 solves.
    slot, op, dense = chain_with_factor(5)
    shifted = 2.5 * dense + 1e-3 * np.eye(50)
    b = np.random.default_rng(6).standard_normal(50)
    x, residuals = np.zeros(50), []
    for _ in range(3):
        x = x + slot.factor.solve(b - shifted @ x)
        residuals.append(np.linalg.norm(b - shifted @ x))
    assert residuals[0] > 1.4 * np.linalg.norm(b)
    assert residuals[2] > 1.4 * residuals[1] > 1.4 ** 2 * residuals[0]

    shared, solves = counting(slot)
    near = SparseSymOperator(sp.csr_matrix(shifted), slot=slot)
    monkeypatch.setattr(SparseSymOperator, "_factor",
                        lambda self: pytest.fail("nearby operator factored"))
    x = near.solve_spd(b, tol=1e-12)
    assert len(solves) <= 3
    assert near._factorization is None
    assert np.linalg.norm(near.matvec(x) - b) <= 1e-12 * np.linalg.norm(b)
    assert x == pytest.approx(np.linalg.solve(shifted, b), rel=1e-9,
                              abs=1e-11)


def low_rank_update(dense, rank):
    """``dense + 0.1 V V^T`` for a random V with ``rank`` columns: with
    the factor F of ``dense``, F^-1 of it is the identity plus a rank-
    ``rank`` term, so preconditioned CG ends in ``rank + 1`` steps."""
    v = np.random.default_rng(8).standard_normal((len(dense), rank))
    return dense + 0.1 * v @ v.T


def test_superlinear_pcg_is_accepted_without_factoring(monkeypatch):
    # Preconditioned CG's residuals read 5.3e-1, 3.0e-2, 1.2e-3, 2.6e-5
    # and meet 1e-12 at the fifth step.  Extrapolating the contraction of
    # the first two steps over the four steps left of a budget of six
    # misses 1e-12 by far, as on a level-8 Newton step whose residuals read
    # 7.2e-2, 7.6e-3, 3.0e-4, 7.9e-6; the run must not be abandoned.
    slot, op, dense = chain_with_factor(5)
    _, solves = counting(slot)
    matrix = low_rank_update(dense, 4)
    near = SparseSymOperator(sp.csr_matrix(matrix), slot=slot)
    monkeypatch.setattr(SparseSymOperator, "_factor",
                        lambda self: pytest.fail("nearby operator factored"))
    rng = np.random.default_rng(6)
    for b in rng.standard_normal((2, 50)):
        solves.clear()
        x = near.solve_spd(b, tol=1e-12)
        # Each solve after the first is of the residual of an iterate.
        history = [np.linalg.norm(r) / np.linalg.norm(b) for r in solves[1:]]
        assert history[1] * (history[1] / history[0]) ** 4 > 1e-12
        assert len(solves) <= 5
        assert np.linalg.norm(near.matvec(x) - b) <= 1e-12 * np.linalg.norm(b)
        assert x == pytest.approx(np.linalg.solve(matrix, b), rel=1e-9,
                                  abs=1e-11)
    assert near._factorization is None


def test_slow_shared_solve_factors_before_the_next(monkeypatch):
    # A rank-8 update takes 9 preconditioned steps, more than five: the
    # operator's next solve factors it, with the slot's old factor released
    # first.
    slot, op, dense = chain_with_factor(5)
    _, solves = counting(slot)
    matrix = low_rank_update(dense, 8)
    near = SparseSymOperator(sp.csr_matrix(matrix), slot=slot)
    factor, held = SparseSymOperator._factor, []

    def recording(self):
        held.append(slot.factor)
        return factor(self)

    monkeypatch.setattr(SparseSymOperator, "_factor", recording)
    rng = np.random.default_rng(6)
    for k, b in enumerate(rng.standard_normal((2, 50))):
        x = near.solve_spd(b, tol=1e-12)
        assert held == [None] * k
        assert np.linalg.norm(near.matvec(x) - b) <= 1e-12 * np.linalg.norm(b)
        assert x == pytest.approx(np.linalg.solve(matrix, b), rel=1e-9,
                                  abs=1e-11)
    assert 6 <= len(solves) <= 20
    assert slot.factor is near._factorization is not None


def test_far_operator_falls_back_to_own_factor():
    # A plus a diagonal spanning four orders of magnitude: the residual of
    # conjugate gradients preconditioned by A's factor reads 1.10 after the
    # first solve and 1.12 after the second, so the shared attempt stops
    # there for want of a decrease.
    slot, op, dense = chain_with_factor(5)
    shared, solves = counting(slot)
    matrix = far_matrix(dense)
    far = SparseSymOperator(sp.csr_matrix(matrix), slot=slot)
    b = np.random.default_rng(6).standard_normal(50)
    x = far.solve_spd(b, tol=1e-12)
    assert len(solves) == 2
    assert far._factorization is not None
    assert slot.factor is far._factorization
    assert np.linalg.norm(far.matvec(x) - b) <= 1e-12 * np.linalg.norm(b)
    assert x == pytest.approx(np.linalg.solve(matrix, b), rel=1e-9,
                              abs=1e-11)


def test_nonpositive_diagonal_raises_with_shared_factor():
    slot, op, dense = chain_with_factor(5)
    bad = dense.copy()
    bad[7, 7] = 0.0
    with pytest.raises(CoercivityError):
        SparseSymOperator(sp.csr_matrix(bad), slot=slot).solve_spd(
            np.ones(50))
    assert slot.factor is op._factorization


@pytest.mark.parametrize("spread", [0.0, 1.0, 2.0])
def test_norm_bound_never_skips_a_solution_at_the_floor(spread):
    # D A D for a random SPD A and a diagonal D of 10^U(-spread, spread):
    # rows of very different sizes.  Near-solutions x (1 + d), |d| from
    # 1e-17 to 1e-6, lie on both sides of the floor; wherever the
    # componentwise backward error meets it, the norm bound must not rule
    # it out.
    _, dense = random_spd(60, seed=3)
    rng = np.random.default_rng(50)
    d = 10.0 ** rng.uniform(-spread, spread, 60)
    op = SparseSymOperator(sp.csr_matrix(d[:, None] * dense * d))
    b = rng.standard_normal(60)
    x = op.solve_spd(b)
    norm_b = np.linalg.norm(b)
    outcomes = set()
    for size in 10.0 ** np.arange(-17.0, -5.0):
        for near in x * (1.0 + size * rng.standard_normal((10, 60))):
            r = b - op.matrix @ near
            norm_r = float(np.linalg.norm(r))
            at_floor = op._at_floor(near, r, b, norm_r, norm_b)
            assert at_floor == (op._backward_error(near, r, b) <= op._floor)
            ruled_out = norm_r > 2.0 * op._floor * (
                op._abs_norm * np.linalg.norm(near) + norm_b)
            outcomes.add((at_floor, ruled_out))
    # At the floor, above it but not ruled out, and ruled out all occur.
    assert outcomes == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize("level", range(2, 7))
def test_symmetric_csc_is_the_permuted_csr_without_a_copy(level):
    # A symmetric matrix's CSR arrays, indices sorted, are its CSC arrays:
    # the factor's input equals scipy's conversion and reuses the arrays.
    mesh = build_unit_square_mesh(level)
    rng = np.random.default_rng(40 + level)
    weight = rng.uniform(0.5, 2.0,
                         (mesh.num_triangles, len(fem.TRIANGLE_WEIGHTS)))
    a = fem.add_weighted_mass(mesh, None, weight).matrix
    perm = reverse_cuthill_mckee(a, symmetric_mode=True)
    want = a[perm][:, perm].tocsc()
    permuted = a[perm][:, perm]
    got = _symmetric_csc(permuted)
    assert got.format == "csc"
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.shares_memory(getattr(got, name), getattr(permuted, name))

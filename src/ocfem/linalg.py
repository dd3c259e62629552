"""Symmetric sparse operators and the linear solves behind every assembly.

Operators are checked symmetric at construction and are positive definite
here, so each is factored once as symmetric and cached: a reverse
Cuthill-McKee pre-ordering (George & Liu, 1981, ch. 4-5) makes the fill
independent of the vertex numbering, then SuperLU in symmetric mode orders
by minimum degree on A^T + A and takes diagonal pivots only.  No pivoting
is safe for SPD matrices; a nonpositive diagonal entry (here an inadmissible
reaction coefficient) raises CoercivityError before factoring.  Iterative
refinement ``x += LU^-1 (b - A x)`` (Higham, 2002, ch. 12) takes at most
five steps, each of which must lower the true residual.  A solution is
accepted when its relative residual meets the tolerance, or else at the
working-precision floor: a componentwise backward error
``max_i |r_i| / (|A||x| + |b|)_i`` (0/0 rows count as zero) of at most
``(m + 1) eps/2``, m the most nonzeros in a row: the rounding error of
computing the residual itself (the term of LAPACK xGERFS's error bound).
Otherwise LinearSolverError carries the residual history.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CoercivityError, LinearSolverError

_REFINEMENT_STEPS = 5  # as LAPACK xGERFS (ITMAX)


class _PermutedFactor:
    """LU factor of ``A[perm][:, perm]`` that solves ``A x = b``."""

    def __init__(self, lu, perm):
        self.lu, self.perm = lu, perm

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self.perm] = self.lu.solve(b[self.perm])
        return x


class SparseSymOperator:
    """Assembled symmetric sparse operator with solve capability.

    Parameters
    ----------
    matrix : scipy sparse matrix
        Square matrix in any scipy sparse format; stored as CSR.  Symmetry
        of the stored values is verified to round-off at construction.
    """

    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix)
        n0, n1 = self.matrix.shape
        if n0 != n1:
            raise LinearSolverError("operator must be square")
        self.n = n0
        if self.matrix.nnz:
            gap = abs(self.matrix - self.matrix.T).max()
            scale = max(abs(self.matrix).max(), 1.0)
            if gap > 1e-14 * scale:
                raise LinearSolverError(
                    f"stored values are not symmetric (|A-A^T| = {gap:.3e})")
        self._factorization = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise LinearSolverError(
                f"dimension mismatch: operator is {self.n}, vector is {x.shape}")
        return self.matrix @ x

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def _factor(self):
        if self._factorization is None:
            if np.any(self.matrix.diagonal() <= 0.0):
                raise CoercivityError(
                    "operator has a nonpositive diagonal entry; "
                    "reaction coefficient is inadmissible")
            # Imported here, not at start-up: only factoring needs it.
            from scipy.sparse.csgraph import reverse_cuthill_mckee
            perm = reverse_cuthill_mckee(self.matrix, symmetric_mode=True)
            try:
                self._factorization = _PermutedFactor(spla.splu(
                    self.matrix[perm][:, perm].tocsc(),
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True}), perm)
            except RuntimeError as exc:
                raise LinearSolverError(
                    f"sparse factorization failed: {exc}") from exc
        return self._factorization

    def solve_spd(self, b: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Solve ``A x = b`` to relative residual ``tol`` (see the module
        docstring for the refinement and the floor rule)."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise LinearSolverError(
                f"dimension mismatch: operator is {self.n}, rhs is {b.shape}")
        norm_b = float(np.linalg.norm(b))
        if norm_b == 0.0:
            return np.zeros(self.n)
        lu = self._factor()
        x = lu.solve(b)
        r = b - self.matrix @ x
        history = [float(np.linalg.norm(r)) / norm_b]
        while history[-1] > tol and len(history) <= _REFINEMENT_STEPS:
            x_new = x + lu.solve(r)
            r_new = b - self.matrix @ x_new
            res = float(np.linalg.norm(r_new)) / norm_b
            if not res < history[-1]:
                break
            x, r = x_new, r_new
            history.append(res)
        if history[-1] <= tol:
            return x
        scale = abs(self.matrix) @ np.abs(x) + np.abs(b)
        omega = float(np.max(np.divide(np.abs(r), scale, out=np.zeros(self.n),
                                       where=scale > 0.0)))
        row_terms = np.diff(self.matrix.indptr).max() + 1
        floor = float(row_terms * np.finfo(float).eps / 2)
        if omega <= floor:
            return x
        raise LinearSolverError(
            f"direct solve residual {history[-1]:.3e} exceeds tol {tol:.3e} "
            f"after {len(history) - 1} refinement steps (componentwise "
            f"backward error {omega:.3e} above the floor {floor:.3e})",
            residual_history=history)

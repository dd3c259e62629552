"""Symmetric sparse operators and the linear solves behind every assembly.

The default solve is a cached direct factorization (deterministic,
sequential); a diagonally preconditioned conjugate gradient fallback is
available and is also used to detect indefiniteness, which for the systems
assembled in this package signals an inadmissible reaction coefficient.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CoercivityError, LinearSolverError


class SparseSymOperator:
    """Assembled symmetric sparse operator with solve capability.

    Parameters
    ----------
    matrix : scipy sparse matrix
        Square matrix in any scipy sparse format; stored as CSR.
    symmetric : bool
        If True (default), symmetry of the stored values is verified to
        round-off at construction.
    """

    def __init__(self, matrix, symmetric: bool = True):
        self.matrix = sp.csr_matrix(matrix)
        n0, n1 = self.matrix.shape
        if n0 != n1:
            raise LinearSolverError("operator must be square")
        self.n = n0
        self.symmetric = bool(symmetric)
        if self.symmetric and self.matrix.nnz:
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

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def _factor(self):
        if self._factorization is None:
            try:
                self._factorization = spla.splu(self.matrix.tocsc())
            except RuntimeError as exc:
                raise LinearSolverError(
                    f"sparse factorization failed: {exc}") from exc
        return self._factorization

    def solve_spd(self, b: np.ndarray, tol: float = 1e-12,
                  method: str = "auto") -> np.ndarray:
        """Solve ``A x = b`` for a symmetric positive definite operator.

        ``method`` is "auto" (direct factorization, verified residual),
        "direct", or "cg".  Raises CoercivityError when indefiniteness is
        detected and LinearSolverError when the residual target cannot be
        met; both carry the residual history.
        """
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise LinearSolverError(
                f"dimension mismatch: operator is {self.n}, rhs is {b.shape}")
        norm_b = float(np.linalg.norm(b))
        if norm_b == 0.0:
            return np.zeros(self.n)
        diag = self.diagonal()
        if np.any(diag <= 0.0):
            raise CoercivityError(
                "operator has a nonpositive diagonal entry; "
                "reaction coefficient is inadmissible")
        if method in ("auto", "direct"):
            x = self._factor().solve(b)
            res = float(np.linalg.norm(self.matvec(x) - b)) / norm_b
            if res <= tol:
                return x
            if method == "direct":
                raise LinearSolverError(
                    f"direct solve residual {res:.3e} exceeds tol {tol:.3e}",
                    residual_history=[res])
        return self._solve_cg(b, tol)

    def _solve_cg(self, b, tol):
        norm_b = float(np.linalg.norm(b))
        inv_diag = 1.0 / self.diagonal()
        x = np.zeros(self.n)
        r = b.copy()
        z = inv_diag * r
        p = z.copy()
        rz = float(r @ z)
        history = [1.0]
        for _ in range(max(10 * self.n, 100)):
            ap = self.matvec(p)
            pap = float(p @ ap)
            if pap <= 0.0:
                raise CoercivityError(
                    "conjugate gradient breakdown (p^T A p <= 0); "
                    "operator is not positive definite",
                    residual_history=history)
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            res = float(np.linalg.norm(r)) / norm_b
            history.append(res)
            if res <= tol:
                return x
            z = inv_diag * r
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        raise LinearSolverError(
            f"conjugate gradient stalled at residual {history[-1]:.3e}",
            residual_history=history)

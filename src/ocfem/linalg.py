"""Symmetric sparse operators and the linear solves behind every assembly.

Operators are checked symmetric at construction and are positive definite
here, so each is factored as symmetric: a reverse Cuthill-McKee
pre-ordering (George & Liu, 1981, ch. 4-5) makes the fill independent of
the vertex numbering, then SuperLU in symmetric mode orders by minimum
degree on A^T + A and takes diagonal pivots only.  No pivoting is safe for
SPD matrices; a nonpositive diagonal entry (here an inadmissible reaction
coefficient) raises CoercivityError before the first solve of an operator.
With the operator's own factor F, iterative refinement
``x += F^-1 (b - A x)`` (Higham, 2002, ch. 12) takes at most five steps,
each of which must lower the true residual.  A solution is accepted when
its relative residual meets the tolerance, or at the first step that
reaches the working-precision floor: a componentwise backward error
``max_i |r_i| / (|A||x| + |b|)_i`` (0/0 rows count as zero) of at most
``(m + 1) eps/2``, m the most nonzeros in a row: the rounding error of
computing the residual itself (the term of LAPACK xGERFS's error bound).

Operators built along one chain of nearby operators (a Newton iteration,
an outer optimization loop) may share a ``FactorSlot``.  An operator that
has no factor of its own first solves by conjugate gradients
preconditioned by the slot's factor F (Saad, 2003, sec. 9.2), the factor
of an earlier operator of the chain.  F is symmetric positive definite
(the factor of an SPD operator with diagonal pivots), so this converges
for any SPD operator, and fast when the spectrum of F^-1 A is clustered;
stationary refinement with F diverges once an eigenvalue of F^-1 A
exceeds 2.  Each iterate is checked on the true residual ``b - A x`` by
the same acceptance test, within the same step budget, and the attempt
stops when a step does not lower the residual or the observed
contraction cannot reach the tolerance in the steps left.  If it is not
accepted, the operator is factored, its factor replaces the slot's, and
the operator solves by refinement with its own factor.  A solve with the
operator's own factor that is not accepted raises LinearSolverError with
the residual history.
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


class FactorSlot:
    """The latest factor of a chain of nearby operators, shared by them."""

    def __init__(self):
        self.factor = None


class SparseSymOperator:
    """Assembled symmetric sparse operator with solve capability.

    Parameters
    ----------
    matrix : scipy sparse matrix
        Square matrix in any scipy sparse format; stored as CSR.  Symmetry
        of the stored values is verified to round-off at construction.
    slot : FactorSlot, optional
        Shared factor of the operator's chain (see the module docstring).
    """

    def __init__(self, matrix, slot: FactorSlot = None):
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
        self.slot = slot
        self._factorization = None
        self._diagonal_checked = False
        # |A| and the backward-error floor, formed when first needed.
        self._abs_matrix = self._floor = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise LinearSolverError(
                f"dimension mismatch: operator is {self.n}, vector is {x.shape}")
        return self.matrix @ x

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def _factor(self):
        """A new factor of this operator."""
        # Imported here, not at start-up: only factoring needs it.
        from scipy.sparse.csgraph import reverse_cuthill_mckee
        perm = reverse_cuthill_mckee(self.matrix, symmetric_mode=True)
        try:
            return _PermutedFactor(spla.splu(
                self.matrix[perm][:, perm].tocsc(),
                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True}), perm)
        except RuntimeError as exc:
            raise LinearSolverError(
                f"sparse factorization failed: {exc}") from exc

    def _backward_error(self, x, r, b) -> float:
        """Componentwise backward error ``max_i |r_i| / (|A||x| + |b|)_i``."""
        if self._abs_matrix is None:
            self._abs_matrix = abs(self.matrix)
            row_terms = np.diff(self.matrix.indptr).max() + 1
            self._floor = float(row_terms * np.finfo(float).eps / 2)
        scale = self._abs_matrix @ np.abs(x) + np.abs(b)
        return float(np.max(np.divide(np.abs(r), scale, out=np.zeros(self.n),
                                      where=scale > 0.0)))

    def _solve_with(self, lu, b, norm_b, tol, shared=False):
        """Solve with factor ``lu``: iterative refinement with the
        operator's own factor, conjugate gradients preconditioned by a
        shared one (see the module docstring).  A solution that is not
        accepted is None with a shared factor and raises LinearSolverError
        with the operator's own."""
        x = p = None
        r, history = b, []
        while True:
            step = lu.solve(r)
            if shared:  # the next conjugate direction and its exact step
                rz = float(r @ step)
                if p is not None:
                    step += rz / rz_prev * p
                p, rz_prev = step, rz
                step = rz / float(p @ (self.matrix @ p)) * p
            x = step if x is None else x + step
            r = b - self.matrix @ x
            res = float(np.linalg.norm(r)) / norm_b
            if history and not res < history[-1]:
                break
            history.append(res)
            if res <= tol:
                return x
            omega = self._backward_error(x, r, b)
            if omega <= self._floor:
                return x
            steps_left = _REFINEMENT_STEPS + 1 - len(history)
            if steps_left == 0:
                break
            if shared and len(history) > 1:
                rho = history[-1] / history[-2]
                if history[-1] * rho ** steps_left > tol:
                    break
        if shared:
            return None
        raise LinearSolverError(
            f"direct solve residual {history[-1]:.3e} exceeds tol {tol:.3e} "
            f"after {len(history) - 1} refinement steps (componentwise "
            f"backward error {omega:.3e} above the floor {self._floor:.3e})",
            residual_history=history)

    def solve_spd(self, b: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Solve ``A x = b`` to relative residual ``tol`` (see the module
        docstring for the refinement, the floor rule and the shared
        factor)."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise LinearSolverError(
                f"dimension mismatch: operator is {self.n}, rhs is {b.shape}")
        norm_b = float(np.linalg.norm(b))
        if norm_b == 0.0:
            return np.zeros(self.n)
        if self._factorization is None:
            if not self._diagonal_checked:
                if np.any(self.matrix.diagonal() <= 0.0):
                    raise CoercivityError(
                        "operator has a nonpositive diagonal entry; "
                        "reaction coefficient is inadmissible")
                self._diagonal_checked = True
            if self.slot is not None and self.slot.factor is not None:
                x = self._solve_with(self.slot.factor, b, norm_b, tol,
                                     shared=True)
                if x is not None:
                    return x
                self.slot.factor = None
            self._factorization = self._factor()
            if self.slot is not None:
                self.slot.factor = self._factorization
        return self._solve_with(self._factorization, b, norm_b, tol)

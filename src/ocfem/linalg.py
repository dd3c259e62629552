"""Symmetric sparse operators and the linear solves behind every assembly.

Operators are symmetric by construction (``fem`` sums local matrices,
each symmetric to the bit, on one symmetric pattern); that is not checked,
since every solution is accepted on its own residual.  They are positive
definite here, so each is factored as symmetric: a reverse Cuthill-McKee
pre-ordering (George & Liu, 1981, ch. 4-5) makes the fill independent of
the vertex numbering, then SuperLU in symmetric mode orders by minimum
degree on A^T + A and takes diagonal pivots only.  No pivoting is safe for
SPD matrices; a nonpositive diagonal entry (here an inadmissible reaction
coefficient) raises CoercivityError before the first solve of an operator.

Every solve is one iteration: conjugate gradients preconditioned by a
factor F (Saad, 2003, sec. 9.2).  F is symmetric positive definite (the
factor of an SPD operator with diagonal pivots), so this converges for any
SPD operator: in one or two steps with the operator's own factor (F^-1 A
is the identity up to round-off), superlinearly with a nearby operator's
when the spectrum of F^-1 A is clustered.  A solution is
accepted when its relative residual meets the tolerance, or at the first
iterate that reaches the working-precision floor: a componentwise backward
error ``max_i |r_i| / (|A||x| + |b|)_i`` (0/0 rows count as zero) of at
most ``(m + 1) eps/2``, m the most nonzeros in a row: the rounding error
of computing the residual itself (the term of LAPACK xGERFS's error bound).
That error is not formed where ``||r|| > 2 floor (N ||x|| + ||b||)`` rules
it out, N the largest row sum of |A| (a bound on its 2-norm, A symmetric).
The iteration takes at most twenty steps (fewer triangular solves than one
factorization costs) and stops early only when a step does not lower the
residual.  Its inner products and norms are numpy sums of products, not
BLAS ``dot``/``nrm2``, which split long vectors across threads: the bits
of a solve do not depend on the BLAS thread count.

Every operator holds a ``FactorSlot``: its own, or one shared by a chain of
nearby operators (a Newton iteration, an outer optimization loop), which
holds the chain's latest factor.  An operator without a factor of its own
first solves with the slot's factor.  If that solve is not accepted, or an
earlier one of the operator took more than five steps (so that it pays one
factorization, not repeated slow solves), the slot releases its factor,
the operator is factored, its factor fills the slot, and it solves again
with it.  A solve with the operator's own factor that is not accepted
raises LinearSolverError with the residual history.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CoercivityError, LinearSolverError

_STEPS = 20  # below the ~25 triangular solves a factorization costs
_SLOW_STEPS = 5  # a slower shared solve factors before the next one


def norm(x: np.ndarray) -> float:
    """Euclidean norm of the vector ``x``, the same under any BLAS thread
    count (see the module docstring)."""
    return math.sqrt(float(np.sum(x * x)))


class _PermutedFactor:
    """LU factor of ``A[perm][:, perm]`` that solves ``A x = b``."""

    def __init__(self, lu, perm):
        self.lu, self.perm = lu, perm

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self.perm] = self.lu.solve(b[self.perm])
        return x


def _symmetric_csc(matrix):
    """The symmetric CSR ``matrix`` as CSC on its own, index-sorted arrays."""
    matrix.sort_indices()
    return sp.csc_matrix((matrix.data, matrix.indices, matrix.indptr),
                         shape=matrix.shape)


class FactorSlot:
    """The latest factor of one operator, or of a chain of nearby
    operators that share it."""

    def __init__(self):
        self.factor = None


class SparseSymOperator:
    """Assembled symmetric sparse operator with solve capability.

    Parameters
    ----------
    matrix : scipy sparse matrix
        Square matrix in any scipy sparse format, symmetric; stored as CSR.
    slot : FactorSlot, optional
        Shared factor of the operator's chain, or a new slot of its own
        (see the module docstring).
    """

    def __init__(self, matrix, slot: FactorSlot = None):
        self.matrix = sp.csr_matrix(matrix)
        n0, n1 = self.matrix.shape
        if n0 != n1:
            raise LinearSolverError("operator must be square")
        self.n = n0
        self.slot = FactorSlot() if slot is None else slot
        self._factorization = None
        self._diagonal_checked = self._factor_next = False
        # The backward-error floor and the norm of |A|, formed when needed.
        self._floor = self._abs_norm = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise LinearSolverError(
                f"dimension mismatch: operator is {self.n}, vector is {x.shape}")
        return self.matrix @ x

    def _factor(self):
        """A new factor of this operator."""
        # Imported here, not at start-up: only factoring needs it.
        from scipy.sparse.csgraph import reverse_cuthill_mckee
        perm = reverse_cuthill_mckee(self.matrix, symmetric_mode=True)
        try:
            return _PermutedFactor(spla.splu(
                _symmetric_csc(self.matrix[perm][:, perm]),
                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True}), perm)
        except RuntimeError as exc:
            raise LinearSolverError(
                f"sparse factorization failed: {exc}") from exc

    def _backward_error(self, x, r, b) -> float:
        """Componentwise backward error ``max_i |r_i| / (|A||x| + |b|)_i``."""
        scale = abs(self.matrix) @ np.abs(x) + np.abs(b)
        return float(np.max(np.divide(np.abs(r), scale, out=np.zeros(self.n),
                                      where=scale > 0.0)))

    def _at_floor(self, x, r, b, norm_r, norm_b) -> bool:
        """Whether ``x`` is at the floor (see the module docstring)."""
        if self._floor is None:
            row_terms = np.diff(self.matrix.indptr).max() + 1
            self._floor = float(row_terms * np.finfo(float).eps / 2)
            # fem's operators are symmetric to the bit with sorted indices,
            # so these row sums of |A| are its column sums to the bit.
            self._abs_norm = float(np.max(abs(self.matrix)
                                          @ np.ones(self.n)))
        bound = self._abs_norm * norm(x) + norm_b
        return (norm_r <= 2.0 * self._floor * bound
                and self._backward_error(x, r, b) <= self._floor)

    def _solve_with(self, factor, b, norm_b, tol):
        """Conjugate gradients preconditioned by ``factor`` (see the module
        docstring).  Returns the accepted solution or None, the relative
        residual of each iterate kept, and the last of them with its
        residual."""
        x = p = None
        r, history = b, []
        while len(history) < _STEPS:
            step = factor.solve(r)
            rz = float(np.sum(r * step))
            if p is not None:  # the next conjugate direction
                step += rz / rz_prev * p
            p, rz_prev = step, rz
            step = rz / float(np.sum(p * (self.matrix @ p))) * p
            x = step if x is None else x + step
            r = b - self.matrix @ x
            norm_r = norm(r)
            res = norm_r / norm_b
            if history and not res < history[-1]:
                break
            history.append(res)
            last = x, r
            if res <= tol or self._at_floor(x, r, b, norm_r, norm_b):
                return x, history, last
        return None, history, last

    def solve_spd(self, b: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Solve ``A x = b`` to relative residual ``tol`` (see the module
        docstring for the iteration, the floor rule and the shared
        factor)."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise LinearSolverError(
                f"dimension mismatch: operator is {self.n}, rhs is {b.shape}")
        norm_b = norm(b)
        if norm_b == 0.0:
            return np.zeros(self.n)
        if self._factorization is None:
            if not self._diagonal_checked:
                if np.any(self.matrix.diagonal() <= 0.0):
                    raise CoercivityError(
                        "operator has a nonpositive diagonal entry; "
                        "reaction coefficient is inadmissible")
                self._diagonal_checked = True
            if self.slot.factor is not None and not self._factor_next:
                x, history, _ = self._solve_with(self.slot.factor, b, norm_b,
                                                 tol)
                if x is not None:
                    self._factor_next = len(history) > _SLOW_STEPS
                    return x
            self.slot.factor = None
            self._factorization = self.slot.factor = self._factor()
        x, history, last = self._solve_with(self._factorization, b, norm_b,
                                            tol)
        if x is None:
            raise LinearSolverError(
                f"solve residual {history[-1]:.3e} exceeds tol {tol:.3e} "
                f"after {len(history)} preconditioned steps (componentwise "
                f"backward error {self._backward_error(*last, b):.3e} above "
                f"the floor {self._floor:.3e})", residual_history=history)
        return x

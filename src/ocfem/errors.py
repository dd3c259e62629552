"""Exception types shared across the package."""


class OcfemError(Exception):
    """Base class for all package errors."""


class MeshError(OcfemError):
    """Invalid mesh data or unsupported mesh query."""


class MeshSizeError(MeshError):
    """Requested refinement level would overflow the vertex index type, or
    (``ocfem`` command) its run would not fit in memory."""


class LinearSolverError(OcfemError):
    """Linear solve failed; carries the residual history.

    Attributes
    ----------
    residual_history : list of float
        Relative residuals recorded before the failure.
    report : list of StudyRecord or None
        The rows a study finished before the failure (set by ``run_study``).
    """

    report = None

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class CoercivityError(LinearSolverError):
    """Assembled operator is not positive definite.

    For the systems of this package this signals an inadmissible
    reaction coefficient (a0 + u < 0 somewhere).
    """


class NonconvergenceError(OcfemError):
    """Iterative solver exhausted its iteration budget.

    Attributes
    ----------
    report : object
        Diagnostics of the failed solve (SolveReport for Newton, the best
        OcpSolution for the outer optimizer, finished rows for a study).
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class AdmissibilityError(OcfemError):
    """Problem data violates an admissibility requirement."""

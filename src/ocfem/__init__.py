"""Finite element solver for bilinear optimal control of semilinear
elliptic equations: piecewise-constant controls, piecewise-linear states,
first-order control convergence with second-order state/adjoint
superconvergence and post-processing."""

from .errors import (AdmissibilityError, CoercivityError, LinearSolverError,
                     MeshError, MeshSizeError, NonconvergenceError,
                     OcfemError)
from .fem import (P0Field, P1Field, QuadratureRule, TRIANGLE_RULE,
                  assemble_boundary_load, assemble_stiffness,
                  assemble_volume_load, assemble_weighted_mass,
                  elementwise_p1_product_mean, integrate, l2_diff_p0,
                  l2_diff_p0_cross, l2_diff_p1, l2_diff_p1_cross,
                  l2_project_p0, linf_diff_p1, prolong_p0, prolong_p1)
from .linalg import SparseSymOperator
from .mesh import Mesh, barycenters, build_unit_square_mesh, refine
from .optimizer import Linearization, OcpSolution, cost, solve_ocp
from .pde import (ProblemSpec, SolveReport, linearized_operator,
                  solve_adjoint, solve_eta, solve_linearized, solve_state)
from .presets import PRESET_NAMES, get_preset
from .study import (StudyRecord, eoc, mixed_elements,
                    postprocess_error_cross, postprocessed_samples, run_study)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

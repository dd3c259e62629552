"""Nonlinear state solve and the linear solves of the derivative machinery.

All four solves share one bilinear form: the diffusion form, whose
stiffness ``fem`` assembles once per (mesh, diffusion), plus a reaction
term whose weight is ``da/dy(x, y_h) + u``.  The adjoint, linearized-state
and second-order solves take that operator as an argument: it is built once
per state (``optimizer.Linearization`` does so) and never reassembled by a
solve.  Consecutive operators differ only in that weight, so the operators
of one chain (the Newton steps of a state solve, or every operator of an
outer optimization) share a ``FactorSlot``: an operator first solves by
conjugate gradients preconditioned by the chain's latest factor and is
factored only when that solve fails or was slow (see ``ocfem.linalg``).
Admissibility of data and controls is decided by
``ProblemSpec.check_control`` alone; ``validate`` applies it to u = alpha.

The state solve is an inexact Newton method (Dembo, Eisenstat & Steihaug,
SIAM J. Numer. Anal. 19, 1982): step k solves its tangent system only to
the relative residual ``max(linear_tol, min(0.1, ||F_k|| / scale))``,
with ``scale = 1 + ||boundary load||`` as in the stopping rule.  The
forcing term is absolute, not relative to ``||F_0||``: with a relative
one, warm-started solves (small ``||F_0||``) converge only linearly and
stop just under the tolerance, while the absolute one keeps the quadratic
overshoot of Newton's last step.  A cold solve factors once, at its first
step; each later step costs a few preconditioned iterations with that
factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import fem
from .errors import AdmissibilityError, MeshError, NonconvergenceError
from .fem import P0Field, P1Field
from .linalg import FactorSlot, SparseSymOperator, norm
from .mesh import Mesh

# Default tolerances: the state Newton stop, relative to 1 + ||g||, and the
# relative residual of every linear solve.
NEWTON_TOL = 1e-11
LINEAR_TOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """All data of the control problem.

    Evaluator conventions: point arguments are arrays of shape (..., 2),
    state arguments arrays of shape (...); results broadcast to (...), so
    every coefficient but ``diffusion`` may return a scalar for a constant.
    The state's nonlinearity is a(x, y) = ``reaction(x, y) - source(x)``,
    with an x-only ``source``; the derivatives and the floor of a are those
    of the reaction.  The tracking term L(x, y) and its derivatives are
    required; a vanishing one (pure Tikhonov cost) is given by zero
    callables.  ``beta`` may be ``math.inf`` for controls unbounded above.
    """

    reaction: Callable              # r(x, y)
    source: Callable                # f(x); a(x, y) = r(x, y) - f(x)
    nonlinearity_dy: Callable       # da/dy(x, y)
    nonlinearity_dyy: Callable      # d2a/dy2(x, y)
    reaction_floor: Callable        # a0(x), lower bound for da/dy
    boundary_flux: Callable         # g on the boundary
    nu: float
    alpha: float
    beta: float
    objective: Callable             # L(x, y)
    objective_dy: Callable          # dL/dy(x, y)
    objective_dyy: Callable         # d2L/dy2(x, y)
    diffusion: Optional[Callable] = None       # None: identity coefficients
    name: str = ""

    def __post_init__(self):
        if not 0.0 < self.nu < math.inf:
            raise AdmissibilityError("nu must be finite and positive")
        for name in ("alpha", "beta"):
            if math.isnan(getattr(self, name)):
                raise AdmissibilityError(f"bound {name} is nan")
        if not self.alpha < self.beta:
            raise AdmissibilityError("bounds must satisfy alpha < beta")

    @property
    def nonlinearity(self) -> Callable:
        """a(x, y) = ``reaction(x, y) - source(x)``."""
        reaction, source = self.reaction, self.source
        return lambda x, y: reaction(x, y) - source(x)

    def clamp(self, values: np.ndarray) -> np.ndarray:
        """``values`` projected onto the box [alpha, beta]."""
        return np.minimum(np.maximum(values, self.alpha), self.beta)

    def with_overrides(self, **changes) -> "ProblemSpec":
        return replace(self, **changes)

    def validate(self, mesh: Mesh) -> None:
        """Sampled admissibility checks on the given mesh.

        Checks the constant control alpha (``check_control``) and
        spot-checks that da/dy(x, y) is finite and bounded below by a0(x).
        """
        self.check_control(mesh, P0Field(mesh, np.full(mesh.num_triangles,
                                                       self.alpha)))
        pts = fem.quadrature_points(mesh).reshape(-1, 2)
        sample = pts[:: max(1, len(pts) // 64)]
        a0s = fem.at_points(self.reaction_floor, sample)
        for y_val in (-3.0, -1.0, 0.0, 0.5, 2.0):
            dy = fem.at_points(self.nonlinearity_dy, sample,
                               np.full(len(sample), y_val))
            if not np.all(np.isfinite(dy)):
                raise AdmissibilityError(f"da/dy(x, {y_val}) is not finite")
            gap = float(np.min(dy - a0s))   # a0 is finite by check_control
            if gap < -1e-10:
                raise AdmissibilityError(
                    f"da/dy(x, {y_val}) < a0(x) by {-gap:.3e}: "
                    "reaction floor is not a lower bound")

    def check_control(self, mesh: Mesh, u: P0Field) -> None:
        """Check that u lives on ``mesh`` and a0 + u is finite and >= 0 at
        the quadrature points, not identically 0."""
        if u.mesh is not mesh:
            raise MeshError("the control lives on another mesh")
        a0 = fem.at_points(self.reaction_floor, fem.quadrature_points(mesh))
        total = a0 + u.values[:, None]
        low, high = float(total.min()), float(total.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise AdmissibilityError("a0 + u is not finite")
        if low < -1e-12:
            raise AdmissibilityError(
                f"a0(x) + u = {low:.6e} < 0: coercivity is lost")
        if high <= 0.0:
            raise AdmissibilityError("a0 + u vanishes identically")


@dataclass
class SolveReport:
    """Diagnostics of one nonlinear state solve."""

    iterations: int = 0
    residual: float = math.inf
    damping_events: int = 0


def linearized_operator(spec: ProblemSpec, mesh: Mesh, u: P0Field,
                        y: P1Field,
                        slot: FactorSlot = None) -> SparseSymOperator:
    """Operator of the linearized form: stored stiffness + reaction
    da/dy + u, sharing the factor slot ``slot``."""
    da = fem.at_points(spec.nonlinearity_dy, fem.quadrature_points(mesh),
                       y.at_quadrature())
    return fem.add_weighted_mass(mesh, spec.diffusion, da + u.values[:, None],
                                 slot=slot)


_NEWTON_MAX_ITERATIONS = 50  # iteration budget of solve_state


def solve_state(spec: ProblemSpec, mesh: Mesh, u: P0Field,
                init: P1Field = None, *, tol: float = NEWTON_TOL,
                linear_tol: float = LINEAR_TOL, slot: FactorSlot = None):
    """Damped Newton solve of the discrete semilinear state equation.

    Returns ``(P1Field, SolveReport)``.  The residual
    ``K y + load(reaction) + M_u y - g - load(source)`` is driven below
    ``tol * scale``, ``scale = 1 + ||g||`` (g the boundary load); its
    x-only part ``g + load(source)`` is assembled once per call.  The Newton
    direction uses the exact tangent (stiffness plus reaction mass with
    weight da/dy + u), solved to the forcing term
    ``max(linear_tol, min(0.1, ||F_k|| / scale))`` at the residual F_k:
    ``linear_tol`` is its floor.  The tangents share ``slot``, or a slot of
    this call's own if it is None.
    """
    spec.check_control(mesh, u)
    if init is not None and init.mesh is not mesh:
        raise MeshError("the initial state lives on another mesh")
    if init is not None and not np.all(np.isfinite(init.values)):
        raise AdmissibilityError("the initial state is not finite")
    stiffness = fem.assemble_stiffness(mesh, spec.diffusion)
    if slot is None:
        slot = FactorSlot()
    load = fem.assemble_boundary_load(mesh, spec.boundary_flux)
    scale = 1.0 + norm(load)
    pts = fem.quadrature_points(mesh)
    load += fem.assemble_volume_load(mesh, fem.at_points(spec.source, pts))

    def residual(values):
        y = P1Field(mesh, values)
        res = stiffness.matvec(values)
        res += fem.assemble_volume_load(
            mesh, fem.at_points(spec.reaction, pts, y.at_quadrature()))
        res += fem.p0_weighted_p1_load(mesh, u, y)
        res -= load
        return res

    y = np.zeros(mesh.num_vertices) if init is None else init.values.copy()
    report = SolveReport()
    f = residual(y)
    norm_f = norm(f)
    while not norm_f <= tol * scale:   # a NaN residual never converges
        if report.iterations == _NEWTON_MAX_ITERATIONS:
            report.residual = norm_f
            raise NonconvergenceError(
                f"state Newton did not converge in {_NEWTON_MAX_ITERATIONS} "
                f"iterations (residual {norm_f:.3e})", report=report)
        operator = linearized_operator(spec, mesh, u, P1Field(mesh, y),
                                       slot=slot)
        delta = operator.solve_spd(
            -f, tol=max(linear_tol, min(0.1, norm_f / scale)))
        step = 1.0
        for _ in range(30):
            y_trial = y + step * delta
            f_trial = residual(y_trial)
            norm_trial = norm(f_trial)
            if norm_trial < norm_f or norm_trial <= tol * scale:
                break
            step *= 0.5
            report.damping_events += 1
        else:
            report.iterations += 1
            report.residual = norm_f
            raise NonconvergenceError(
                "Newton damping failed to reduce the state residual",
                report=report)
        y, f, norm_f = y_trial, f_trial, norm_trial
        report.iterations += 1
    report.residual = norm_f
    return P1Field(mesh, y), report


def solve_adjoint(spec: ProblemSpec, operator: SparseSymOperator,
                  y: P1Field, *, linear_tol: float = LINEAR_TOL) -> P1Field:
    """Discrete adjoint state at the state ``y``, with the linearized
    operator there."""
    mesh = y.mesh
    rhs = fem.assemble_volume_load(mesh, fem.at_points(
        spec.objective_dy, fem.quadrature_points(mesh), y.at_quadrature()))
    return P1Field(mesh, operator.solve_spd(rhs, tol=linear_tol))


def solve_linearized(operator: SparseSymOperator, y: P1Field, v: P0Field, *,
                     linear_tol: float = LINEAR_TOL) -> P1Field:
    """Derivative of the control-to-state map at the state ``y`` in
    direction v (P0), with the linearized operator there."""
    rhs = -fem.p0_weighted_p1_load(y.mesh, v, y)
    return P1Field(y.mesh, operator.solve_spd(rhs, tol=linear_tol))


def solve_eta(operator: SparseSymOperator, phi: P1Field, z: P1Field,
              v: P0Field, curvature: np.ndarray, *,
              linear_tol: float = LINEAR_TOL) -> P1Field:
    """Second-order auxiliary solve feeding the Hessian representation:
    ``curvature`` holds the quadrature values of
    ``d2L/dy2 - phi d2a/dy2`` at the state."""
    mesh = phi.mesh
    rhs = fem.assemble_volume_load(mesh, curvature * z.at_quadrature())
    rhs -= fem.p0_weighted_p1_load(mesh, v, phi)
    return P1Field(mesh, operator.solve_spd(rhs, tol=linear_tol))

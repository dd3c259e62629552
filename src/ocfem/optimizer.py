"""Discrete cost, derivatives, projection formula, and the outer solver.

Every derivative of the reduced cost at a control comes from one
``Linearization``: its state, adjoint, gradient, curvature weight, Hessian
products and the two-solve Hessian, and the projection formula
``Proj_[alpha, beta](mean_T(y phi) / nu)`` with the KKT residual, the L2
distance of the control from that image.  ``solve_ocp`` builds one per
outer iteration, and ``ocfem check`` one for its derivative checks.

The outer solver is a primal-dual active-set (semismooth Newton) method on
the projection-formula residual ``u - Proj((1/nu) * elementwise_mean(y*phi))``:
an element is active where the projection moves ``mean_T(y phi) / nu``
(``Linearization.active``), active values are fixed at their projected
bound, and the reduced Newton system on the inactive elements is
solved by conjugate gradients in the elementwise L2 inner product with
matrix-free Hessian products (one linearized solve plus one second-order
solve per product, reusing the state operator).  All operators of one
``solve_ocp`` call share one factor slot (see ``ocfem.linalg``).

The reduced CG and its products are inexact, aimed at the KKT stop
``tol``.  At an iterate with residual kkt the CG stops at relative
residual ``max(1e-10, 0.1 tol / kkt)``, enough for inexact Newton to keep
its rate (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).
The product at CG residual r_j solves its two systems to
``max(linear_tol, 0.1 eta |r_0| / |r_j|)``, eta the CG's target: the
product error may grow as the residual falls (Simoncini & Szyld, SIAM J.
Sci. Comput. 25, 2003).  The state and adjoint solves, which define the
KKT residual, keep ``linear_tol``.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import fem, pde
from .errors import MeshError, NonconvergenceError
from .fem import P0Field, P1Field
from .linalg import FactorSlot
from .mesh import Mesh

KKT_TOL = 1e-9  # default stop of solve_ocp on the KKT residual


@dataclass
class OcpSolution:
    """Converged (or best) solution of the discrete control problem."""

    control: P0Field
    state: P1Field
    adjoint: P1Field
    cost: float
    kkt_residual: float
    outer_iterations: int
    converged: bool
    state_report: pde.SolveReport


class Linearization:
    """State, adjoint, reduced-cost derivatives and projection at a control.

    Every Hessian product reuses the operator of the linearized form at the
    state.  The state's Newton tangents and the operator share ``slot`` (a
    new one if None)."""

    def __init__(self, spec, mesh, u, state_init=None, *,
                 newton_tol=pde.NEWTON_TOL, linear_tol=pde.LINEAR_TOL,
                 slot=None):
        self.spec = spec
        self.mesh = mesh
        self.u = u
        if slot is None:
            slot = FactorSlot()
        self.state, self.report = pde.solve_state(
            spec, mesh, u, init=state_init, tol=newton_tol,
            linear_tol=linear_tol, slot=slot)
        self.operator = pde.linearized_operator(spec, mesh, u, self.state,
                                                slot=slot)
        self.adjoint = pde.solve_adjoint(spec, self.operator, self.state,
                                         linear_tol=linear_tol)
        self.linear_tol = linear_tol
        self.product_mean = fem.elementwise_p1_product_mean(
            mesh, self.state, self.adjoint)
        # Elementwise gradient nu u_T - mean_T(y phi) (exact means): the
        # derivative in a P0 direction v is sum_T gradient_T v_T |T|.
        self.gradient = spec.nu * u.values - self.product_mean
        # Projection formula, its active set (where the box moves the
        # image), and the L2 distance of u from the projection.
        q = self.product_mean / spec.nu
        self.projected_control = spec.clamp(q)
        self.active = self.projected_control != q
        self.kkt_residual = fem.l2_diff_p0(
            u, P0Field(mesh, self.projected_control))

    @cached_property
    def curvature(self) -> np.ndarray:
        """Quadrature values of ``d2L/dy2(x,y) - phi * d2a/dy2(x,y)``,
        (nt, nq), shared by the second-order solve and the z-form."""
        spec = self.spec
        pts = fem.quadrature_points(self.mesh)
        yq = self.state.at_quadrature()
        d2a = fem.at_points(spec.nonlinearity_dyy, pts, yq)
        d2l = fem.at_points(spec.objective_dyy, pts, yq)
        return d2l - self.adjoint.at_quadrature() * d2a

    def hessian_apply_values(self, v_values: np.ndarray,
                             tol: float = None) -> np.ndarray:
        """Elementwise values of the Hessian image of a P0 direction.

        Second-derivative representation through the auxiliary solve:
        ``(Hv)_T = nu v_T - mean_T(phi z_v + y eta_v)``.  Its two solves
        meet the relative residual ``tol`` (``linear_tol`` if None).
        """
        if tol is None:
            tol = self.linear_tol
        v = P0Field(self.mesh, v_values)
        z = pde.solve_linearized(self.operator, self.state, v, linear_tol=tol)
        eta = pde.solve_eta(self.operator, self.adjoint, z, v,
                            self.curvature, linear_tol=tol)
        mean = fem.elementwise_p1_product_mean(self.mesh, self.adjoint, z)
        mean += fem.elementwise_p1_product_mean(self.mesh, self.state, eta)
        return self.spec.nu * v_values - mean

    def hessian(self, v1: P0Field, v2: P0Field) -> float:
        """Second derivative of the discrete cost in two P0 directions, by
        the symmetric two-solve expression.  It agrees to solver tolerance
        with ``sum(|T| * hessian_apply_values(v1) * v2)``."""
        mesh, phi, nu = self.mesh, self.adjoint, self.spec.nu
        operator, y, tol = self.operator, self.state, self.linear_tol
        z1 = pde.solve_linearized(operator, y, v1, linear_tol=tol)
        z2 = z1 if v2 is v1 else pde.solve_linearized(operator, y, v2,
                                                      linear_tol=tol)
        current = fem.integrate(
            mesh, self.curvature * z1.at_quadrature() * z2.at_quadrature())
        cross = fem.elementwise_p1_product_mean(mesh, z2, phi) * v1.values
        cross += fem.elementwise_p1_product_mean(mesh, z1, phi) * v2.values
        current -= float(np.sum(mesh.areas * cross))
        current += nu * float(np.sum(mesh.areas * v1.values * v2.values))
        return current


def cost(spec: pde.ProblemSpec, mesh: Mesh, u: P0Field, *,
         state: P1Field = None, init: P1Field = None) -> float:
    """Discrete objective at u (state solved from ``init`` if absent)."""
    if state is None:
        state, _ = pde.solve_state(spec, mesh, u, init=init)
    tracking = fem.integrate(mesh, fem.at_points(
        spec.objective, fem.quadrature_points(mesh), state.at_quadrature()))
    tikhonov = 0.5 * spec.nu * float(np.sum(mesh.areas * u.values ** 2))
    return tracking + tikhonov


# Floor of the reduced CG's relative residual target, and its iteration
# budget.
_CG_TOL = 1e-10
_CG_MAX_ITERATIONS = 200
_OUTER_MAX_ITERATIONS = 50  # iteration budget of solve_ocp


def _reduced_cg(problem, rhs, inactive, areas, tol):
    """CG on the inactive block of the Hessian in the elementwise L2 inner
    product, preconditioned by 1/nu, to relative residual ``tol``.
    Truncated on indefiniteness.  The product at residual r_j solves to
    ``max(linear_tol, 0.1 tol |r_0| / |r_j|)``, below 0.1 as
    ``|r_j| > tol |r_0|`` until the stop: its error may grow as the
    residual falls (Simoncini & Szyld, 2003)."""
    nu = problem.spec.nu
    x = np.zeros_like(rhs)
    r = np.where(inactive, rhs, 0.0)
    rhs_norm = res = math.sqrt(float(np.sum(areas * r * r)))
    if rhs_norm == 0.0:
        return x
    z = r / nu
    p = z.copy()
    rz = float(np.sum(areas * r * z))
    for _ in range(_CG_MAX_ITERATIONS):
        hp = problem.hessian_apply_values(
            p, max(problem.linear_tol, 0.1 * tol * rhs_norm / res))
        hp = np.where(inactive, hp, 0.0)
        php = float(np.sum(areas * p * hp))
        if php <= 0.0:
            # Negative curvature: fall back to the best descent information
            # gathered so far (steepest direction on the first pass).
            return x if np.any(x) else z
        alpha = rz / php
        x += alpha * p
        r -= alpha * hp
        res = math.sqrt(float(np.sum(areas * r * r)))
        if res <= tol * rhs_norm:
            break
        z = r / nu
        rz_new = float(np.sum(areas * r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def solve_ocp(spec: pde.ProblemSpec, mesh: Mesh, init: P0Field = None, *,
              tol: float = KKT_TOL, newton_tol: float = pde.NEWTON_TOL,
              linear_tol: float = pde.LINEAR_TOL,
              state_init: P1Field = None) -> OcpSolution:
    """Solve the discrete control problem to a KKT residual below ``tol``.

    Raises NonconvergenceError (carrying the best iterate) if the outer
    budget is exhausted.  Its message names an exact cycle, a control
    iterate that repeats an earlier one bit for bit, with the number of
    distinct controls visited; otherwise it signals possible loss of
    second-order sufficiency at the computed point.
    """
    spec.validate(mesh)
    if init is not None and init.mesh is not mesh:
        raise MeshError("the initial control lives on another mesh")
    slot = FactorSlot()
    u = P0Field(mesh, spec.clamp(np.zeros(mesh.num_triangles) if init is None
                                 else init.values))
    y_guess = state_init
    best: Optional[OcpSolution] = None
    last_kkt = math.inf
    stall = 0
    visited = {}    # digest of each distinct control iterate -> iteration
    repeat = None   # the first iterate that repeats one, and that one

    for it in range(1, _OUTER_MAX_ITERATIONS + 1):
        digest = hashlib.sha256(u.values.tobytes()).digest()
        if repeat is None and digest in visited:
            repeat = (it, visited[digest])
        visited.setdefault(digest, it)
        # Release the previous problem, and its operator, before the next
        # one is built.
        problem = None
        problem = Linearization(spec, mesh, u, state_init=y_guess,
                                newton_tol=newton_tol, linear_tol=linear_tol,
                                slot=slot)
        y_guess = problem.state
        kkt = problem.kkt_residual
        if best is None or kkt < best.kkt_residual:
            best = OcpSolution(control=u, state=problem.state,
                               adjoint=problem.adjoint, cost=math.nan,
                               kkt_residual=kkt, outer_iterations=it,
                               converged=kkt <= tol,
                               state_report=problem.report)
        if kkt <= tol:
            # Every earlier iterate had a residual above tol, so ``best`` is
            # this iterate.
            break
        if it == _OUTER_MAX_ITERATIONS:
            # No iteration is left to price a further step.
            break

        stall = stall + 1 if kkt >= last_kkt else 0
        last_kkt = kkt
        if stall >= 3:
            # Damped fixed-point safeguard against local nonconvexity.
            u = P0Field(mesh, 0.5 * u.values + 0.5 * problem.projected_control)
            stall = 0
            continue

        active = problem.active
        delta = np.where(active, problem.projected_control - u.values, 0.0)
        rhs = -problem.gradient
        if np.any(active):
            rhs -= problem.hessian_apply_values(delta)
        # Inexact Newton: a relative residual of 0.1 tol / kkt suffices for
        # the stop (Dembo, Eisenstat & Steihaug, 1982); kkt > tol here.
        step = _reduced_cg(problem, rhs, ~active, mesh.areas,
                           max(_CG_TOL, 0.1 * tol / kkt))
        u = P0Field(mesh, spec.clamp(u.values + delta + step))

    best.cost = cost(spec, mesh, best.control, state=best.state)
    if best.converged:
        return best
    cause = "possible loss of second-order sufficiency" if repeat is None \
        else (f"the iterates cycle: iterate {repeat[0]} repeats iterate "
              f"{repeat[1]}, and the {_OUTER_MAX_ITERATIONS} iterations "
              f"visited {len(visited)} distinct controls")
    raise NonconvergenceError(
        f"outer solver did not reach KKT tolerance {tol:.3e} in "
        f"{_OUTER_MAX_ITERATIONS} iterations "
        f"(best residual {best.kkt_residual:.3e}); {cause}", report=best)

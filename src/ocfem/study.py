"""Convergence studies over nested mesh families and post-processing.

A study solves the discrete control problem on every level of a dyadic
mesh family (with coarse-to-fine continuation), measures consecutive-level
L2 differences through exact nested prolongation, and records experimental
orders of convergence together with the free-boundary diagnostic, the
measure of the mixed elements T1.  Each level's control, state and adjoint
are prolonged once, to the next level; those fields start its continuation
and are the coarse side of every consecutive-level error.

Nothing here locates a point: the coarse post-processed control reaches the
fine quadrature points through exact P1 prolongation, and a finer one is
sampled at a coarse level's vertices and barycenters by index
(``postprocessed_samples``).  ``mixed_elements`` reads those samples.  Both
rely on the layout ``mesh.refine`` fixes: a parent vertex keeps its index,
and child 3 of every triangle is the middle child, with its parent's
barycenter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import fem, optimizer, pde
from .errors import LinearSolverError, NonconvergenceError, OcfemError
from .fem import P1Field
from .mesh import Mesh, build_unit_square_mesh, check_level, refine


@dataclass
class StudyRecord:
    """Per-level errors, orders and diagnostics of one study row."""

    level: int
    h: float
    e_u: float
    e_y: float
    e_phi: float
    e_upost: float
    eoc_u: Optional[float]
    eoc_y: Optional[float]
    eoc_phi: Optional[float]
    eoc_upost: Optional[float]
    kkt_residual: float
    outer_iterations: int
    measure_t1: float


def eoc(e_prev: float, e_cur: float) -> Optional[float]:
    """Experimental order of convergence; None when undefined."""
    if e_prev > 0.0 and e_cur > 0.0:
        return math.log2(e_prev) - math.log2(e_cur)
    return None


def postprocessed_samples(spec: pde.ProblemSpec, state: P1Field,
                          adjoint: P1Field, mesh: Mesh) -> np.ndarray:
    """Post-processed control ``clamp(y phi / nu)`` of ``state`` and
    ``adjoint``, with the box and nu of ``spec``, at the three vertices and
    the barycenter of every triangle of ``mesh``: (nt, 4).  ``mesh`` is the
    fields' mesh or an ancestor of it.

    Exact index maps of the nested hierarchy, no point location:
    ``refine`` keeps a vertex's index, and coarse triangle ``t`` has the
    barycenter of its middle descendant ``4**k * t + 4**k - 1`` k levels
    down, where a P1 value is the mean of the three nodal values.
    """
    k, node = 0, state.mesh
    while node is not mesh:
        if node.parent is None:
            raise OcfemError("samples need an ancestor of the fields' mesh")
        k, node = k + 1, node.parent
    y, phi = state.values, adjoint.values
    stride = 4 ** k
    middle = state.mesh.triangles[
        stride * np.arange(mesh.num_triangles, dtype=np.int64) + stride - 1]
    products = np.column_stack([
        y[mesh.triangles] * phi[mesh.triangles],
        y[middle].mean(axis=1) * phi[middle].mean(axis=1)])
    return spec.clamp(products / spec.nu)


def mixed_elements(spec: pde.ProblemSpec, state: P1Field, adjoint: P1Field,
                   mesh: Mesh) -> np.ndarray:
    """Mask (nt,) of the mixed elements T1 of ``mesh``: those with both
    active and inactive ``postprocessed_samples``.  A sample is active
    within ``1e-6 (beta - alpha)`` of a bound of ``spec``, or
    ``1e-6 max(1, |alpha|)`` if beta is infinite.
    """
    alpha, beta = spec.alpha, spec.beta
    if math.isfinite(beta):
        tol = 1e-6 * (beta - alpha)
    else:
        tol = 1e-6 * max(1.0, abs(alpha))
    vals = postprocessed_samples(spec, state, adjoint, mesh)
    active = (np.abs(vals - alpha) <= tol) | (np.abs(vals - beta) <= tol)
    return active.any(axis=1) & (~active).any(axis=1)


def postprocess_error_cross(spec: pde.ProblemSpec, coarse, fine) -> float:
    """L2 distance of post-processed controls across one refinement level.

    ``coarse`` and ``fine`` are (state, adjoint) pairs on one mesh:
    ``coarse`` is the coarser level's pair prolonged to it, and nested P1
    prolongation is exact, so they are the coarse fields at the fine
    quadrature points.  Both sides are clamped with ``spec``'s box and nu.
    Integrated with the standard volume rule on the finer mesh; the clamp
    kinks are not split (their set has vanishing measure under the
    free-boundary assumption, keeping the quadrature error below the
    measured second-order signal).
    """
    mesh = fine[0].mesh
    if any(field.mesh is not mesh for field in (*coarse, *fine)):
        raise OcfemError("coarse fields are not prolonged to the fine mesh")
    (y_c, phi_c), (y_f, phi_f) = coarse, fine
    fine_vals = spec.clamp(y_f.at_quadrature() * phi_f.at_quadrature()
                           / spec.nu)
    coarse_vals = spec.clamp(y_c.at_quadrature() * phi_c.at_quadrature()
                             / spec.nu)
    return math.sqrt(fem.integrate(mesh, (fine_vals - coarse_vals) ** 2))


def continuation(spec: pde.ProblemSpec, j_min: int, j_max: int, *,
                 tol: float = optimizer.KKT_TOL,
                 newton_tol: float = pde.NEWTON_TOL,
                 linear_tol: float = pde.LINEAR_TOL):
    """Solve levels ``j_min..j_max`` by nested iteration: each level starts
    from ``fields``, the previous level's (control, state, adjoint)
    prolonged to its mesh (None at ``j_min``).  Yields ``(solution,
    fields)`` per level and refines only after the yield.  A too fine
    ``j_max`` raises ``MeshSizeError`` before any mesh is built."""
    check_level(j_max)
    mesh, fields = build_unit_square_mesh(j_min), None
    for level in range(j_min, j_max + 1):
        u_init, y_init, _ = fields or (None,) * 3
        sol = optimizer.solve_ocp(spec, mesh, init=u_init, state_init=y_init,
                                  tol=tol, newton_tol=newton_tol,
                                  linear_tol=linear_tol)
        yield sol, fields
        if level < j_max:
            mesh = refine(mesh)
            fields = (fem.prolong_p0(mesh, sol.control),
                      fem.prolong_p1(mesh, sol.state),
                      fem.prolong_p1(mesh, sol.adjoint))


def run_study(spec: pde.ProblemSpec, j_min: int, j_max: int, *,
              tol: float = optimizer.KKT_TOL,
              newton_tol: float = pde.NEWTON_TOL,
              linear_tol: float = pde.LINEAR_TOL,
              progress: Optional[Callable] = None) -> List[StudyRecord]:
    """Tabulate ``continuation`` on levels ``j_min..j_max``.

    Consecutive-level differences are measured by exact prolongation; rows
    are produced for ``j_min..j_max-1``.  Nonconvergence or a failed linear
    solve at any level aborts with the rows computed so far attached to
    the error as ``report``.
    """
    if not (0 <= j_min < j_max):
        raise OcfemError("levels must satisfy 0 <= j_min < j_max")
    pairs = []
    try:
        for sol, fields in continuation(spec, j_min, j_max, tol=tol,
                                        newton_tol=newton_tol,
                                        linear_tol=linear_tol):
            pairs.append((sol, fields))
            if progress is not None:
                progress(sol.control.mesh.level, sol)
    except (NonconvergenceError, LinearSolverError) as err:
        err.args = (f"study aborted at level {j_min + len(pairs)}: {err}",)
        err.report = _build_records(spec, pairs)
        raise
    return _build_records(spec, pairs)


def _build_records(spec, pairs):
    """One row per consecutive pair of ``continuation``'s yields."""
    rows: List[StudyRecord] = []
    if len(pairs) > 1:
        last = pairs[-1][0]
    for (coarse, _), (fine, prolonged) in zip(pairs, pairs[1:]):
        control, state, adjoint = prolonged
        mesh = coarse.control.mesh
        e_u = fem.l2_diff_p0(control, fine.control)
        e_y = fem.l2_diff_p1(state, fine.state)
        e_phi = fem.l2_diff_p1(adjoint, fine.adjoint)
        e_upost = postprocess_error_cross(spec, (state, adjoint),
                                          (fine.state, fine.adjoint))
        mixed = mixed_elements(spec, last.state, last.adjoint, mesh)
        prev = rows[-1] if rows else None
        rows.append(StudyRecord(
            level=mesh.level, h=mesh.h,
            e_u=e_u, e_y=e_y, e_phi=e_phi, e_upost=e_upost,
            eoc_u=eoc(prev.e_u, e_u) if prev else None,
            eoc_y=eoc(prev.e_y, e_y) if prev else None,
            eoc_phi=eoc(prev.e_phi, e_phi) if prev else None,
            eoc_upost=eoc(prev.e_upost, e_upost) if prev else None,
            kkt_residual=coarse.kkt_residual,
            outer_iterations=coarse.outer_iterations,
            measure_t1=float(mesh.areas[mixed].sum())))
    return rows

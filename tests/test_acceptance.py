"""Acceptance battery: convergence-table reproduction at desk scale,
order checks, derivative consistency, optimality against brute force,
manufactured exactness, projection properties, and the local stiffness
oracle.  One PASS/FAIL line is printed per criterion item (run with -s to
see them live).

Two reference-value checks (the state magnitude at level 4 and the adjoint
magnitude at level 5) are known not to reproduce: every faithful variant
of this discretization yields those two columns at roughly half the quoted
reference magnitudes while matching the control column to 1-5% and all
experimental orders to two decimals.  They are asserted at the stated
tolerance regardless and are expected to fail; see the README.
"""
import itertools
import math

import numpy as np
import pytest

from ocfem import (Mesh, P0Field, P1Field, build_unit_square_mesh,
                   get_preset, linf_diff_p1, run_study)
from ocfem import fem, optimizer, pde

RULE_POINTS = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])
RULE_WEIGHTS = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


def check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def flagship():
    return get_preset("paper-sec6")


@pytest.fixture(scope="module")
def table(flagship):
    records = run_study(flagship, 3, 8)
    return {r.level: r for r in records}


# --- criterion 1: convergence-table reproduction, levels 3..8 -------------

def test_criterion1_control_values(table):
    e3, e6 = table[3].e_u, table[6].e_u
    check("c1 control value at level 3", abs(e3 - 1.4e-1) <= 0.25 * 1.4e-1,
          f"e_3(u) = {e3:.3e}, reference 1.4e-01")
    check("c1 control value at level 6", abs(e6 - 2.6e-2) <= 0.25 * 2.6e-2,
          f"e_6(u) = {e6:.3e}, reference 2.6e-02")


def test_criterion1_control_orders(table):
    for j in (6, 7):
        v = table[j].eoc_u
        check(f"c1 control order at level {j}", 0.9 <= v <= 1.1,
              f"EOC_{j}(u) = {v:.3f}")


def test_criterion1_state_value_level4(table):
    e4 = table[4].e_y
    check("c1 state value at level 4 (known discrepancy)",
          abs(e4 - 1.6e-2) <= 0.25 * 1.6e-2,
          f"e_4(y) = {e4:.3e}, reference 1.6e-02; every faithful variant "
          "measures ~0.53x the reference (see README)")


def test_criterion1_state_orders(table):
    for j in (5, 6, 7):
        v = table[j].eoc_y
        check(f"c1 state order at level {j}", 1.9 <= v <= 2.1,
              f"EOC_{j}(y) = {v:.3f}")


def test_criterion1_adjoint_value_level5(table):
    e5 = table[5].e_phi
    check("c1 adjoint value at level 5 (known discrepancy)",
          abs(e5 - 2.3e-4) <= 0.25 * 2.3e-4,
          f"e_5(phi) = {e5:.3e}, reference 2.3e-04; every faithful variant "
          "measures ~0.47x the reference (see README)")


def test_criterion1_adjoint_orders(table):
    for j in (5, 6, 7):
        v = table[j].eoc_phi
        check(f"c1 adjoint order at level {j}", 1.9 <= v <= 2.1,
              f"EOC_{j}(phi) = {v:.3f}")


def test_table_columns_decrease_and_superconverge(table):
    levels = sorted(table)
    for prev, cur in zip(levels, levels[1:]):
        for col in ("e_u", "e_y", "e_phi", "e_upost"):
            check(f"table {col} decreases {prev}->{cur}",
                  getattr(table[cur], col) < getattr(table[prev], col),
                  f"{getattr(table[prev], col):.3e} -> "
                  f"{getattr(table[cur], col):.3e}")
    for j in levels:
        if j >= 5:
            r = table[j]
            check(f"superconvergence gap at level {j}",
                  r.e_y < r.e_u and r.e_phi < r.e_u,
                  f"e_y={r.e_y:.3e}, e_phi={r.e_phi:.3e}, e_u={r.e_u:.3e}")


# --- criterion 2: first-order control differences --------------------------

def test_criterion2_control_halving(table):
    for j in (6, 7):
        ratio = table[j].e_u / table[j - 1].e_u
        check(f"c2 control ratio at level {j}", 0.45 <= ratio <= 0.6,
              f"e_{j}(u)/e_{j-1}(u) = {ratio:.3f}")


# --- criterion 3: second-order state/adjoint differences --------------------

def test_criterion3_superconvergence_quartering(table):
    for j in (5, 6, 7):
        ry = table[j].e_y / table[j - 1].e_y
        rp = table[j].e_phi / table[j - 1].e_phi
        check(f"c3 state ratio at level {j}", 0.22 <= ry <= 0.30,
              f"e_{j}(y)/e_{j-1}(y) = {ry:.3f}")
        check(f"c3 adjoint ratio at level {j}", 0.22 <= rp <= 0.30,
              f"e_{j}(phi)/e_{j-1}(phi) = {rp:.3f}")


# --- criterion 4: post-processed control order ------------------------------

def test_criterion4_postprocessed_order(table):
    for j in (5, 6, 7):
        v = table[j].eoc_upost
        check(f"c4 post-processed order at level {j}", 1.8 <= v <= 2.2,
              f"EOC_{j}(u~) = {v:.3f}")


# --- criterion 5: mixed-element measure decay -------------------------------

def test_criterion5_mixed_measure_decay(table):
    for j in (5, 6, 7):
        ratio = table[j].measure_t1 / table[j - 1].measure_t1
        check(f"c5 mixed-measure ratio at level {j}", 0.3 <= ratio <= 0.7,
              f"|T1|({j})/|T1|({j-1}) = {ratio:.3f}")


# --- criterion 6: derivative battery ----------------------------------------

@pytest.fixture(scope="module")
def battery(flagship):
    mesh = build_unit_square_mesh(4)
    u = fem.l2_project_p0(
        mesh, lambda x: 0.3 + 0.2 * np.sin(2.0 * np.pi * x[..., 0]) *
        np.cos(np.pi * x[..., 1]))
    problem = optimizer.Linearization(flagship, mesh, u)
    return mesh, u, problem


def _cost_at(flagship, mesh, u_values, state):
    return optimizer.cost(flagship, mesh, P0Field(mesh, u_values), init=state)


def test_criterion6_gradient_fd(flagship, battery):
    mesh, u, problem = battery
    v = P0Field(mesh, np.full(mesh.num_triangles, 1.0))
    derivative = float(np.sum(mesh.areas * problem.gradient * v.values))
    errs = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        plus = _cost_at(flagship, mesh, u.values + t * v.values,
                        problem.state)
        minus = _cost_at(flagship, mesh, u.values - t * v.values,
                         problem.state)
        errs.append(abs((plus - minus) / (2.0 * t) - derivative))
    rel = errs[-1] / (1.0 + abs(derivative))
    check("c6 gradient vs central difference at t=1e-4", rel <= 1e-5,
          f"relative error {rel:.3e}")
    slopes = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    check("c6 gradient Richardson slope", ok,
          f"slopes {['%.3f' % s for s in slopes]} over t = 1e-1..1e-3")


def test_criterion6_hessian_symmetry(battery):
    mesh, u, problem = battery
    rng = np.random.default_rng(43)
    v1 = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    v2 = P0Field(mesh, rng.standard_normal(mesh.num_triangles))

    def eta_form(a, b):  # the z form is symmetric in (a, b) by construction
        return float(np.sum(mesh.areas * problem.hessian_apply_values(a.values)
                            * b.values))

    h12, h21 = eta_form(v1, v2), eta_form(v2, v1)
    gap = abs(h12 - h21) / (1.0 + abs(h12))
    check("c6 Hessian symmetry", gap <= 1e-10, f"relative gap {gap:.3e}")


def test_criterion6_hessian_forms_agree(battery):
    mesh, u, problem = battery
    rng = np.random.default_rng(44)
    v1 = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    v2 = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    hz = problem.hessian(v1, v2)
    he = float(np.sum(mesh.areas * problem.hessian_apply_values(v1.values)
                      * v2.values))
    gap = abs(hz - he) / (1.0 + abs(hz))
    check("c6 two-solve vs auxiliary-solve Hessian", gap <= 1e-8,
          f"relative gap {gap:.3e}")


def test_criterion6_second_difference_slope(flagship, battery):
    mesh, u, problem = battery
    v = P0Field(mesh, np.full(mesh.num_triangles, 3.0))
    h = problem.hessian(v, v)
    base = optimizer.cost(flagship, mesh, u, state=problem.state)
    steps = (0.3, 0.1, 0.03)
    errs = []
    for t in steps:
        plus = _cost_at(flagship, mesh, u.values + t * v.values,
                        problem.state)
        minus = _cost_at(flagship, mesh, u.values - t * v.values,
                         problem.state)
        errs.append(abs((plus - 2.0 * base + minus) / t ** 2 - h))
    logs_t = np.log(steps)
    slope, _ = np.polyfit(logs_t, np.log(errs), 1)
    check("c6 second-difference slope", 1.7 <= slope <= 2.3,
          f"least-squares slope {slope:.3f} over t = 0.3..0.03")


# --- criterion 7: brute-force optimality on the 2-element mesh --------------

class TwoTriangleOracle:
    """Independent mini-solver for the 2-element unit square.

    Hand-assembled stiffness, hard-coded quadrature, batched damped Newton
    over a grid of constant controls per element; shares nothing with the
    package assembly path.
    """

    TRIS = np.array([[0, 1, 2], [0, 2, 3]])          # (0,0),(1,0),(1,1),(0,1)
    AREA = 0.5

    def __init__(self, spec):
        self.spec = spec
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        self.K = np.array([
            [1.0, -0.5, 0.0, -0.5],
            [-0.5, 1.0, -0.5, 0.0],
            [0.0, -0.5, 1.0, -0.5],
            [-0.5, 0.0, -0.5, 1.0],
        ])
        self.quad_xy = [RULE_POINTS @ corners[t] for t in self.TRIS]
        base = (np.ones((3, 3)) + np.eye(3)) / 24.0   # area/12 * (1+delta)
        self.M_exact = base

    def _states(self, u1, u2, init=None):
        """Batched damped Newton for the 4-node state at controls (u1, u2)."""
        n = len(u1)
        y = np.zeros((n, 4)) if init is None else np.tile(init, (n, 1))
        controls = (u1, u2)

        def residual(yv):
            res = yv @ self.K.T
            for t, tri in enumerate(self.TRIS):
                yq = yv[:, tri] @ RULE_POINTS.T
                aq = self.spec.nonlinearity(self.quad_xy[t], yq)
                res[:, tri] += self.AREA * ((aq * RULE_WEIGHTS) @ RULE_POINTS)
                yloc = yv[:, tri]
                action = (yloc + yloc.sum(axis=1, keepdims=True)) / 24.0
                res[:, tri] += controls[t][:, None] * action
            return res

        f = residual(y)
        norm = np.linalg.norm(f, axis=1)
        for _ in range(40):
            if np.max(norm) <= 1e-11:
                break
            jac = np.broadcast_to(self.K, (n, 4, 4)).copy()
            for t, tri in enumerate(self.TRIS):
                yq = y[:, tri] @ RULE_POINTS.T
                daq = self.spec.nonlinearity_dy(self.quad_xy[t], yq)
                local = self.AREA * np.einsum("nq,qi,qj->nij",
                                              daq * RULE_WEIGHTS,
                                              RULE_POINTS, RULE_POINTS)
                local += controls[t][:, None, None] * self.M_exact
                jac[np.ix_(np.arange(n), tri, tri)] += local
            delta = np.linalg.solve(jac, -f[..., None])[..., 0]
            step = np.ones(n)
            for _ in range(20):
                trial = y + step[:, None] * delta
                f_trial = residual(trial)
                norm_trial = np.linalg.norm(f_trial, axis=1)
                worse = (norm_trial >= norm) & (norm > 1e-11)
                if not np.any(worse):
                    break
                step[worse] *= 0.5
            y, f, norm = trial, f_trial, norm_trial
        assert np.max(norm) <= 1e-10
        return y

    def costs(self, u1, u2, init=None):
        y = self._states(u1, u2, init=init)
        total = 0.5 * self.spec.nu * self.AREA * (u1 ** 2 + u2 ** 2)
        for t, tri in enumerate(self.TRIS):
            yq = y[:, tri] @ RULE_POINTS.T
            lq = self.spec.objective(self.quad_xy[t], yq)
            total += self.AREA * (lq @ RULE_WEIGHTS)
        return total


def test_criterion7_brute_force_grid(flagship):
    # Grid search over constant controls per element on [-1, 1]^2: a 0.02
    # grid first, then the 1e-3 grid within 0.02 of every coarse local
    # minimum (8 neighbours). On this problem the coarse grid has one local
    # minimum, and the search finds the full 1e-3 grid's minimizer.
    mesh = build_unit_square_mesh(0)
    solution = optimizer.solve_ocp(flagship, mesh)
    oracle = TwoTriangleOracle(flagship)
    grid = np.round(np.arange(-1.0, 1.0 + 5e-4, 1e-3), 9)
    stride = 20
    reference = oracle._states(np.zeros(1), np.zeros(1))[0]
    coarse = np.arange(0, len(grid), stride)
    i1, i2 = np.meshgrid(coarse, coarse, indexing="ij")
    costs = oracle.costs(grid[i1.ravel()], grid[i2.ravel()],
                         init=reference).reshape(i1.shape)
    padded = np.pad(costs, 1, constant_values=np.inf)
    n = len(coarse)
    local_min = np.ones(costs.shape, dtype=bool)
    for d1, d2 in itertools.product((-1, 0, 1), repeat=2):
        local_min &= costs <= padded[1 + d1:1 + d1 + n, 1 + d2:1 + d2 + n]
    window = np.zeros((len(grid), len(grid)), dtype=bool)
    for c1, c2 in zip(*np.nonzero(local_min)):
        window[max(coarse[c1] - stride, 0):coarse[c1] + stride + 1,
               max(coarse[c2] - stride, 0):coarse[c2] + stride + 1] = True
    f1, f2 = np.nonzero(window)
    costs = oracle.costs(grid[f1], grid[f2], init=reference)
    idx = int(np.argmin(costs))
    best = float(costs[idx])
    best_pair = (float(grid[f1[idx]]), float(grid[f2[idx]]))
    check("c7 grid minimizer", best_pair == (-0.656, 1.0),
          f"{best_pair} from {int(local_min.sum())} coarse local minima; "
          f"the full 1e-3 grid's is (-0.656, 1.0)")
    gap = abs(solution.cost - best)
    check("c7 cost vs brute-force grid search", gap <= 1e-6,
          f"solver {solution.cost:.10f}, grid {best:.10f} at {best_pair}, "
          f"gap {gap:.2e}")
    check("c7 solver not worse than grid", solution.cost <= best + 1e-9,
          f"gap {best - solution.cost:.2e}")


# --- criterion 8: manufactured exactness ------------------------------------

def test_criterion8_manufactured_exactness():
    spec = get_preset("manufactured-constant")
    worst_res, worst_err = 0.0, 0.0
    for level in range(7):
        mesh = build_unit_square_mesh(level)
        state, report = pde.solve_state(spec, mesh, P0Field.zeros(mesh))
        err = linf_diff_p1(state,
                           P1Field(mesh, np.ones(mesh.num_vertices)))
        worst_res = max(worst_res, report.residual)
        worst_err = max(worst_err, err)
    check("c8 manufactured residual", worst_res <= 1e-12,
          f"worst residual {worst_res:.3e} over levels 0..6")
    check("c8 manufactured field error", worst_err <= 1e-12,
          f"worst field error {worst_err:.3e} over levels 0..6")


# --- criterion 9: projection properties -------------------------------------

def test_criterion9_projection_suite():
    worst_orth = 0.0
    errors = []
    for level in range(3, 7):
        mesh = build_unit_square_mesh(level)

        def source(x):
            return x[..., 0] ** 2

        proj = fem.l2_project_p0(mesh, source)
        vals = fem.at_points(source, fem.quadrature_points(mesh))
        residual = mesh.areas * ((vals - proj.values[:, None])
                                 @ fem.TRIANGLE_WEIGHTS)
        worst_orth = max(worst_orth, float(np.max(np.abs(residual))))
        d2 = (vals - proj.values[:, None]) ** 2
        errors.append(float(np.sqrt(np.sum(
            mesh.areas * (d2 @ fem.TRIANGLE_WEIGHTS)))))
    check("c9 projection orthogonality", worst_orth <= 1e-12,
          f"worst elementwise residual {worst_orth:.3e}")
    ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
    ok = all(0.45 <= r <= 0.55 for r in ratios)
    check("c9 projection first-order decay", ok,
          f"ratios {['%.3f' % r for r in ratios]}")


# --- criterion 10: local stiffness oracle -----------------------------------

def test_criterion10_reference_stiffness():
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), 0)
    matrix = fem.assemble_stiffness(mesh).matrix.toarray()
    exact = np.array([[1.0, -0.5, -0.5],
                      [-0.5, 0.5, 0.0],
                      [-0.5, 0.0, 0.5]])
    gap = float(np.max(np.abs(matrix - exact)))
    check("c10 reference stiffness matrix", gap <= 1e-14,
          f"entrywise defect {gap:.3e}")


# --- criterion 11: second-derivative mesh consistency -----------------------

def test_criterion11_hessian_cauchy_differences(flagship):
    def u_profile(x):
        return 0.3 + 0.2 * np.sin(2.0 * np.pi * x[..., 0]) * \
            np.cos(np.pi * x[..., 1])

    def v_profile(x):
        return np.cos(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1]) + 0.5

    values = []
    for level in (4, 5, 6, 7):
        mesh = build_unit_square_mesh(level)
        u = fem.l2_project_p0(mesh, u_profile)
        v = fem.l2_project_p0(mesh, v_profile)
        problem = optimizer.Linearization(flagship, mesh, u)
        values.append(problem.hessian(v, v))
    diffs = [abs(values[i + 1] - values[i]) for i in range(3)]
    ok = diffs[0] > diffs[1] > diffs[2]
    check("c11 second-derivative Cauchy differences decrease", ok,
          f"diffs {['%.3e' % d for d in diffs]} over levels 4..7")

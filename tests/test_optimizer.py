"""Cost, derivatives, projection formula, KKT residual and the outer solver.

Independent oracles: central finite differences of the cost, a 12-point
degree-6 quadrature re-evaluation, and direct enumeration of the discrete
variational inequality on tiny meshes.
"""
import math
import weakref

import numpy as np
import pytest

from ocfem import (MeshError, NonconvergenceError, P0Field, P1Field,
                   build_unit_square_mesh, get_preset, l2_diff_p0)
from ocfem import fem, optimizer, pde
from ocfem.linalg import SparseSymOperator

# 12-point degree-6 symmetric triangle rule (independent re-evaluation).
_D6_GROUPS = [
    (0.116786275726379, 0.501426509658179, 0.249286745170910),
    (0.050844906370207, 0.873821971016996, 0.063089014491502),
]
_D6_SIX = (0.082851075618374,
           (0.053145049844817, 0.310352451033784, 0.636502499121399))


def degree6_rule():
    pts, wts = [], []
    for w, a, b in _D6_GROUPS:
        pts += [(a, b, b), (b, a, b), (b, b, a)]
        wts += [w] * 3
    w, (a, b, c) = _D6_SIX
    for perm in [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b),
                 (c, b, a)]:
        pts.append(perm)
        wts.append(w)
    return np.array(pts), np.array(wts)


def tracking_degree6(spec, mesh, state):
    points, weights = degree6_rule()
    corners = mesh.vertices[mesh.triangles]
    phys = np.einsum("qk,tkd->tqd", points, corners)
    yq = state.values[mesh.triangles] @ points.T
    vals = spec.objective(phys.reshape(-1, 2), yq.reshape(-1))
    vals = np.asarray(vals).reshape(yq.shape)
    return float(mesh.areas @ (vals @ weights))


def test_cost_tikhonov_zero_control():
    spec = get_preset("tikhonov-only")
    mesh = build_unit_square_mesh(2)
    assert optimizer.cost(spec, mesh, P0Field.zeros(mesh)) == \
        pytest.approx(0.0, abs=1e-15)


def test_cost_tikhonov_constant_control():
    spec = get_preset("tikhonov-only")
    mesh = build_unit_square_mesh(3)
    c = 0.6
    value = optimizer.cost(spec, mesh,
                           P0Field(mesh, np.full(mesh.num_triangles, c)))
    assert value == pytest.approx(0.5 * spec.nu * c * c, rel=1e-12)


def test_cost_bit_stable_and_degree6_crosscheck():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(4)
    u = P0Field.zeros(mesh)
    first = optimizer.cost(spec, mesh, u)
    second = optimizer.cost(spec, mesh, u)
    assert first == second
    state, _ = pde.solve_state(spec, mesh, u)
    resampled = tracking_degree6(spec, mesh, state)
    assert abs(first - resampled) <= 1e-8 * (1.0 + abs(first))


def test_gradient_pure_tikhonov():
    spec = get_preset("tikhonov-only")
    mesh = build_unit_square_mesh(2)
    u = P0Field(mesh, np.linspace(-0.5, 0.5, mesh.num_triangles))
    grad = optimizer.Linearization(spec, mesh, u).gradient
    assert grad == pytest.approx(spec.nu * u.values, abs=1e-13)


def test_gradient_matches_central_difference():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    rng = np.random.default_rng(23)
    u = P0Field(mesh, rng.uniform(-0.5, 0.5, mesh.num_triangles))
    v = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    problem = optimizer.Linearization(spec, mesh, u)
    state = problem.state
    derivative = float(np.sum(mesh.areas * problem.gradient * v.values))
    t = 1e-4
    plus = optimizer.cost(spec, mesh, P0Field(mesh, u.values + t * v.values),
                          init=state)
    minus = optimizer.cost(spec, mesh, P0Field(mesh, u.values - t * v.values),
                           init=state)
    fd = (plus - minus) / (2.0 * t)
    assert abs(derivative - fd) / (1.0 + abs(derivative)) <= 1e-5


def eta_form(problem, v1, v2):
    """The Hessian in directions v1, v2 through the optimizer's products."""
    hv = problem.hessian_apply_values(v1.values)
    return float(np.sum(problem.mesh.areas * hv * v2.values))


def test_hessian_zero_direction():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(2)
    u = P0Field.zeros(mesh)
    v = P0Field(mesh, np.full(mesh.num_triangles, 1.0))
    zero = P0Field.zeros(mesh)
    assert optimizer.Linearization(spec, mesh, u).hessian(zero, v) == \
        pytest.approx(0.0, abs=1e-14)


def test_hessian_reduces_to_tikhonov_for_linear_problem():
    # linear reaction, no tracking: only the Tikhonov block survives
    def zero(x, y):
        return 0.0

    spec = get_preset("manufactured-constant").with_overrides(
        objective=zero, objective_dy=zero, objective_dyy=zero)
    mesh = build_unit_square_mesh(3)
    u = P0Field.zeros(mesh)
    rng = np.random.default_rng(29)
    v1 = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    v2 = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    expected = spec.nu * float(np.sum(mesh.areas * v1.values * v2.values))
    problem = optimizer.Linearization(spec, mesh, u)
    for value in (problem.hessian(v1, v2), eta_form(problem, v1, v2)):
        assert value == pytest.approx(expected, rel=1e-12)


def test_hessian_symmetry_and_form_agreement():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    u = fem.l2_project_p0(mesh, lambda x: 0.3 * np.sin(np.pi * x[..., 0]))
    problem = optimizer.Linearization(spec, mesh, u)
    rng = np.random.default_rng(31)
    v1 = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    v2 = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    # Symmetry of the eta form: the z form is symmetric by construction.
    h12 = eta_form(problem, v1, v2)
    h21 = eta_form(problem, v2, v1)
    hz = problem.hessian(v1, v2)
    assert abs(h12 - h21) <= 1e-10 * (1.0 + abs(h12))
    assert abs(hz - h12) <= 1e-8 * (1.0 + abs(hz))


def test_hessian_second_difference():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    u = fem.l2_project_p0(mesh, lambda x: 0.2 + 0.1 * x[..., 0])
    v = P0Field(mesh, np.full(mesh.num_triangles, 3.0))
    problem = optimizer.Linearization(spec, mesh, u)
    h = problem.hessian(v, v)
    base = optimizer.cost(spec, mesh, u, state=problem.state)
    t = 0.05
    plus = optimizer.cost(spec, mesh, P0Field(mesh, u.values + t * v.values),
                          init=problem.state)
    minus = optimizer.cost(spec, mesh, P0Field(mesh, u.values - t * v.values),
                           init=problem.state)
    second = (plus - 2.0 * base + minus) / t ** 2
    assert abs(second - h) <= 1e-5 * (1.0 + abs(h))


def _projection(mesh, state, adjoint, spec):
    """Values of the projection formula on hand-made fields."""
    return spec.clamp(
        fem.elementwise_p1_product_mean(mesh, state, adjoint) / spec.nu)


def test_project_control_examples():
    mesh = build_unit_square_mesh(2)
    spec = get_preset("paper-sec6").with_overrides(alpha=-1.0, beta=1.0,
                                                   nu=0.05)
    nu = spec.nu
    y = P1Field(mesh, np.ones(mesh.num_vertices))
    phi = P1Field(mesh, np.full(mesh.num_vertices, 0.5 * nu))
    assert _projection(mesh, y, phi, spec) == \
        pytest.approx(0.5, abs=1e-14)
    phi_big = P1Field(mesh, np.full(mesh.num_vertices, 5.0 * nu))
    assert _projection(mesh, y, phi_big, spec) == \
        pytest.approx(1.0, abs=0.0)
    zero = P1Field(mesh, np.zeros(mesh.num_vertices))
    assert _projection(mesh, zero, phi, spec) == \
        pytest.approx(0.0, abs=0.0)


def test_project_control_unbounded_above():
    mesh = build_unit_square_mesh(1)
    spec = get_preset("paper-sec6").with_overrides(alpha=-1.0, beta=np.inf,
                                                   nu=1.0)
    y = P1Field(mesh, np.ones(mesh.num_vertices))
    phi = P1Field(mesh, np.full(mesh.num_vertices, 7.0))
    values = _projection(mesh, y, phi, spec)
    assert values == pytest.approx(7.0, rel=1e-14)
    phi_low = P1Field(mesh, np.full(mesh.num_vertices, -7.0))
    values = _projection(mesh, y, phi_low, spec)
    assert values == pytest.approx(-1.0, abs=0.0)


def test_kkt_residual_of_projection_is_zero():
    # Without a tracking term the adjoint vanishes, so the projection of
    # every control is Proj(0) = 0 and the residual is the control's norm.
    spec = get_preset("tikhonov-only")
    mesh = build_unit_square_mesh(2)
    zero = optimizer.Linearization(spec, mesh, P0Field.zeros(mesh))
    assert np.array_equal(zero.projected_control,
                          np.zeros(mesh.num_triangles))
    assert zero.kkt_residual == 0.0
    rng = np.random.default_rng(37)
    u = P0Field(mesh, rng.uniform(-0.5, 0.5, mesh.num_triangles))
    problem = optimizer.Linearization(spec, mesh, u)
    assert np.array_equal(
        problem.projected_control,
        _projection(mesh, problem.state, problem.adjoint, spec))
    assert problem.kkt_residual == \
        pytest.approx(l2_diff_p0(u, P0Field.zeros(mesh)), rel=1e-14)


@pytest.mark.parametrize("beta", [1.0, math.inf])
def test_active_set_is_where_the_projection_moves(monkeypatch, beta):
    # mean(y phi) / nu lands exactly on alpha and beta on some elements and
    # one ulp outside them on others: a tie is inactive, as in the
    # comparison with the bounds.
    spec = get_preset("paper-sec6").with_overrides(beta=beta)
    mesh = build_unit_square_mesh(2)
    rng = np.random.default_rng(43)
    q = rng.uniform(-3.0, 3.0, mesh.num_triangles)
    q[:4] = spec.alpha
    q[4:8] = np.nextafter(spec.alpha, -math.inf)
    q[8:12] = 1.0
    q[12:16] = np.nextafter(1.0, math.inf)
    product_mean = q * spec.nu
    monkeypatch.setattr(fem, "elementwise_p1_product_mean",
                        lambda *args: product_mean.copy())
    problem = optimizer.Linearization(spec, mesh, P0Field.zeros(mesh))
    q = product_mean / spec.nu
    assert np.any(q == spec.alpha) and np.any(q == 1.0)
    assert np.array_equal(problem.active, (q < spec.alpha) | (q > spec.beta))


def test_tikhonov_adjoint_is_zero_without_a_factorization(monkeypatch):
    spec = get_preset("tikhonov-only")
    mesh = build_unit_square_mesh(2)
    calls = []
    for name in ("_factor", "_solve_with"):
        method = getattr(SparseSymOperator, name)

        def counting(self, *args, _method=method, _name=name):
            calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(SparseSymOperator, name, counting)
    in_adjoint = []
    solve_adjoint = pde.solve_adjoint

    def recording(*args, **kwargs):
        before = len(calls)
        phi = solve_adjoint(*args, **kwargs)
        in_adjoint.extend(calls[before:])
        return phi
    monkeypatch.setattr(pde, "solve_adjoint", recording)
    u = P0Field(mesh, np.full(mesh.num_triangles, 0.3))
    problem = optimizer.Linearization(spec, mesh, u)
    assert "_factor" in calls           # the state solve factors
    assert in_adjoint == []
    assert np.array_equal(problem.adjoint.values,
                          np.zeros(mesh.num_vertices))
    assert not np.any(np.signbit(problem.adjoint.values))


def test_solve_ocp_refuses_an_initial_control_on_another_mesh():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(2)
    twin = build_unit_square_mesh(2)
    with pytest.raises(MeshError, match="initial control"):
        optimizer.solve_ocp(spec, mesh, init=P0Field.zeros(twin))


def test_kkt_residual_single_element_perturbation():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(1)
    solution = optimizer.solve_ocp(spec, mesh)
    projected = _projection(mesh, solution.state, solution.adjoint, spec)
    values = solution.control.values.copy()
    interior = int(np.argmax((values > spec.alpha + 0.2) &
                             (values < spec.beta - 0.2)))
    values[interior] += 0.1
    residual = l2_diff_p0(P0Field(mesh, values), P0Field(mesh, projected))
    assert residual == pytest.approx(0.1 * np.sqrt(mesh.areas[interior]),
                                     rel=1e-10)


def test_variational_inequality_by_enumeration():
    """On the 2-element mesh a zero KKT residual is equivalent to the
    elementwise variational inequality over a grid of admissible values."""
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(0)
    sol = optimizer.solve_ocp(spec, mesh)
    grad = optimizer.Linearization(spec, mesh, sol.control,
                                   state_init=sol.state).gradient
    grid = np.linspace(spec.alpha, spec.beta, 2001)
    for t in range(mesh.num_triangles):
        pairing = grad[t] * (grid - sol.control.values[t]) * mesh.areas[t]
        assert pairing.min() >= -1e-9

    # a non-stationary control violates the inequality for some grid point
    bad = P0Field(mesh, np.array([0.5, -0.5]))
    problem = optimizer.Linearization(spec, mesh, bad)
    assert problem.kkt_residual > 1e-3
    worst = min(min(problem.gradient[t] * (grid - bad.values[t]) *
                    mesh.areas[t]) for t in range(mesh.num_triangles))
    assert worst < -1e-6


def test_solve_ocp_pure_tikhonov():
    spec = get_preset("tikhonov-only")
    mesh = build_unit_square_mesh(3)
    sol = optimizer.solve_ocp(spec, mesh)
    assert sol.converged
    assert np.max(np.abs(sol.control.values)) <= 1e-12
    assert sol.cost == pytest.approx(0.0, abs=1e-15)


def test_solve_ocp_flagship_fixed_point_and_feasibility():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    sol = optimizer.solve_ocp(spec, mesh)
    assert sol.converged
    assert sol.kkt_residual <= 1e-9
    assert np.all(sol.control.values >= spec.alpha)
    assert np.all(sol.control.values <= spec.beta)
    projected = _projection(mesh, sol.state, sol.adjoint, spec)
    assert l2_diff_p0(sol.control, P0Field(mesh, projected)) <= 1e-9


def test_solve_ocp_unbounded_above_converges():
    spec = get_preset("paper-sec6").with_overrides(beta=np.inf)
    mesh = build_unit_square_mesh(3)
    sol = optimizer.solve_ocp(spec, mesh, tol=1e-9)
    assert sol.converged
    assert sol.kkt_residual <= 1e-9
    assert np.all(sol.control.values >= spec.alpha)
    assert np.max(sol.control.values) > 1.0     # above the preset's beta


def test_solve_ocp_warm_start():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    sol = optimizer.solve_ocp(spec, mesh)
    warm = optimizer.solve_ocp(spec, mesh, init=sol.control,
                               state_init=sol.state)
    assert warm.outer_iterations <= 2
    assert l2_diff_p0(warm.control, sol.control) <= 1e-8


def test_solve_ocp_budget_error_carries_best(monkeypatch):
    monkeypatch.setattr(optimizer, "_OUTER_MAX_ITERATIONS", 1)
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    with pytest.raises(NonconvergenceError) as err:
        optimizer.solve_ocp(spec, mesh)
    best = err.value.report
    assert isinstance(best, optimizer.OcpSolution)
    assert not best.converged
    assert best.kkt_residual > 1e-9


def test_solve_ocp_budget_error_names_an_exact_cycle():
    # At nu = 1e-5 the cold start cycles through the active sets: from
    # iterate 3 on, one element flips between alpha and beta, and the stall
    # guard's half step puts it at 0 every fourth iterate.
    spec = get_preset("paper-sec6").with_overrides(nu=1e-5)
    with pytest.raises(NonconvergenceError) as err:
        optimizer.solve_ocp(spec, build_unit_square_mesh(3))
    message = str(err.value)
    assert message.endswith(
        "the iterates cycle: iterate 5 repeats iterate 3, and the 50 "
        "iterations visited 5 distinct controls")
    assert "second-order" not in message
    assert not err.value.report.converged


def test_solve_ocp_computes_no_step_past_its_budget(monkeypatch):
    # With a budget of one iteration the first iterate is the only one
    # priced, so no Newton step (and no Hessian product) is computed.
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(5)
    start = optimizer.Linearization(spec, mesh,
                                    P0Field(mesh, spec.clamp(
                                        np.zeros(mesh.num_triangles))))
    products = []
    real = optimizer.Linearization.hessian_apply_values

    def counting(self, *args, **kwargs):
        products.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(optimizer.Linearization, "hessian_apply_values",
                        counting)
    monkeypatch.setattr(optimizer, "_OUTER_MAX_ITERATIONS", 1)
    with pytest.raises(NonconvergenceError) as err:
        optimizer.solve_ocp(spec, mesh)
    best = err.value.report
    assert products == []
    assert best.outer_iterations == 1
    assert best.kkt_residual == start.kkt_residual


def test_solve_ocp_is_deterministic():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(2)
    a = optimizer.solve_ocp(spec, mesh)
    b = optimizer.solve_ocp(spec, mesh)
    assert np.array_equal(a.control.values, b.control.values)
    assert a.cost == b.cost
    assert a.kkt_residual == b.kkt_residual


def test_reduced_cg_negative_curvature_returns_preconditioned_residual():
    class NegativeHessian:
        spec = get_preset("paper-sec6")
        linear_tol = 1e-12

        def hessian_apply_values(self, v, tol):
            return -v

    problem = NegativeHessian()
    rhs = np.array([1.0, -2.0, 0.5, 3.0])
    inactive = np.array([True, True, False, True])
    r = np.where(inactive, rhs, 0.0)
    step = optimizer._reduced_cg(problem, r, inactive, np.full(4, 0.25),
                                 1e-10)
    assert np.array_equal(step, r / problem.spec.nu)


class _StubHessian:
    """``v -> d v + w <w, v>`` in the elementwise L2 inner product: SPD,
    spectrum nu [1, 40] plus a rank-one term, applied exactly.  Records the
    tolerance handed to each product."""

    spec = get_preset("paper-sec6")
    linear_tol = 1e-12

    def __init__(self, areas):
        rng = np.random.default_rng(37)
        self.areas = areas
        self.d = self.spec.nu * np.linspace(1.0, 40.0, areas.size)
        self.w = rng.standard_normal(areas.size)
        self.tols = []

    def apply(self, v):
        return self.d * v + self.w * float(np.sum(self.areas * self.w * v))

    def hessian_apply_values(self, v, tol):
        self.tols.append(tol)
        return self.apply(v)


def test_reduced_cg_meets_its_tolerance_with_relaxed_products():
    n = 60
    rng = np.random.default_rng(41)
    areas = rng.uniform(0.5, 1.5, n) / n
    inactive = rng.uniform(size=n) < 0.8
    x_star = np.where(inactive, rng.standard_normal(n), 0.0)

    def l2(x):
        return math.sqrt(float(np.sum(areas * x * x)))

    products = []
    for tol in (1e-10, 1e-4):
        problem = _StubHessian(areas)
        rhs = np.where(inactive, problem.apply(x_star), 0.0)
        step = optimizer._reduced_cg(problem, rhs, inactive, areas, tol)
        assert not np.any(step[~inactive])
        residual = np.where(inactive, rhs - problem.apply(step), 0.0)
        assert l2(residual) <= tol * l2(rhs)
        tols = problem.tols
        products.append(len(tols))
        # tau_0 = 0.1 tol; later ones grow as the residual falls, below 0.1.
        assert tols[0] == pytest.approx(0.1 * tol, rel=1e-15)
        assert all(problem.linear_tol <= t <= 0.1 for t in tols)
        assert tols == sorted(tols)
        assert tols[-1] > 10.0 * tols[0]
    assert l2(step - x_star) > 1e-6 * l2(x_star)  # tol 1e-4 stopped early
    assert products[1] < products[0]


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_solve_ocp_aims_the_cg_tolerance_at_the_stop(monkeypatch, tol):
    # Relative residual max(1e-10, 0.1 tol / kkt) for each Newton system;
    # at tol 1e-12 the floor 1e-10 binds on the first iterations.
    calls = []
    reduced_cg = optimizer._reduced_cg

    def recording(problem, rhs, inactive, areas, cg_tol):
        calls.append((problem.kkt_residual, cg_tol))
        return reduced_cg(problem, rhs, inactive, areas, cg_tol)

    monkeypatch.setattr(optimizer, "_reduced_cg", recording)
    sol = optimizer.solve_ocp(get_preset("paper-sec6"),
                              build_unit_square_mesh(2), tol=tol)
    assert sol.converged
    assert len(calls) >= 2
    assert [cg_tol for _, cg_tol in calls] == \
        [max(1e-10, 0.1 * tol / kkt) for kkt, _ in calls]


def test_solve_ocp_stall_guard_takes_damped_fixed_point_step(monkeypatch):
    # With a zero CG step the active-set update stops changing u after one
    # iteration, so the KKT residual repeats; the third repeat must trigger
    # the damped step u <- 0.5 u + 0.5 Proj(mean(y phi) / nu).
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(2)
    seen = []

    class Recording(optimizer.Linearization):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self)

    monkeypatch.setattr(optimizer, "Linearization", Recording)
    monkeypatch.setattr(optimizer, "_reduced_cg",
                        lambda problem, rhs, *args: np.zeros_like(rhs))
    monkeypatch.setattr(optimizer, "_OUTER_MAX_ITERATIONS", 6)
    with pytest.raises(NonconvergenceError):
        optimizer.solve_ocp(spec, mesh)
    projected = [spec.clamp(p.product_mean / spec.nu) for p in seen]
    kkt = [l2_diff_p0(p.u, P0Field(mesh, q)) for p, q in zip(seen, projected)]
    assert len(seen) == 6
    assert kkt[1] < kkt[0]
    assert kkt[1] == kkt[2] == kkt[3] == kkt[4]     # stall = 1, 2, 3
    damped = 0.5 * seen[4].u.values + 0.5 * projected[4]
    assert np.array_equal(seen[5].u.values, damped)
    assert kkt[5] < kkt[4]


def test_solve_ocp_reports_kkt_residual_of_last_linearization(monkeypatch):
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    seen = []

    class Recording(optimizer.Linearization):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self)

    monkeypatch.setattr(optimizer, "Linearization", Recording)
    sol = optimizer.solve_ocp(spec, mesh)
    assert sol.converged
    assert sol.kkt_residual == seen[-1].kkt_residual
    assert np.array_equal(sol.control.values, seen[-1].u.values)


def test_solve_ocp_releases_previous_problem_before_next(monkeypatch):
    # Iteration k's problem (and its operator's factor) must be gone when
    # iteration k + 1 starts to build its own.
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    built, alive_at_start = [], []

    class Recording(optimizer.Linearization):
        def __init__(self, *args, **kwargs):
            alive_at_start.append([ref() is not None for ref in built])
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(optimizer, "Linearization", Recording)
    sol = optimizer.solve_ocp(spec, mesh)
    assert sol.converged
    assert len(built) >= 3
    assert not any(any(alive) for alive in alive_at_start)

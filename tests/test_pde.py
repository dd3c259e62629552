"""State, adjoint, linearized and second-order solves.

Derived expectations use manufactured constant solutions, nonlinear
re-solve difference quotients, and self-convergence against a reference
three levels finer than the finest tested level.
"""
import numpy as np
import pytest

from ocfem import (AdmissibilityError, MeshError, NonconvergenceError,
                   P0Field, P1Field, ProblemSpec, barycenters,
                   build_unit_square_mesh, get_preset, l2_diff_p1,
                   linf_diff_p1, prolong_p1, refine)
from ocfem import fem, optimizer, pde
from ocfem.linalg import SparseSymOperator, norm


def ones_like(x, y):
    return np.ones(np.broadcast(x[..., 0], y).shape)


def zeros_like(x, y):
    return np.zeros(np.broadcast(x[..., 0], y).shape)


def linear_reaction_spec(shift):
    """a(x, y) = y - shift: linear monotone reaction."""
    return ProblemSpec(
        reaction=lambda x, y: y,
        source=lambda x: np.full(x.shape[:-1], shift),
        nonlinearity_dy=ones_like,
        nonlinearity_dyy=zeros_like,
        reaction_floor=lambda x: np.ones(x.shape[:-1]),
        boundary_flux=lambda x: np.zeros(x.shape[:-1]),
        nu=1.0, alpha=-0.5, beta=2.0, objective=zeros_like,
        objective_dy=zeros_like, objective_dyy=zeros_like)


@pytest.mark.parametrize("level", [0, 2, 4])
def test_manufactured_constant_solution(level):
    spec = linear_reaction_spec(1.0)
    mesh = build_unit_square_mesh(level)
    state, report = pde.solve_state(spec, mesh, P0Field.zeros(mesh))
    assert report.residual <= 1e-12
    assert np.max(np.abs(state.values - 1.0)) <= 1e-12


def test_manufactured_constant_with_control():
    # reaction y - 2 plus control 1:  -lap y + 2y = 2  =>  y = 1
    spec = linear_reaction_spec(2.0)
    mesh = build_unit_square_mesh(3)
    u = P0Field(mesh, np.full(mesh.num_triangles, 1.0))
    state, report = pde.solve_state(spec, mesh, u)
    assert report.residual <= 1e-12
    assert np.max(np.abs(state.values - 1.0)) <= 1e-12


def test_state_is_deterministic():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    u = P0Field(mesh, np.full(mesh.num_triangles, 0.25))
    y1, _ = pde.solve_state(spec, mesh, u)
    y2, _ = pde.solve_state(spec, mesh, u)
    assert np.array_equal(y1.values, y2.values)


def test_state_self_convergence_second_order():
    """L2 error vs a reference three levels finer drops 4x per level; the
    max-norm error drops at least at the first-order guaranteed rate."""
    spec = get_preset("paper-sec6")
    meshes = [build_unit_square_mesh(3)]
    for _ in range(4):
        meshes.append(refine(meshes[-1]))
    states = []
    for mesh in meshes:
        y, _ = pde.solve_state(spec, mesh, P0Field.zeros(mesh))
        states.append(y)

    def on_finest(i, field):
        for child in meshes[i + 1:]:
            field = prolong_p1(child, field)
        return field

    sup_norms = [np.max(np.abs(y.values)) for y in states]
    assert np.ptp(sup_norms) <= 0.05

    ref = states[-1]
    l2 = [l2_diff_p1(on_finest(i, states[i]), ref) for i in range(3)]
    sup = [linf_diff_p1(on_finest(i, states[i]), ref) for i in range(3)]
    for e_prev, e_cur in zip(l2, l2[1:]):
        assert 3.5 <= e_prev / e_cur <= 4.5
    for e_prev, e_cur in zip(sup, sup[1:]):
        assert e_prev / e_cur >= 1.8


def test_adjoint_self_convergence_second_order():
    spec = get_preset("paper-sec6")
    meshes = [build_unit_square_mesh(3)]
    for _ in range(4):
        meshes.append(refine(meshes[-1]))
    adjoints = []
    for mesh in meshes:
        u = P0Field.zeros(mesh)
        y, _ = pde.solve_state(spec, mesh, u)
        operator = pde.linearized_operator(spec, mesh, u, y)
        adjoints.append(pde.solve_adjoint(spec, operator, y))

    def on_finest(i, field):
        for child in meshes[i + 1:]:
            field = prolong_p1(child, field)
        return field

    ref = adjoints[-1]
    errs = [l2_diff_p1(on_finest(i, adjoints[i]), ref) for i in range(3)]
    for e_prev, e_cur in zip(errs, errs[1:]):
        assert 3.5 <= e_prev / e_cur <= 4.5


def test_adjoint_zero_when_state_matches_target():
    spec = get_preset("manufactured-constant")
    mesh = build_unit_square_mesh(3)
    u = P0Field.zeros(mesh)
    y, _ = pde.solve_state(spec, mesh, u)
    phi = pde.solve_adjoint(spec, pde.linearized_operator(spec, mesh, u, y),
                            y)
    assert np.max(np.abs(phi.values)) <= 1e-12


def test_adjoint_constant_manufactured():
    # dL/dy = 1, da/dy = 1, u = 0:  -lap(phi) + phi = 1  =>  phi = 1
    spec = linear_reaction_spec(1.0).with_overrides(
        objective=lambda x, y: y,
        objective_dy=ones_like,
        objective_dyy=zeros_like)
    mesh = build_unit_square_mesh(3)
    u = P0Field.zeros(mesh)
    y, _ = pde.solve_state(spec, mesh, u)
    phi = pde.solve_adjoint(spec, pde.linearized_operator(spec, mesh, u, y),
                            y)
    assert np.max(np.abs(phi.values - 1.0)) <= 1e-12


def test_linearized_zero_direction():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(2)
    u = P0Field.zeros(mesh)
    y, _ = pde.solve_state(spec, mesh, u)
    z = pde.solve_linearized(pde.linearized_operator(spec, mesh, u, y), y,
                             P0Field.zeros(mesh))
    assert np.max(np.abs(z.values)) == 0.0


def test_linearized_superposition():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    u = P0Field(mesh, np.full(mesh.num_triangles, 0.2))
    y, _ = pde.solve_state(spec, mesh, u)
    operator = pde.linearized_operator(spec, mesh, u, y)
    rng = np.random.default_rng(17)
    v1 = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    v2 = P0Field(mesh, rng.standard_normal(mesh.num_triangles))
    z1 = pde.solve_linearized(operator, y, v1)
    z2 = pde.solve_linearized(operator, y, v2)
    z12 = pde.solve_linearized(operator, y,
                               P0Field(mesh, v1.values + v2.values))
    gap = l2_diff_p1(z12, P1Field(mesh, z1.values + z2.values))
    assert gap <= 1e-12


def test_linearized_difference_quotient_second_order():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    u = P0Field(mesh, np.full(mesh.num_triangles, 0.1))
    y, _ = pde.solve_state(spec, mesh, u)
    v = fem.l2_project_p0(mesh, lambda x: np.cos(np.pi * x[..., 0]))
    z = pde.solve_linearized(pde.linearized_operator(spec, mesh, u, y), y, v)
    errs = []
    steps = [3e-2, 3e-3]
    for t in steps:
        y_t, _ = pde.solve_state(spec, mesh,
                                 P0Field(mesh, u.values + t * v.values),
                                 init=y)
        defect = P1Field(mesh, y_t.values - y.values - t * z.values)
        errs.append(l2_diff_p1(defect, P1Field.zeros(mesh)))
    slope = np.log(errs[0] / errs[1]) / np.log(steps[0] / steps[1])
    assert 1.8 <= slope <= 2.2


def test_eta_zero_cases():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(2)
    zero = P0Field.zeros(mesh)
    at_zero = optimizer.Linearization(spec, mesh, zero)
    z0 = pde.solve_linearized(at_zero.operator, at_zero.state, zero)
    eta = pde.solve_eta(at_zero.operator, at_zero.adjoint, z0, zero,
                        at_zero.curvature)
    assert np.max(np.abs(eta.values)) == 0.0

    # vanishing second derivatives and adjoint: eta = 0 for any direction
    lin = linear_reaction_spec(1.0)
    y1, _ = pde.solve_state(lin, mesh, zero)
    operator = pde.linearized_operator(lin, mesh, zero, y1)
    phi0 = P1Field.zeros(mesh)
    v = P0Field(mesh, np.full(mesh.num_triangles, 1.0))
    z = pde.solve_linearized(operator, y1, v)
    eta = pde.solve_eta(operator, phi0, z, v,
                        np.zeros(fem.quadrature_points(mesh).shape[:2]))
    assert np.max(np.abs(eta.values)) <= 1e-14


def test_spec_validation_errors():
    good = get_preset("paper-sec6")
    with pytest.raises(AdmissibilityError):
        good.with_overrides(nu=0.0)
    with pytest.raises(AdmissibilityError):
        good.with_overrides(alpha=1.0, beta=-1.0)
    mesh = build_unit_square_mesh(2)
    bad_bound = good.with_overrides(alpha=-3.0)
    with pytest.raises(AdmissibilityError):
        bad_bound.validate(mesh)
    # reaction floor that is not a lower bound of da/dy
    lying = good.with_overrides(reaction_floor=lambda x: 10.0 *
                                np.ones(x.shape[:-1]), alpha=-1.0)
    with pytest.raises(AdmissibilityError):
        lying.validate(mesh)


def test_inadmissible_control_rejected():
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(2)
    with pytest.raises(AdmissibilityError):
        pde.solve_state(spec, mesh,
                        P0Field(mesh, np.full(mesh.num_triangles, -3.0)))


def test_control_on_another_mesh_is_refused():
    # A coarser control used to fail in numpy broadcasting.
    spec = get_preset("paper-sec6")
    coarse = build_unit_square_mesh(3)
    with pytest.raises(MeshError, match="control"):
        pde.solve_state(spec, refine(coarse), P0Field.zeros(coarse))


def test_initial_state_on_another_mesh_is_refused():
    # Same size, another mesh object: it would be a silent Newton start.
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(3)
    twin = build_unit_square_mesh(3)
    with pytest.raises(MeshError, match="initial state"):
        pde.solve_state(spec, mesh, P0Field.zeros(mesh),
                        init=P1Field.zeros(twin))


@pytest.mark.parametrize("excess, refused", [(1e-9, True), (1e-13, False)])
def test_check_control_threshold(excess, refused):
    # The flagship's a0 = 2: a control of -2 - excess on one triangle puts
    # a0 + u at -excess there; round-off below 1e-12 is accepted.
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(2)
    values = np.zeros(mesh.num_triangles)
    values[5] = -2.0 - excess
    if refused:
        with pytest.raises(AdmissibilityError, match="coercivity is lost"):
            spec.check_control(mesh, P0Field(mesh, values))
    else:
        spec.check_control(mesh, P0Field(mesh, values))


def test_validate_refuses_identically_vanishing_reaction():
    # a0 = 0 and alpha = 0: a0 + alpha >= 0 holds, but it is zero
    # everywhere.
    spec = linear_reaction_spec(1.0).with_overrides(
        reaction_floor=lambda x: np.zeros(x.shape[:-1]), alpha=0.0)
    with pytest.raises(AdmissibilityError, match="vanishes identically"):
        spec.validate(build_unit_square_mesh(1))


def test_newton_damping_failure_carries_report(monkeypatch):
    # The negated Newton direction is an ascent direction of the residual
    # norm, so all 30 step halvings of the first iteration fail.
    solve = SparseSymOperator.solve_spd
    monkeypatch.setattr(SparseSymOperator, "solve_spd",
                        lambda self, b, tol=1e-12: -solve(self, b, tol))
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(2)
    with pytest.raises(NonconvergenceError,
                       match="Newton damping failed") as err:
        pde.solve_state(spec, mesh, P0Field.zeros(mesh))
    assert err.value.report.iterations == 1
    assert err.value.report.damping_events == 30


def test_newton_budget_error_carries_report(monkeypatch):
    monkeypatch.setattr(pde, "_NEWTON_MAX_ITERATIONS", 1)
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(2)
    with pytest.raises(NonconvergenceError) as err:
        pde.solve_state(spec, mesh, P0Field.zeros(mesh))
    assert err.value.report.iterations == 1
    # paper-sec6 has no boundary flux, so the stopping scale is 1.
    assert err.value.report.residual > 1e-11


def test_newton_converging_on_last_allowed_step_succeeds(monkeypatch):
    monkeypatch.setattr(pde, "_NEWTON_MAX_ITERATIONS", 1)
    spec = get_preset("manufactured-constant")
    mesh = build_unit_square_mesh(3)
    _, report = pde.solve_state(spec, mesh, P0Field.zeros(mesh))
    assert report.iterations == 1
    assert report.residual <= 1e-12


def cosine_control(spec, mesh, rng):
    """A smooth seeded control at the barycenters, as the benchmark draws
    them: ``sum_{k,l<4} c_kl cos(k pi x1) cos(l pi x2)`` with
    ``c_kl ~ N(0, 1) * 0.2 / (1 + k + l)``, clipped to the bounds."""
    centers = barycenters(mesh)
    k = np.arange(4)
    coef = (rng.standard_normal((4, 4))
            * 0.2 / (1.0 + k[:, None] + k[None, :]))
    values = np.einsum("mk,kl,ml->m", np.cos(np.pi * centers[:, :1] * k),
                       coef, np.cos(np.pi * centers[:, 1:] * k))
    return np.clip(values, spec.alpha, spec.beta)


def test_level8_newton_step_accepted_at_precision_floor(monkeypatch):
    # At level 8 the solve of the step from y = 0 stops near a
    # relative residual of 1.2e-12 for this control; the test below holds
    # that solve to the precision floor.  Inside the state solve the
    # forcing term asks this step for 0.1 only, and the first Newton step
    # of the cold level-8 solve must not raise LinearSolverError.
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(8)
    values = cosine_control(spec, mesh, np.random.default_rng(40))
    monkeypatch.setattr(pde, "_NEWTON_MAX_ITERATIONS", 1)
    try:
        pde.solve_state(spec, mesh, P0Field(mesh, values))
    except NonconvergenceError:
        pass


def test_level8_solve_returns_at_first_floor_step(monkeypatch):
    # The pinned control of the precision-floor test above: the first Newton
    # step's solve must return the first iterate whose componentwise
    # backward error meets the floor, not chase the 1e-12 normwise
    # tolerance further.
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(8)
    values = cosine_control(spec, mesh, np.random.default_rng(40))
    y = P1Field.zeros(mesh)
    op = pde.linearized_operator(spec, mesh, P0Field(mesh, values), y)
    b = (fem.assemble_boundary_load(mesh, spec.boundary_flux)
         - fem.assemble_volume_load(mesh, fem.at_points(
             spec.nonlinearity, fem.quadrature_points(mesh),
             y.at_quadrature())))
    at_floor, iterates = SparseSymOperator._at_floor, []

    def recording(self, x, *args):
        iterates.append(x)
        return at_floor(self, x, *args)

    monkeypatch.setattr(SparseSymOperator, "_at_floor", recording)
    x = op.solve_spd(b, tol=1e-12)
    if not iterates or iterates[-1] is not x:
        iterates.append(x)  # accepted on tol, without the floor test

    matrix = op.matrix
    floor = (np.diff(matrix.indptr).max() + 1) * np.finfo(float).eps / 2
    met = []
    for iterate in iterates:
        r = b - matrix @ iterate
        omega = np.max(np.abs(r) / (abs(matrix) @ np.abs(iterate)
                                    + np.abs(b)))
        met.append(np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)
                   or omega <= floor)
    assert met[-1] and not any(met[:-1])
    assert np.array_equal(x, iterates[-1])


def state_residual(spec, mesh, u, y):
    """``K y + a(x, y) + u y - g`` from public assembly calls."""
    reaction = fem.at_points(spec.nonlinearity, fem.quadrature_points(mesh),
                             y.at_quadrature())
    return (fem.assemble_stiffness(mesh, spec.diffusion).matvec(y.values)
            + fem.assemble_volume_load(mesh, reaction)
            + fem.p0_weighted_p1_load(mesh, u, y)
            - fem.assemble_boundary_load(mesh, spec.boundary_flux))


def record_solves(monkeypatch):
    """Patch ``solve_spd`` to record the norm of each right-hand side and
    the tolerance it is asked for."""
    solve, calls = SparseSymOperator.solve_spd, []

    def recording(self, b, tol=1e-12):
        calls.append((norm(b), tol))
        return solve(self, b, tol)

    monkeypatch.setattr(SparseSymOperator, "solve_spd", recording)
    return calls


@pytest.mark.parametrize("flux", [0.0, 4.0])
@pytest.mark.parametrize("linear_tol", [1e-12, 1e-5])
def test_state_newton_solves_to_the_forcing_term(flux, linear_tol,
                                                 monkeypatch):
    spec = get_preset("paper-sec6").with_overrides(
        boundary_flux=lambda x: np.full(x.shape[:-1], flux))
    mesh = build_unit_square_mesh(5)
    u = P0Field(mesh, cosine_control(spec, mesh, np.random.default_rng(3)))
    load = fem.assemble_boundary_load(mesh, spec.boundary_flux)
    scale = 1.0 + norm(load)
    calls = record_solves(monkeypatch)
    y, report = pde.solve_state(spec, mesh, u, tol=1e-11,
                                linear_tol=linear_tol)
    # Newton step k solves -F_k, so the norm of its right-hand side is
    # ||F_k||.
    assert len(calls) == report.iterations
    assert [tol for _, tol in calls] == [
        max(linear_tol, min(0.1, norm / scale)) for norm, _ in calls]
    assert calls[0][1] == 0.1
    assert calls[-1][1] < 1e-3
    assert np.linalg.norm(state_residual(spec, mesh, u, y)) <= 1e-11 * scale


@pytest.mark.parametrize("level, controls, newton_steps",
                         [(4, 4, 6), (6, 4, 5), (7, 2, 5)])
def test_cold_state_solve_factors_once(level, controls, newton_steps,
                                       monkeypatch):
    # The first Newton step factors its tangent; preconditioned CG with
    # that factor meets the forcing term of every later step (at most 14
    # steps here), so no shared attempt is abandoned.  The nodal
    # residual's norm shrinks with h, so the absolute forcing term is
    # loosest on coarse meshes: at level 4 these controls take a sixth
    # Newton step.
    spec = get_preset("paper-sec6")
    mesh = build_unit_square_mesh(level)
    factor, factorizations = SparseSymOperator._factor, []
    solve_with, abandoned = SparseSymOperator._solve_with, []

    def counting(self):
        factorizations.append(self)
        return factor(self)

    def recording(self, *args):
        shared = self._factorization is None
        x, history, last = solve_with(self, *args)
        if shared and x is None:
            abandoned.append(len(history))
        return x, history, last

    monkeypatch.setattr(SparseSymOperator, "_factor", counting)
    monkeypatch.setattr(SparseSymOperator, "_solve_with", recording)
    rng = np.random.default_rng(0)
    for _ in range(controls):
        u = P0Field(mesh, cosine_control(spec, mesh, rng))
        factorizations.clear()
        _, report = pde.solve_state(spec, mesh, u)
        assert len(factorizations) == 1
        assert abandoned == []
        assert report.iterations <= newton_steps


def counted(fn, counts, key):
    """``fn`` wrapped to count its calls in ``counts[key]``."""
    def wrapped(*args):
        counts[key] += 1
        return fn(*args)
    return wrapped


def test_state_solve_assembles_the_source_once(monkeypatch):
    # The x-only source is evaluated once per call, the reaction once per
    # residual: the first, then one per trial step of each Newton step.
    base = get_preset("paper-sec6")
    counts = {"reaction": 0, "source": 0}
    spec = base.with_overrides(
        reaction=counted(base.reaction, counts, "reaction"),
        source=counted(base.source, counts, "source"))
    monkeypatch.setattr(pde.ProblemSpec, "nonlinearity", property(
        lambda self: pytest.fail("solve_state evaluated a(x, y)")))
    mesh = build_unit_square_mesh(5)
    u = P0Field(mesh, cosine_control(spec, mesh, np.random.default_rng(7)))
    _, report = pde.solve_state(spec, mesh, u)
    assert report.iterations >= 4
    assert counts == {
        "reaction": 1 + report.iterations + report.damping_events,
        "source": 1}


def test_source_folded_into_the_reaction_reaches_the_same_state():
    spec = get_preset("paper-sec6")
    folded = spec.with_overrides(
        reaction=lambda x, y: spec.reaction(x, y) - spec.source(x),
        source=lambda x: np.zeros(x.shape[:-1]))
    mesh = build_unit_square_mesh(5)
    u = P0Field(mesh, cosine_control(spec, mesh, np.random.default_rng(8)))
    y, report = pde.solve_state(spec, mesh, u)
    y_folded, report_folded = pde.solve_state(folded, mesh, u)
    assert report_folded.iterations == report.iterations
    assert np.linalg.norm(y_folded.values - y.values) <= \
        1e-12 * np.linalg.norm(y.values)

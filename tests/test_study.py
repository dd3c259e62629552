"""EOC computation, post-processing, classification and study plumbing."""
import numpy as np
import pytest

from ocfem import (Bounds, CoercivityError, NonconvergenceError, OcfemError,
                   P0Field, P1Field, barycenters, build_unit_square_mesh,
                   build_wh, classify_elements, eoc, get_preset,
                   PostprocessedControl, postprocess_error_cross, refine,
                   run_study)
from ocfem import optimizer, study
from ocfem.linalg import SparseSymOperator


def test_eoc_values():
    assert eoc(4.0e-3, 1.0e-3) == pytest.approx(2.0, abs=1e-12)
    assert eoc(2.0e-5, 1.0e-5) == pytest.approx(1.0, abs=1e-12)
    assert round(eoc(9.5e-2, 5.3e-2), 1) == 0.8
    assert eoc(0.0, 1.0) is None
    assert eoc(1.0, 0.0) is None


def test_postprocess_zero_state():
    mesh = build_unit_square_mesh(2)
    pp = PostprocessedControl(mesh, P1Field.zeros(mesh),
                              P1Field(mesh, np.ones(mesh.num_vertices)),
                              Bounds(-1.0, 1.0), 0.05)
    pts = np.array([[0.2, 0.3], [0.9, 0.1]])
    assert pp(pts) == pytest.approx(0.0, abs=0.0)


def test_postprocess_clamps():
    mesh = build_unit_square_mesh(2)
    nu = 0.05
    y = P1Field(mesh, np.ones(mesh.num_vertices))
    phi = P1Field(mesh, np.full(mesh.num_vertices, 5.0 * nu))
    pp = PostprocessedControl(mesh, y, phi, Bounds(-1.0, 1.0), nu)
    assert pp(np.array([[0.5, 0.5]])) == pytest.approx(1.0, abs=0.0)


def test_postprocess_cross_error_on_constants():
    mesh = build_unit_square_mesh(2)
    child, pmap = refine(mesh)
    nu = 1.0
    bounds = Bounds(-10.0, 10.0)
    pp_coarse = PostprocessedControl(
        mesh, P1Field(mesh, np.ones(mesh.num_vertices)),
        P1Field(mesh, np.full(mesh.num_vertices, 0.25)), bounds, nu)
    pp_fine = PostprocessedControl(
        child, P1Field(child, np.ones(child.num_vertices)),
        P1Field(child, np.full(child.num_vertices, 0.75)), bounds, nu)
    assert postprocess_error_cross(pmap, pp_coarse, pp_fine) == \
        pytest.approx(0.5, abs=1e-13)


def test_classify_all_active_and_all_inactive():
    mesh = build_unit_square_mesh(3)
    bounds = Bounds(-1.0, 1.0)
    at_bound = classify_elements(mesh, lambda x: np.full(len(x), -1.0), bounds)
    assert len(at_bound.t1) == 0
    assert at_bound.measure_t1 == 0.0
    interior = classify_elements(mesh, lambda x: np.zeros(len(x)), bounds)
    assert len(interior.t1) == 0
    assert len(interior.t2) == mesh.num_triangles


def test_classify_p0_control_is_always_pure():
    mesh = build_unit_square_mesh(3)
    rng = np.random.default_rng(41)
    control = P0Field(mesh, rng.uniform(-1.0, 1.0, mesh.num_triangles))
    result = classify_elements(mesh, control, Bounds(-1.0, 1.0))
    assert len(result.t1) == 0


def test_classify_mixed_band():
    mesh = build_unit_square_mesh(4)
    bounds = Bounds(-1.0, 1.0)

    def control(x):
        return np.clip(2.0 * x[..., 0] + 0.2, -1.0, 1.0)

    result = classify_elements(mesh, control, bounds)
    # the control saturates at the upper bound for x1 >= 0.4; mixed
    # elements straddle that clamp line
    assert len(result.t1) > 0
    assert result.measure_t1 == pytest.approx(
        float(mesh.areas[result.t1].sum()))
    centers = barycenters(mesh)[result.t1]
    assert np.all(np.abs(centers[:, 0] - 0.4) <= mesh.h)


def test_classify_tolerance_default_with_infinite_upper_bound():
    mesh = build_unit_square_mesh(2)
    result = classify_elements(mesh, lambda x: np.zeros(len(x)),
                               Bounds(-2.0, np.inf))
    assert result.tol_active == pytest.approx(2e-6)


def test_build_wh_affine_all_pure():
    mesh = build_unit_square_mesh(3)

    def control(x):
        return 0.25 + 0.5 * x[..., 0] - 0.125 * x[..., 1]

    classification = classify_elements(mesh, control, Bounds(-10.0, 10.0))
    assert len(classification.t1) == 0
    field = build_wh(mesh, control, classification)
    assert field.values == pytest.approx(control(barycenters(mesh)),
                                         abs=1e-14)


def test_build_wh_constant_control():
    mesh = build_unit_square_mesh(3)

    def mixed(x):   # classification with nonempty mixed set
        return np.clip(2.0 * x[..., 0] + 0.2, -1.0, 1.0)

    classification = classify_elements(mesh, mixed, Bounds(-1.0, 1.0))
    field = build_wh(mesh, lambda x: np.full(len(x), 0.3), classification)
    assert field.values == pytest.approx(0.3, abs=0.0)


def test_build_wh_uses_active_sample_on_mixed_elements():
    mesh = build_unit_square_mesh(4)
    bounds = Bounds(-1.0, 1.0)

    def control(x):
        return np.clip(2.0 * x[..., 0] + 0.2, -1.0, 1.0)

    classification = classify_elements(mesh, control, bounds)
    field = build_wh(mesh, control, classification)
    assert np.all(np.abs(field.values[classification.t1] - 1.0) <= 1e-12)


def test_comparison_field_second_order_on_pure_elements():
    """On pure elements the barycenter-sampled field tracks the converged
    control at second order (measured against the recovered control of a
    finer solve)."""
    spec = get_preset("paper-sec6")
    meshes = [build_unit_square_mesh(3)]
    maps = []
    for _ in range(2):
        child, pmap = refine(meshes[-1])
        meshes.append(child)
        maps.append(pmap)
    solutions = []
    init = state = None
    for i, mesh in enumerate(meshes):
        sol = optimizer.solve_ocp(spec, mesh, init=init, state_init=state)
        solutions.append(sol)
        if i < len(maps):
            init = None
            state = None
    bounds = Bounds(spec.alpha, spec.beta)
    ref = PostprocessedControl(meshes[-1], solutions[-1].state,
                               solutions[-1].adjoint, bounds, spec.nu)
    gaps = []
    for i in (0, 1):
        mesh = meshes[i]
        classification = classify_elements(mesh, ref, bounds)
        wh = build_wh(mesh, ref, classification)
        diff = (solutions[i].control.values - wh.values)[classification.t2]
        gaps.append(float(np.sqrt(np.sum(
            mesh.areas[classification.t2] * diff ** 2))))
    assert gaps[1] / gaps[0] <= 0.4


def test_run_study_level_validation():
    spec = get_preset("manufactured-constant")
    with pytest.raises(OcfemError):
        run_study(spec, 3, 3)


def test_run_study_exact_zero_errors():
    spec = get_preset("manufactured-constant")
    records = run_study(spec, 2, 4)
    assert [r.level for r in records] == [2, 3]
    for r in records:
        assert r.e_u == 0.0
        assert r.eoc_u is None
        assert r.e_y <= 1e-12
        assert r.measure_t1 == 0.0
        assert r.kkt_residual <= 1e-12


def test_run_study_progress_and_h_column():
    spec = get_preset("manufactured-constant")
    seen = []
    records = run_study(spec, 1, 3, progress=lambda lv, sol: seen.append(lv))
    assert seen == [1, 2, 3]
    assert records[0].h == pytest.approx(np.sqrt(2.0) / 2.0)
    assert records[1].h == pytest.approx(np.sqrt(2.0) / 4.0)


def test_run_study_attaches_partial_results(monkeypatch):
    spec = get_preset("manufactured-constant")
    real = optimizer.solve_ocp
    calls = []

    def flaky(spec_, mesh, **kwargs):
        calls.append(mesh.level)
        if len(calls) >= 3:
            raise NonconvergenceError("forced", report=None)
        return real(spec_, mesh, **kwargs)

    monkeypatch.setattr(study.optimizer, "solve_ocp", flaky)
    with pytest.raises(NonconvergenceError) as err:
        run_study(spec, 1, 4)
    partial = err.value.report
    assert isinstance(partial, list)
    assert [r.level for r in partial] == [1]
    assert "level 3" in str(err.value)


def test_run_study_attaches_partial_results_to_linear_solve_failure(
        monkeypatch):
    spec = get_preset("manufactured-constant")
    real = optimizer.solve_ocp

    def fails_at_level_3(spec_, mesh, **kwargs):
        if mesh.level == 3:
            raise CoercivityError("forced")
        return real(spec_, mesh, **kwargs)

    monkeypatch.setattr(study.optimizer, "solve_ocp", fails_at_level_3)
    with pytest.raises(CoercivityError) as err:
        run_study(spec, 1, 4)
    assert [r.level for r in err.value.report] == [1]
    assert "level 3" in str(err.value)


def test_run_study_shares_factors_along_each_chain(monkeypatch):
    # Factoring every operator took 31 factorizations on levels 3..5; the
    # operators of one solve_ocp call share their factor where refinement
    # with it is accepted.
    factored = []
    real = SparseSymOperator._factor

    def recording(self):
        if self._factorization is None:
            factored.append(self.n)
        return real(self)

    monkeypatch.setattr(SparseSymOperator, "_factor", recording)
    records = run_study(get_preset("paper-sec6"), 3, 5)
    assert all(r.kkt_residual <= 1e-9 for r in records)
    assert 0 < len(factored) <= 31 // 2

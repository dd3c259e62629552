"""EOC computation, post-processing, classification and study plumbing."""
from pathlib import Path

import numpy as np
import pytest

from ocfem import (CoercivityError, MeshSizeError,
                   NonconvergenceError, OcfemError, P1Field, barycenters,
                   build_unit_square_mesh, eoc, get_preset, mixed_elements,
                   postprocess_error_cross, postprocessed_samples, refine,
                   run_study)
from ocfem import fem, optimizer, study
from ocfem.cli import format_csv_rows
from ocfem.linalg import SparseSymOperator
from ocfem.mesh import barycentric_coordinates, locate


def box(alpha, beta, nu=0.5):
    """The flagship spec with the box [alpha, beta] and the weight nu."""
    return get_preset("paper-sec6").with_overrides(alpha=alpha, beta=beta,
                                                   nu=nu)


def affine_control(mesh, spec, c0, c1=0.0, c2=0.0):
    """(state, adjoint) on ``mesh`` with nodal y = 1 and
    phi = nu (c0 + c1 x1 + c2 x2): y phi / nu is affine, so the vertex and
    barycenter samples of its post-processed control are
    ``c0 + c1 x1 + c2 x2`` there, clamped."""
    x = mesh.vertices
    phi = spec.nu * (c0 + c1 * x[:, 0] + c2 * x[:, 1])
    return P1Field(mesh, np.ones(len(x))), P1Field(mesh, phi)


def mixed(mesh, spec, fields):
    """Indices of the mixed elements of ``mesh`` under ``fields``."""
    return np.flatnonzero(mixed_elements(spec, *fields, mesh))


def test_eoc_values():
    assert eoc(4.0e-3, 1.0e-3) == pytest.approx(2.0, abs=1e-12)
    assert eoc(2.0e-5, 1.0e-5) == pytest.approx(1.0, abs=1e-12)
    assert round(eoc(9.5e-2, 5.3e-2), 1) == 0.8
    assert eoc(0.0, 1.0) is None
    assert eoc(1.0, 0.0) is None


def test_postprocess_zero_state():
    mesh = build_unit_square_mesh(2)
    samples = postprocessed_samples(
        box(-1.0, 1.0, 0.05), P1Field.zeros(mesh),
        P1Field(mesh, np.ones(mesh.num_vertices)), mesh)
    assert np.array_equal(samples, np.zeros((mesh.num_triangles, 4)))


def test_postprocess_clamps():
    mesh = build_unit_square_mesh(2)
    nu = 0.05
    y = P1Field(mesh, np.ones(mesh.num_vertices))
    phi = P1Field(mesh, np.full(mesh.num_vertices, 5.0 * nu))
    assert np.all(postprocessed_samples(box(-1.0, 1.0, nu), y, phi,
                                        mesh) == 1.0)


def test_postprocess_cross_error_on_constants():
    mesh = build_unit_square_mesh(2)
    child = refine(mesh)
    spec = box(-10.0, 10.0, 1.0)
    coarse = (P1Field(mesh, np.ones(mesh.num_vertices)),
              P1Field(mesh, np.full(mesh.num_vertices, 0.25)))
    fine = (P1Field(child, np.ones(child.num_vertices)),
            P1Field(child, np.full(child.num_vertices, 0.75)))
    prolonged = tuple(fem.prolong_p1(child, field) for field in coarse)
    assert postprocess_error_cross(spec, prolonged, fine) == \
        pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("off", [0, 1, 2, 3], ids=[
    "state", "adjoint", "fine-state", "fine-adjoint"])
def test_postprocess_cross_refuses_fields_off_the_fine_mesh(off):
    # One of the four fields lives on the coarse mesh, the rest on its child.
    mesh = build_unit_square_mesh(1)
    child = refine(mesh)
    spec = box(-1.0, 1.0)
    fields = [*affine_control(child, spec, 0.25)] * 2
    fields[off] = affine_control(mesh, spec, 0.25)[off % 2]
    with pytest.raises(OcfemError, match="not prolonged"):
        postprocess_error_cross(spec, fields[:2], fields[2:])


def test_classify_all_active_and_all_inactive():
    mesh = build_unit_square_mesh(3)
    spec = box(-1.0, 1.0)
    assert len(mixed(mesh, spec, affine_control(mesh, spec, -1.0))) == 0
    assert len(mixed(mesh, spec, affine_control(mesh, spec, 0.0))) == 0


def test_classify_mixed_band():
    mesh = build_unit_square_mesh(4)
    spec = box(-1.0, 1.0)
    t1 = mixed(mesh, spec, affine_control(mesh, spec, 0.2, 2.0))
    # the control saturates at the upper bound for x1 >= 0.4; mixed
    # elements straddle that clamp line
    assert len(t1) > 0
    centers = barycenters(mesh)[t1]
    assert np.all(np.abs(centers[:, 0] - 0.4) <= mesh.h)


def test_classify_tolerance_default_with_infinite_upper_bound():
    # With beta = inf a sample is active within 1e-6 max(1, |alpha|) = 2e-6
    # of alpha = -2, so here where x1 <= 0.45: the mixed elements are the
    # column 0.25 < x1 < 0.5 (1e-6 would move it to x1 < 0.25).
    mesh = build_unit_square_mesh(2)
    spec = box(-2.0, np.inf)
    t1 = mixed(mesh, spec, affine_control(mesh, spec, -2.0, 2e-6 / 0.45))
    centers = barycenters(mesh)[t1]
    assert np.all((centers[:, 0] > 0.25) & (centers[:, 0] < 0.5))
    assert mesh.areas[t1].sum() == pytest.approx(0.25)


def test_classify_tolerance_default_with_finite_bounds():
    # With beta - alpha = 4 a sample is active within 1e-6 (beta - alpha)
    # of a bound.  The control rises from alpha (clamped) through
    # 1e-7 (beta - alpha) above it at x1 = 0.25, active, to
    # 1e-5 (beta - alpha) above it at x1 = 0.5, inactive: the mixed
    # elements are the column 0.25 < x1 < 0.5.
    mesh = build_unit_square_mesh(2)
    alpha, width = -2.0, 4.0
    slope = 4.0 * (1e-5 - 1e-7) * width
    offset = alpha + 1e-7 * width - 0.25 * slope
    spec = box(alpha, alpha + width)
    t1 = mixed(mesh, spec, affine_control(mesh, spec, offset, slope))
    centers = barycenters(mesh)[t1]
    assert np.all((centers[:, 0] > 0.25) & (centers[:, 0] < 0.5))
    assert mesh.areas[t1].sum() == pytest.approx(0.25)


def test_comparison_field_second_order_on_pure_elements():
    """On pure elements the barycenter-sampled field tracks the converged
    control at second order (measured against the recovered control of a
    finer solve)."""
    spec = get_preset("paper-sec6")
    meshes = [build_unit_square_mesh(3)]
    for _ in range(2):
        meshes.append(refine(meshes[-1]))
    solutions = [optimizer.solve_ocp(spec, mesh) for mesh in meshes]
    ref = solutions[-1].state, solutions[-1].adjoint
    gaps = []
    for i in (0, 1):
        mesh = meshes[i]
        t2 = ~mixed_elements(spec, *ref, mesh)
        wh = postprocessed_samples(spec, *ref, mesh)[:, 3]
        diff = (solutions[i].control.values - wh)[t2]
        gaps.append(float(np.sqrt(np.sum(mesh.areas[t2] * diff ** 2))))
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


def test_run_study_reproduces_the_pinned_table():
    # Every cell but the KKT residual, which sits at round-off level, must
    # match the committed table as text; the residuals must meet the
    # study's tolerance.
    pinned = (Path(__file__).parent / "data" / "study_2_6.csv").read_text()
    rows = format_csv_rows(run_study(get_preset("paper-sec6"), 2, 6))
    expected = [line.split(",") for line in pinned.splitlines()]
    got = [row.split(",") for row in rows]
    kkt = expected[0].index("kkt")
    assert len(got) == len(expected)
    for got_row, expected_row in zip(got, expected):
        assert got_row[:kkt] + got_row[kkt + 1:] == \
            expected_row[:kkt] + expected_row[kkt + 1:]
    assert all(float(row[kkt]) <= 1e-9 for row in got[1:])


@pytest.mark.parametrize("level", [4, 5])
def test_continuation_matches_a_cold_solve(level):
    spec = get_preset("paper-sec6")
    for warm, _ in study.continuation(spec, 3, level):
        pass
    cold = optimizer.solve_ocp(spec, build_unit_square_mesh(level))
    assert warm.control.mesh.level == level
    assert warm.kkt_residual <= 1e-9
    assert warm.cost == pytest.approx(cold.cost, rel=1e-10)


def test_continuation_yields_each_level_with_its_prolonged_fields():
    seen = []
    for sol, fields in study.continuation(get_preset("paper-sec6"), 3, 5):
        mesh = sol.control.mesh
        seen.append(mesh.level)
        if mesh.level == 3:
            assert fields is None
        else:
            assert len(fields) == 3
            assert all(field.mesh is mesh for field in fields)
    assert seen == [3, 4, 5]


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
    # operators of one solve_ocp call share their factor where a solve
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


@pytest.fixture(scope="module")
def hierarchy():
    """Meshes of levels 0..8 refined from one root."""
    meshes = [build_unit_square_mesh(0)]
    for _ in range(8):
        meshes.append(refine(meshes[-1]))
    return meshes


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_samples_on_match_located_values(hierarchy, level, k):
    meshes = hierarchy
    coarse, fine = meshes[level], meshes[level + k]
    rng = np.random.default_rng(100 * level + k)
    spec = box(-0.6, 0.6, 0.8)
    state = P1Field(fine, rng.uniform(-1.0, 1.0, fine.num_vertices))
    adjoint = P1Field(fine, rng.uniform(-1.0, 1.0, fine.num_vertices))
    # Oracle: locate each vertex and barycenter of ``coarse`` in ``fine``
    # and interpolate there by its barycentric coordinates.
    points = np.concatenate([coarse.vertices[coarse.triangles],
                             barycenters(coarse)[:, None, :]],
                            axis=1).reshape(-1, 2)
    tri = locate(fine, points)
    lam = barycentric_coordinates(fine, tri, points)

    def located_at(field):
        return np.sum(field.values[fine.triangles[tri]] * lam, axis=-1)

    located = spec.clamp(located_at(state) * located_at(adjoint)
                         / spec.nu).reshape(-1, 4)
    samples = postprocessed_samples(spec, state, adjoint, coarse)
    assert samples.shape == (coarse.num_triangles, 4)
    assert np.any(np.abs(located) == 0.6)              # the clamp is hit
    # A vertex's barycentric coordinates are exact; at a barycenter the
    # located evaluation carries the round-off of barycentric coordinates,
    # which grows as eps / h on the fine mesh.
    assert np.array_equal(samples[:, :3], located[:, :3])
    bound = 4.0 * np.finfo(float).eps / fine.h
    assert np.max(np.abs(samples[:, 3] - located[:, 3])) <= \
        bound * np.max(np.abs(located))


def test_samples_on_rejects_a_mesh_that_is_not_an_ancestor(hierarchy):
    meshes = hierarchy
    mesh = meshes[3]
    field = P1Field(mesh, np.zeros(mesh.num_vertices))
    for other in (build_unit_square_mesh(2), build_unit_square_mesh(3),
                  meshes[4]):
        with pytest.raises(OcfemError):
            postprocessed_samples(box(-1.0, 1.0, 1.0), field, field, other)


@pytest.mark.parametrize("level", [0, 2, 4])
def test_postprocess_error_cross_matches_barycentric_evaluation(hierarchy,
                                                                level):
    coarse, fine = hierarchy[level], hierarchy[level + 1]
    rng = np.random.default_rng(7 + level)
    spec = box(-0.5, 0.5, 0.7)

    def random_fields(mesh):
        return tuple(P1Field(mesh, rng.uniform(-1.0, 1.0, mesh.num_vertices))
                     for _ in range(2))

    pp_coarse, pp_fine = random_fields(coarse), random_fields(fine)
    # Reference: evaluate the coarse fields in the parent triangle of each
    # fine quadrature point by its barycentric coordinates.
    pts = fem.quadrature_points(fine)
    parents = np.broadcast_to(np.arange(fine.num_triangles)[:, None] // 4,
                              pts.shape[:2])
    lam = barycentric_coordinates(coarse, parents, pts)

    def coarse_at(field):
        return np.sum(field.values[coarse.triangles[parents]] * lam, axis=-1)

    coarse_vals = spec.clamp(coarse_at(pp_coarse[0]) *
                             coarse_at(pp_coarse[1]) / spec.nu)
    fine_vals = spec.clamp(pp_fine[0].at_quadrature() *
                           pp_fine[1].at_quadrature() / spec.nu)
    d2 = (fine_vals - coarse_vals) ** 2
    expected = np.sqrt(np.sum(fine.areas * (d2 @ fem.TRIANGLE_RULE.weights)))
    prolonged = tuple(fem.prolong_p1(fine, field) for field in pp_coarse)
    assert postprocess_error_cross(spec, prolonged, pp_fine) == \
        pytest.approx(expected, rel=1e-13)


def test_run_study_locates_no_point(monkeypatch):
    import ocfem
    from ocfem import mesh as mesh_mod
    # Only ocfem.mesh binds point location; the tests use it as an oracle.
    for module in (ocfem, study, fem):
        assert not hasattr(module, "locate")
        assert not hasattr(module, "barycentric_coordinates")

    def forbidden(*args, **kwargs):
        raise AssertionError("run_study located a point")

    monkeypatch.setattr(mesh_mod, "locate", forbidden)
    records = run_study(get_preset("paper-sec6"), 2, 5)
    assert [r.level for r in records] == [2, 3, 4]
    assert all(r.measure_t1 > 0.0 for r in records)


def test_run_study_refuses_an_oversized_range_before_building_a_mesh(
        monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(study, "refine", forbidden)
    monkeypatch.setattr(study, "build_unit_square_mesh", forbidden)
    with pytest.raises(MeshSizeError, match="level 16"):
        run_study(get_preset("paper-sec6"), 3, 16)

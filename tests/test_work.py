"""The solver's work pinned as a golden: per level of the 2..6 study, and for
one cold state solve, the factorizations, triangular solves, Hessian
products, state Newton iterations and outer iterations.

The counts do not depend on the BLAS thread count.  A change that moves
one rewrites ``tests/data/work_2_6.csv`` and names each moved count.
"""
from pathlib import Path

import numpy as np

from ocfem import fem, get_preset, pde, run_study
from ocfem.linalg import SparseSymOperator, _PermutedFactor
from ocfem.mesh import build_unit_square_mesh
from ocfem.optimizer import Linearization

COLUMNS = ("factorizations", "solves", "products", "newton")


def counting(monkeypatch):
    """Counters of the four wrapped calls, and the state Newton steps."""
    counts = dict.fromkeys(COLUMNS, 0)

    def wrap(owner, name, key):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    wrap(SparseSymOperator, "_factor", "factorizations")
    wrap(_PermutedFactor, "solve", "solves")
    wrap(Linearization, "hessian_apply_values", "products")
    real_state = pde.solve_state

    def solve_state(*args, **kwargs):
        state, report = real_state(*args, **kwargs)
        counts["newton"] += report.iterations
        return state, report
    monkeypatch.setattr(pde, "solve_state", solve_state)
    return counts


def measured_rows(monkeypatch):
    counts = counting(monkeypatch)
    rows = []

    def progress(level, sol):
        rows.append(f"study,{level},"
                    + ",".join(str(counts[key]) for key in COLUMNS)
                    + f",{sol.outer_iterations}")
        counts.update(dict.fromkeys(COLUMNS, 0))

    run_study(get_preset("paper-sec6"), 2, 6, progress=progress)
    # A cold state solve on a formula control: the state-l8 bench path.
    spec, mesh = get_preset("paper-sec6"), build_unit_square_mesh(5)
    u = fem.l2_project_p0(mesh, lambda x: 0.8 * np.cos(3 * np.pi * x[:, 0])
                          * np.cos(2 * np.pi * x[:, 1]))
    pde.solve_state(spec, mesh, fem.P0Field(mesh, spec.clamp(u.values)))
    rows.append("state,5," + ",".join(str(counts[key]) for key in COLUMNS)
                + ",0")
    return rows


def test_work_of_the_2_6_study_and_a_cold_state_solve(monkeypatch):
    pinned = (Path(__file__).parent / "data" / "work_2_6.csv").read_text()
    header, *expected = pinned.splitlines()
    assert header == "run,level," + ",".join(COLUMNS) + ",outer"
    assert measured_rows(monkeypatch) == expected

"""The three benchmark workloads: inputs, operations and output checks.

Why each workload exists (see NOTES.md for the layer map):

* ``paper-table`` is the paper's convergence table, levels 3..8 of the
  flagship preset: optimizer- and linalg-bound, with factor reuse across
  the reduced-Hessian solves and study tabulation on top.
* ``state-l8`` is Newton alone on the finest level: one linear solve per
  factorization, no optimizer, no study, no factor reuse.
* ``nu-sweep`` is many small studies over seeded (nu, alpha, beta): LU is
  cheap there, so the work repeated on every call (quadrature, assembly,
  operator construction, refinement) dominates.

Each workload is built from the seed in ``__init__`` (the set-up) and then
runs passes; one pass is a fixed batch of operations whose outputs are
checked before the pass ends.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
from time import perf_counter

import numpy as np

from ocfem import cli, fem, mesh as ocmesh, pde, presets, study
from ocfem.errors import OcfemError

import inputs

PRESET = "paper-sec6"
# The seed commit's table for levels 3..8.
REFERENCE_CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference", "paper_table_seed.csv")
# The CLI's default tolerances, used for every solve.
KKT_TOL = 1e-9
NEWTON_TOL = 1e-11
LINEAR_TOL = 1e-12

# paper-table output check against the reference table.
TABLE_RTOL = 1e-5
TABLE_COMPARED = ("e_u", "eoc_u", "e_y", "eoc_y", "e_phi", "eoc_phi",
                  "e_upost", "eoc_upost", "measure_T1")
# nu-sweep output check on the last row of every study.
EOC_Y_TARGET = 2.0
EOC_Y_TOL = 0.2


def vertex_count(level: int) -> int:
    return (2 ** level + 1) ** 2


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Workload:
    """Shared pass bookkeeping: op identifiers for spans and paused checks."""

    name = ""

    def __init__(self, tracer=None, tamper=False):
        self.tracer = tracer
        self.tamper = tamper
        self.info = {}

    def _begin(self, op_id):
        if self.tracer is not None:
            self.tracer.op = op_id

    def _checking(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.suspended()

    def run_pass(self):
        """Run one batch; return (ops, output digest).

        ``ops`` is a list of ``[op_id, seconds, ok]``.
        """
        raise NotImplementedError


class PaperTable(_Workload):
    """``study.run_study`` on the flagship preset, formatted as CSV."""

    name = "paper-table"

    def __init__(self, seed, size, **kw):
        super().__init__(**kw)
        self.levels = (3, 8) if size == "full" else (2, 5)
        self.spec = presets.get_preset(PRESET)
        # The shrunken size used by the self-test has no reference table
        # and checks the KKT residuals only.
        self.reference = None
        if size == "full":
            with open(REFERENCE_CSV, newline="") as handle:
                self.reference = handle.read()
        lo, hi = self.levels
        self.info = {"levels": [lo, hi],
                     "vertices": [vertex_count(j) for j in range(lo, hi + 1)]}

    def run_pass(self):
        lo, hi = self.levels
        ops = []
        mark = [perf_counter()]
        self._begin(f"level-{lo}")

        def progress(level, sol):
            now = perf_counter()
            ops.append([f"level-{level}", now - mark[0], True])
            mark[0] = now
            self._begin(f"level-{level + 1}" if level < hi else "tabulate")

        try:
            records = study.run_study(self.spec, lo, hi, tol=KKT_TOL,
                                      newton_tol=NEWTON_TOL,
                                      linear_tol=LINEAR_TOL,
                                      progress=progress)
            text = "\n".join(cli.format_csv_rows(records)) + "\n"
        except OcfemError:
            # The table is lost, so every level of the pass counts as failed.
            done = {op[0] for op in ops}
            ops += [[f"level-{j}", 0.0, False] for j in range(lo, hi + 1)
                    if f"level-{j}" not in done]
            for op in ops:
                op[2] = False
            return ops, None
        if self.tamper:
            lines = text.splitlines()
            cells = lines[1].split(",")
            cells[-2] = "1.000000e+00"          # kkt of the first row
            lines[1] = ",".join(cells)
            text = "\n".join(lines) + "\n"
        with self._checking():
            bad = self.check(text)
        for op in ops:
            if int(op[0].split("-")[1]) in bad:
                op[2] = False
        self.info["csv_byte_identical"] = (self.reference is not None
                                           and text == self.reference)
        return ops, _hash_text(text)

    def check(self, text):
        """Levels whose row fails; every level when the table is malformed."""
        lo, hi = self.levels
        every = set(range(lo, hi + 1))
        rows = [line.split(",") for line in text.splitlines()]
        header, body = rows[0], rows[1:]
        if [int(r[0]) for r in body] != list(range(lo, hi)):
            return every
        col = {name: k for k, name in enumerate(header)}
        bad = set()
        for row in body:
            if not float(row[col["kkt"]]) <= KKT_TOL:
                bad.add(int(row[0]))
        if self.reference is None:
            return bad
        ref = [line.split(",") for line in self.reference.splitlines()]
        if ref[0] != header or len(ref) != len(rows):
            return every
        for row, want in zip(body, ref[1:]):
            for name in TABLE_COMPARED:
                got, exp = row[col[name]], want[col[name]]
                if (got == "") != (exp == ""):
                    bad.add(int(row[0]))
                elif got and not math.isclose(float(got), float(exp),
                                              rel_tol=TABLE_RTOL):
                    bad.add(int(row[0]))
        return bad


class StateL8(_Workload):
    """``pde.solve_state`` from y = 0 for seeded controls on one mesh."""

    name = "state-l8"
    CONTROLS = 4

    def __init__(self, seed, size, **kw):
        super().__init__(**kw)
        self.level = 8 if size == "full" else 4
        count = self.CONTROLS if size == "full" else 2
        self.spec = presets.get_preset(PRESET)
        self.mesh = ocmesh.build_unit_square_mesh(self.level)
        rng = inputs.rng_for(seed, self.name)
        centers = ocmesh.barycenters(self.mesh)
        self.controls = [
            fem.P0Field(self.mesh, inputs.cosine_control_values(
                rng, centers, self.spec.alpha, self.spec.beta))
            for _ in range(count)]
        self.info = {"level": self.level,
                     "vertices": self.mesh.num_vertices,
                     "controls": count,
                     "inputs_digest": inputs.digest(
                         *[u.values for u in self.controls])}

    def run_pass(self):
        ops = []
        digest = hashlib.sha256()
        for k, u in enumerate(self.controls):
            op_id = f"control-{k}"
            self._begin(op_id)
            start = perf_counter()
            try:
                y, _ = pde.solve_state(self.spec, self.mesh, u,
                                       tol=NEWTON_TOL, linear_tol=LINEAR_TOL)
                values = y.values
                if self.tamper and k == 0:
                    values = values + 1e-6
                with self._checking():
                    ok = self.residual_ok(u, values)
                digest.update(values.tobytes())
            except OcfemError:
                ok = False
            ops.append([op_id, perf_counter() - start, ok])
        return ops, digest.hexdigest()[:16]

    def residual_ok(self, u, values):
        """Recompute the discrete state residual with public fem calls and
        hold it to the Newton stopping rule."""
        mesh, spec = self.mesh, self.spec
        y = fem.P1Field(mesh, values)
        load = fem.assemble_boundary_load(mesh, spec.boundary_flux)
        pts = fem.quadrature_points(mesh).reshape(-1, 2)
        yq = y.at_quadrature()
        reaction = np.broadcast_to(
            np.asarray(spec.nonlinearity(pts, yq.reshape(-1)), float),
            (yq.size,)).reshape(yq.shape)
        res = fem.assemble_stiffness(mesh, spec.diffusion).matvec(values)
        res += fem.assemble_volume_load(mesh, reaction)
        res += fem.p0_weighted_p1_load(mesh, u, y)
        res -= load
        limit = NEWTON_TOL * (1.0 + float(np.linalg.norm(load)))
        return float(np.linalg.norm(res)) <= limit


class NuSweep(_Workload):
    """Small studies over seeded (nu, alpha, beta) variants of the preset."""

    name = "nu-sweep"
    DRAWS = 12

    def __init__(self, seed, size, **kw):
        super().__init__(**kw)
        self.levels = (2, 6) if size == "full" else (1, 4)
        count = self.DRAWS if size == "full" else 3
        base = presets.get_preset(PRESET)
        self.draws = inputs.parameter_draws(
            inputs.rng_for(seed, self.name), count)
        self.specs = [base.with_overrides(**d) for d in self.draws]
        lo, hi = self.levels
        self.info = {"levels": [lo, hi],
                     "vertices": [vertex_count(j) for j in range(lo, hi + 1)],
                     "draws": count,
                     "inputs_digest": inputs.digest(
                         [[d["nu"], d["alpha"], d["beta"]]
                          for d in self.draws])}

    def run_pass(self):
        lo, hi = self.levels
        ops = []
        digest = hashlib.sha256()
        for k, spec in enumerate(self.specs):
            op_id = f"draw-{k}"
            self._begin(op_id)
            start = perf_counter()
            try:
                records = study.run_study(spec, lo, hi, tol=KKT_TOL,
                                          newton_tol=NEWTON_TOL,
                                          linear_tol=LINEAR_TOL)
                text = "\n".join(cli.format_csv_rows(records)) + "\n"
                if self.tamper and k == 0:
                    records[-1].eoc_y += 1.0
                with self._checking():
                    ok = (len(records) == hi - lo
                          and all(r.kkt_residual <= KKT_TOL for r in records)
                          and records[-1].eoc_y is not None
                          and abs(records[-1].eoc_y - EOC_Y_TARGET)
                          <= EOC_Y_TOL)
                digest.update(text.encode())
            except OcfemError:
                ok = False
            ops.append([op_id, perf_counter() - start, ok])
        return ops, digest.hexdigest()[:16]


WORKLOADS = {cls.name: cls for cls in (PaperTable, StateL8, NuSweep)}

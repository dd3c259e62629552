"""Command-line interface: solve, study and check subcommands.

Configuration is a preset name plus scalar overrides, given as flags or as
a flat ``key=value`` text file (flags win).  The study command emits the
convergence table as CSV with LF line endings; two runs with identical
configuration produce byte-identical output.  ``solve --out DIR`` writes
``summary.txt`` and, with ``--emit-fields``, the mesh and its three fields
as plain text (formats in README).  No other module of the package does I/O.
"""
from __future__ import annotations

import argparse
import contextlib
import re
import resource
import sys
from dataclasses import dataclass
from itertools import chain, product
from math import factorial, inf, prod
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

import numpy as np

from . import fem, optimizer, pde, presets, study
from .errors import (AdmissibilityError, LinearSolverError, MeshError,
                     MeshSizeError, NonconvergenceError, OcfemError)
from .fem import P0Field, P1Field
from .mesh import Mesh, build_unit_square_mesh, check_level

# The study CSV's columns, in order: CSV name -> ``StudyRecord`` attribute.
_CSV_COLUMNS = {
    "j": "level", "h": "h", "e_u": "e_u", "eoc_u": "eoc_u", "e_y": "e_y",
    "eoc_y": "eoc_y", "e_phi": "e_phi", "eoc_phi": "eoc_phi",
    "e_upost": "e_upost", "eoc_upost": "eoc_upost", "measure_T1": "measure_t1",
    "kkt": "kkt_residual", "iters": "outer_iterations"}
CSV_HEADER = ",".join(_CSV_COLUMNS)


@dataclass
class RunConfig:
    """Resolved run configuration (preset plus scalar overrides)."""

    preset: str = "paper-sec6"
    nu: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    level: int = 4
    levels: Tuple[int, int] = (3, 8)
    out: Optional[str] = None
    emit_fields: bool = False

    def build_spec(self) -> pde.ProblemSpec:
        overrides = {key: getattr(self, key) for key in ("nu", "alpha", "beta")
                     if getattr(self, key) is not None}
        return presets.get_preset(self.preset).with_overrides(**overrides)


def parse_levels(text: str) -> Tuple[int, int]:
    """Parse a level range of the form ``A..B`` with A < B."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"levels must look like 3..8, got {text!r}")
    a, b = int(parts[0]), int(parts[1])
    if not (0 <= a < b):
        raise ValueError(f"levels must satisfy 0 <= A < B, got {text!r}")
    return a, b


def _parse_switch(text: str) -> bool:
    """``1``/``true``/``yes`` or ``0``/``false``/``no``/empty, in any case."""
    if text.lower() not in ("1", "true", "yes", "0", "false", "no", ""):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() in ("1", "true", "yes")


# Parser of each config-file key; every key is also a flag of the same name.
# float("inf") handles beta=inf.
_PARSERS = {
    "preset": str, "nu": float, "alpha": float, "beta": float,
    "level": int, "levels": parse_levels, "out": lambda text: text or None,
    "emit_fields": _parse_switch,
}


def load_config_file(path: str) -> dict:
    """Flat ``key=value`` configuration; '#' starts a comment line."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _config_from_args(args) -> RunConfig:
    """File values first, then the flags given on the command line."""
    values = load_config_file(args.config) if args.config else {}
    for key in values:
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
    for key in _PARSERS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    cfg = RunConfig(**{key: _PARSERS[key](val) for key, val in values.items()})
    if cfg.level < 0:
        raise ValueError(f"level must be >= 0, got {cfg.level}")
    if args.command == "solve" and cfg.emit_fields and cfg.out is None:
        raise ValueError("--emit-fields needs --out")
    return cfg


def _csv_cell(value) -> str:  # an undefined order is an empty cell
    return ("" if value is None else str(value) if isinstance(value, int)
            else f"{value:.6e}")


def format_csv_rows(records: List[study.StudyRecord]) -> List[str]:
    return [CSV_HEADER] + [
        ",".join(_csv_cell(getattr(r, attr)) for attr in _CSV_COLUMNS.values())
        for r in records]


def _write_lines(lines: Iterable[str], stream) -> None:
    stream.writelines(f"{line}\n" for line in lines)


def cmd_solve(cfg: RunConfig, spec: pde.ProblemSpec) -> int:
    out_dir = Path(cfg.out) if cfg.out else None
    if out_dir:  # made before the solve: an unwritable path costs no solve
        out_dir.mkdir(parents=True, exist_ok=True)
    # Nested iteration from level min(3, L); only the finest is kept.
    for solution, _ in study.continuation(spec, min(3, cfg.level), cfg.level):
        mesh = solution.control.mesh
    summary = [
        f"preset={spec.name}",
        f"level={cfg.level}",
        f"vertices={mesh.num_vertices}",
        f"triangles={mesh.num_triangles}",
        f"cost={solution.cost!r}",
        f"kkt_residual={solution.kkt_residual!r}",
        f"outer_iterations={solution.outer_iterations}",
        f"converged={solution.converged}",
        f"state_newton_iterations={solution.state_report.iterations}",
        f"state_residual={solution.state_report.residual!r}",
    ]
    files = [("summary", summary)] if out_dir else []
    if out_dir and cfg.emit_fields:
        files.append(("mesh", chain(
            [f"{mesh.num_vertices} {mesh.num_triangles}"],
            (f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices),
            (f"{a} {b} {c}" for a, b, c in mesh.triangles))))
        for name, tag, field in (("control", "p0", solution.control),
                                 ("state", "p1", solution.state),
                                 ("adjoint", "p1", solution.adjoint)):
            files.append((name, chain([f"{tag} {len(field.values)}"],
                                      (repr(float(v)) for v in field.values))))
    for name, lines in files:
        with open(out_dir / f"{name}.txt", "w", newline="\n") as handle:
            _write_lines(lines, handle)
    _write_lines(summary, sys.stdout)
    return 0


def cmd_study(cfg: RunConfig, spec: pde.ProblemSpec) -> int:
    spec.validate(build_unit_square_mesh(min(cfg.levels[0], 3)))

    def progress(level, sol):
        print(f"level {level}: kkt={sol.kkt_residual:.3e} "
              f"iters={sol.outer_iterations}", file=sys.stderr)

    # Opened before the first level, so an unwritable path costs no level.
    with (contextlib.nullcontext(sys.stdout) if cfg.out is None
          else open(cfg.out, "w", newline="\n")) as stream:
        try:
            records = study.run_study(spec, *cfg.levels, progress=progress)
        except (NonconvergenceError, LinearSolverError) as err:
            _write_lines(format_csv_rows(err.report or []), stream)
            raise
        _write_lines(format_csv_rows(records), stream)
    return 0


def _check_mesh(mesh: Mesh) -> str:
    mesh.validate()
    return f"{mesh.num_vertices} vertices, {mesh.num_triangles} triangles"


def _check_quadrature() -> str:
    """Each rule on the d-simplex against the exact means
    ``d! prod(e!) / (d + sum(e))!`` of the monomials of its points' last d
    barycentric coordinates, to the rule's degree."""
    worst = 0.0
    for points, weights, degree in (
            (fem.TRIANGLE_POINTS, fem.TRIANGLE_WEIGHTS, fem.TRIANGLE_DEGREE),
            (fem.EDGE_POINTS, fem.EDGE_WEIGHTS, fem.EDGE_DEGREE)):
        d = points.shape[1] - 1
        for powers in product(range(degree + 1), repeat=d):
            if sum(powers) <= degree:
                mean = float(weights @ np.prod(points[:, 1:] ** powers, axis=1))
                exact = factorial(d) * prod(map(factorial, powers)) / \
                    factorial(d + sum(powers))
                worst = max(worst, abs(mean - exact) / exact)
    if worst > 5e-14:
        raise OcfemError(f"quadrature exactness violated: {worst:.3e}")
    return f"max relative defect {worst:.2e}"


def _check_stiffness_reference() -> str:
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), level=0)
    matrix = fem.assemble_stiffness(mesh).matrix.toarray()
    exact = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    gap = float(np.max(np.abs(matrix - exact)))
    if gap > 1e-14:
        raise OcfemError(f"reference stiffness defect {gap:.3e}")
    return f"entrywise defect {gap:.2e}"


def _check_projection(level: int) -> str:
    mesh = build_unit_square_mesh(min(level, 5))

    def source(x):
        return x[..., 0] ** 2 + 0.5 * x[..., 0] * x[..., 1]

    projected = fem.l2_project_p0(mesh, source)
    vals = fem.at_points(source, fem.quadrature_points(mesh))
    defect = vals - projected.values[:, None]
    per_t = mesh.areas * (defect @ fem.TRIANGLE_WEIGHTS)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        v = rng.standard_normal(mesh.num_triangles)
        worst = max(worst, abs(float(per_t @ v)) / np.linalg.norm(v))
    if worst > 1e-12:
        raise OcfemError(f"projection orthogonality defect {worst:.3e}")
    return f"orthogonality defect {worst:.2e}"


def _check_manufactured(mesh: Mesh) -> str:
    spec = presets.get_preset("manufactured-constant")
    u = P0Field.zeros(mesh)
    state, report = pde.solve_state(spec, mesh, u, tol=1e-13)
    err = fem.linf_diff_p1(state, P1Field(mesh, np.ones(mesh.num_vertices)))
    if report.residual > 1e-12 or err > 1e-12:
        raise OcfemError(
            f"residual {report.residual:.3e}, field error {err:.3e}")
    return f"residual {report.residual:.2e}, field error {err:.2e}"


def _linearization(spec, mesh):
    """The derivative checks' fixture: the linearization at an admissible
    control, plus two P0 directions."""
    def profile(x):
        return 0.3 + 0.2 * np.sin(2.0 * np.pi * x[..., 0]) * \
            np.cos(np.pi * x[..., 1])

    def dir1(x):
        return np.cos(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])

    def dir2(x):
        return x[..., 0] - x[..., 1] + 0.25

    u = fem.l2_project_p0(mesh, profile)
    u = P0Field(mesh, spec.clamp(u.values))
    return (optimizer.Linearization(spec, mesh, u),
            fem.l2_project_p0(mesh, dir1), fem.l2_project_p0(mesh, dir2))


def _check_gradient_fd(problem, v, _) -> str:
    spec, mesh, u, state = problem.spec, problem.mesh, problem.u, problem.state
    derivative = float(np.sum(mesh.areas * problem.gradient * v.values))
    t = 1e-4
    plus = optimizer.cost(spec, mesh, P0Field(mesh, u.values + t * v.values),
                          init=state)
    minus = optimizer.cost(spec, mesh, P0Field(mesh, u.values - t * v.values),
                           init=state)
    fd = (plus - minus) / (2.0 * t)
    rel = abs(derivative - fd) / (1.0 + abs(derivative))
    if rel > 1e-5:
        raise OcfemError(f"gradient vs FD relative error {rel:.3e}")
    return f"relative error {rel:.2e} at t={t:g}"


def _eta_form(problem, v1, v2) -> float:
    """The Hessian in directions v1, v2 through the optimizer's products."""
    hv = problem.hessian_apply_values(v1.values)
    return float(np.sum(problem.mesh.areas * hv * v2.values))


def _check_hessian_symmetry(problem, v1, v2, h12) -> str:
    h21 = _eta_form(problem, v2, v1)
    gap = abs(h12 - h21) / (1.0 + abs(h12))
    if gap > 1e-10:
        raise OcfemError(f"Hessian symmetry defect {gap:.3e}")
    return f"symmetry defect {gap:.2e}"


def _check_z_eta(problem, v1, v2, h12) -> str:
    hz = problem.hessian(v1, v2)
    gap = abs(hz - h12) / (1.0 + abs(hz))
    if gap > 1e-8:
        raise OcfemError(f"z-form vs eta-form gap {gap:.3e}")
    return f"agreement gap {gap:.2e}"


def _once(build):
    """``build`` run on the first call only: every call returns its value
    or raises its exception."""
    memo = []

    def get():
        if not memo:
            try:
                memo.append((build(), None))
            except Exception as err:  # raised again to every caller
                memo.append((None, err))
        if memo[0][1] is not None:
            raise memo[0][1]
        return memo[0][0]
    return get


def cmd_check(cfg: RunConfig, spec: pde.ProblemSpec) -> int:
    mesh = build_unit_square_mesh(cfg.level)  # MeshError here exits 2
    try:
        spec.validate(build_unit_square_mesh(min(cfg.level, 6)))
        admissible, results = True, [("admissibility", "PASS",
                                      "data admissible")]
    except AdmissibilityError as err:
        admissible, results = False, [("admissibility", "FAIL", str(err))]
    fixture = _once(lambda: _linearization(spec, mesh))
    h12 = _once(lambda: _eta_form(*fixture()))  # the eta form in (v1, v2)
    plain = [
        ("mesh-invariants", lambda: _check_mesh(mesh)),
        ("quadrature-exactness", _check_quadrature),
        ("stiffness-reference", _check_stiffness_reference),
        ("projection-orthogonality", lambda: _check_projection(cfg.level)),
        ("manufactured-constant", lambda: _check_manufactured(mesh)),
    ]
    derivative = [
        ("gradient-fd", lambda: _check_gradient_fd(*fixture())),
        ("hessian-symmetry",
         lambda: _check_hessian_symmetry(*fixture(), h12())),
        ("z-eta-agreement", lambda: _check_z_eta(*fixture(), h12())),
    ]
    for name, fn in plain + (derivative if admissible else []):
        try:
            results.append((name, "PASS", fn()))
        except Exception as err:  # report, do not crash the battery
            results.append((name, "FAIL", str(err)))
    if not admissible:
        results += [(name, "SKIP", "requires admissible data")
                    for name, _ in derivative]

    failed = any(status == "FAIL" for _, status, _ in results)
    for name, status, detail in results:
        print(f"{status} {name}: {detail}")
    return 1 if failed else 0


# (limit, usage) files of the process's memory cgroup, v2 then v1.
_CGROUP_FILES = (
    ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current"),
    ("/sys/fs/cgroup/memory/memory.limit_in_bytes",
     "/sys/fs/cgroup/memory/memory.usage_in_bytes"),
)


def _cgroup_headroom(limit_path: str, usage_path: str) -> float:
    """The cgroup's limit minus its usage, in bytes; inf for no limit
    (``max``, or 2**62 or more, as v1 writes it) or an unreadable file."""
    try:
        with open(limit_path) as handle:
            text = handle.read().strip()
        if text == "max" or float(text) >= 2.0 ** 62:
            return inf
        with open(usage_path) as handle:
            return float(text) - float(handle.read())
    except (OSError, ValueError):
        return inf


def _memory_limit() -> float:
    """Bytes this process may use: the smaller of the soft address-space
    limit, the kernel's MemAvailable and the memory cgroup's headroom (any
    may be absent)."""
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    limit = inf if soft == resource.RLIM_INFINITY else float(soft)
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    limit = min(limit, 1024.0 * float(line.split()[1]))
    except OSError:
        pass
    return min([limit] + [_cgroup_headroom(*files)
                          for files in _CGROUP_FILES])


def _check_memory(level: int) -> None:
    """Refuse a finest level whose run would not fit in memory, before any
    mesh is built.  Peaks: 207-210 MiB for ``solve`` at level 8, 204-211 MiB
    for other runs; 683 MiB at 9 and 2.9 GB at 10, before an 8-10 % shrink.
    The estimate, 234 MiB times 4 per level (vertex growth), bounds them."""
    check_level(level)
    need = 234.0 * 2 ** 20 * 4.0 ** (level - 8)
    have = _memory_limit()
    if need > have:
        raise MeshSizeError(
            f"level {level} needs an estimated {need / 2 ** 30:.3g} GiB, "
            f"more than the {have / 2 ** 30:.3g} GiB available")


class _Parser(argparse.ArgumentParser):
    """Raises ``ValueError`` on a bad command line (``main`` prints it in
    one ``error:`` line), and reads ``-5e-1``, ``-inf`` and ``-nan`` as
    values, not options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\.?\d|inf$|infinity$|nan$)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ocfem",
        description="Finite element solver for bilinear optimal control "
                    "of semilinear elliptic equations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", default=None,
                       help=f"problem preset ({', '.join(presets.PRESET_NAMES)})")
        p.add_argument("--config", default=None,
                       help="key=value configuration file")
        p.add_argument("--nu", default=None)
        p.add_argument("--alpha", default=None)
        p.add_argument("--beta", default=None)

    p_solve = sub.add_parser("solve", help="solve one level")
    common(p_solve)
    p_solve.add_argument("--level", default=None)
    p_solve.add_argument("--out", default=None, help="output directory")
    p_solve.add_argument("--emit-fields", dest="emit_fields",
                         action="store_const", const="true")

    p_study = sub.add_parser("study", help="convergence study over levels")
    common(p_study)
    p_study.add_argument("--levels", default=None, help="range A..B")
    p_study.add_argument("--out", default=None, help="CSV output file")

    p_check = sub.add_parser("check", help="verification battery")
    common(p_check)
    p_check.add_argument("--level", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        spec = cfg.build_spec()
    except (KeyError, OcfemError) as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    command = {"solve": cmd_solve, "study": cmd_study,
               "check": cmd_check}[args.command]
    try:
        _check_memory(cfg.levels[1] if args.command == "study" else cfg.level)
        return command(cfg, spec)
    except (AdmissibilityError, NonconvergenceError, LinearSolverError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (MeshError, OSError) as err:  # a level too fine, an unwritable out
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

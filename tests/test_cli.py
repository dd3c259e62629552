"""Command-line interface: exit codes, artifacts, CSV format, battery."""

import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ocfem
from ocfem import MeshError
from ocfem.cli import RunConfig, main, parse_levels
from ocfem.study import continuation


def run_cli(args):
    return main(args)


def test_unknown_preset_exit_2(capsys):
    assert run_cli(["solve", "--preset", "nope", "--level", "2"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_parse_levels():
    assert parse_levels("3..8") == (3, 8)
    with pytest.raises(ValueError):
        parse_levels("8..3")
    with pytest.raises(ValueError):
        parse_levels("3-8")


def test_bad_levels_flag_exit_2(capsys):
    code = run_cli(["study", "--preset", "manufactured-constant",
                    "--levels", "5..2"])
    assert code == 2


_BAD_CONFIGURATIONS = [
    (["--level", "-1"], "level"),
    (["--nu", "nan"], "nu"),
    (["--alpha", "nan"], "nan"),
    (["--alpha", "2", "--beta", "1"], "alpha < beta"),
    (["--nu", "inf"], "nu"),
    (["--beta", "nan"], "nan"),
    (["--level", "16"], "level 16"),
]


@pytest.mark.parametrize(
    "args, expected", _BAD_CONFIGURATIONS,
    ids=[f"args{i}" for i in range(len(_BAD_CONFIGURATIONS))])
def test_bad_configuration_exit_2(args, expected, capsys):
    assert run_cli(["solve", "--preset", "paper-sec6"] + args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert expected in err[0]


def test_solve_writes_summary_and_fields(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["solve", "--preset", "manufactured-constant",
                    "--level", "2", "--out", str(out), "--emit-fields"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "kkt_residual=" in stdout
    assert "converged=True" in stdout
    summary = (out / "summary.txt").read_text()
    assert "preset=manufactured-constant" in summary
    assert "level=2" in summary
    mesh_lines = (out / "mesh.txt").read_text().splitlines()
    nv, nt = map(int, mesh_lines[0].split())
    assert (nv, nt) == (25, 32)
    assert len(mesh_lines) == 1 + nv + nt
    control = (out / "control.txt").read_text().splitlines()
    assert control[0] == "p0 32"
    assert all(float(v) == 0.0 for v in control[1:])
    assert (out / "state.txt").read_text().startswith("p1 25")
    assert (out / "adjoint.txt").read_text().startswith("p1 25")


def _emit(out, *args):
    """Run ``solve --out out --emit-fields``; each emitted file's lines."""
    assert run_cli(["solve", *args, "--out", str(out), "--emit-fields"]) == 0
    return {name: (out / f"{name}.txt").read_text().splitlines()
            for name in ("mesh", "control", "state", "adjoint")}


def _parse_mesh(lines):
    nv, nt = map(int, lines[0].split())
    vertices = np.array([[float(tok) for tok in line.split()]
                         for line in lines[1:1 + nv]])
    triangles = np.array([[int(tok) for tok in line.split()]
                          for line in lines[1 + nv:]])
    return vertices.reshape(nv, 2), triangles.reshape(nt, 3)


def test_solve_mesh_file_format(tmp_path):
    lines = _emit(tmp_path / "run", "--preset", "manufactured-constant",
                  "--level", "1")["mesh"]
    assert lines[0] == "9 8"
    assert len(lines) == 1 + 9 + 8
    assert all(len(line.split()) == 2 for line in lines[1:10])
    assert all(len(line.split()) == 3 for line in lines[10:])
    vertices, triangles = _parse_mesh(lines)
    expected = ocfem.build_unit_square_mesh(1)
    assert np.array_equal(vertices, expected.vertices)
    assert np.array_equal(triangles, expected.triangles)


def test_solve_field_file_format(tmp_path):
    files = _emit(tmp_path / "run", "--preset", "paper-sec6", "--level", "1")
    for name, header in (("control", "p0 8"), ("state", "p1 9"),
                         ("adjoint", "p1 9")):
        lines = files[name]
        assert lines[0] == header
        assert len(lines) == 1 + int(header.split()[1])
        assert all(len(line.split()) == 1 for line in lines[1:])
        assert np.all(np.isfinite([float(v) for v in lines[1:]]))


def test_solve_emits_the_mesh_refined_from_level_3(tmp_path):
    vertices, triangles = _parse_mesh(_emit(tmp_path / "run", "--level",
                                            "4")["mesh"])
    expected = ocfem.refine(ocfem.build_unit_square_mesh(3))
    assert np.array_equal(vertices, expected.vertices)
    assert np.array_equal(triangles, expected.triangles)


def test_emitted_fields_round_trip_bit_for_bit(tmp_path):
    files = _emit(tmp_path / "run", "--level", "4")
    *_, (solution, _) = continuation(ocfem.get_preset("paper-sec6"), 3, 4)
    assert solution.control.mesh.num_triangles == 512
    for name in ("control", "state", "adjoint"):
        values = np.array([float(v) for v in files[name][1:]])
        assert values.tobytes() == getattr(solution, name).values.tobytes()


def test_solve_tikhonov_control_is_zero(tmp_path):
    out = tmp_path / "tik"
    code = run_cli(["solve", "--preset", "tikhonov-only", "--level", "2",
                    "--out", str(out), "--emit-fields"])
    assert code == 0
    control = (out / "control.txt").read_text().splitlines()[1:]
    assert np.max(np.abs([float(v) for v in control])) <= 1e-12


def test_study_single_row_has_empty_eoc(tmp_path):
    out = tmp_path / "study.csv"
    code = run_cli(["study", "--preset", "manufactured-constant",
                    "--levels", "2..3", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == ("j,h,e_u,eoc_u,e_y,eoc_y,e_phi,eoc_phi,"
                        "e_upost,eoc_upost,measure_T1,kkt,iters")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "2"
    assert fields[3] == ""          # eoc_u has no predecessor
    assert fields[5] == ""
    assert fields[12].isdigit()


def test_study_csv_is_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = run_cli(["study", "--preset", "manufactured-constant",
                        "--levels", "1..3", "--out", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_study_scientific_notation(tmp_path):
    out = tmp_path / "sci.csv"
    code = run_cli(["study", "--preset", "paper-sec6", "--levels", "3..4",
                    "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert "e" in row[1]            # h in scientific notation
    assert "e" in row[2]
    mantissa = row[2].split("e")[0]
    assert len(mantissa.split(".")[1]) >= 6


def test_check_flagship_passes(capsys):
    code = run_cli(["check", "--preset", "paper-sec6", "--level", "3"])
    out = capsys.readouterr().out
    assert code == 0, out
    lines = [l for l in out.splitlines() if l]
    assert all(line.startswith("PASS") for line in lines)
    names = {line.split()[1].rstrip(":") for line in lines}
    assert {"admissibility", "quadrature-exactness", "stiffness-reference",
            "projection-orthogonality", "manufactured-constant",
            "gradient-fd", "hessian-symmetry", "z-eta-agreement"} <= names


def test_check_inadmissible_bound_fails_cleanly(capsys):
    code = run_cli(["check", "--preset", "paper-sec6", "--level", "2",
                    "--alpha", "-3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL admissibility" in out
    assert "SKIP gradient-fd" in out
    # data-independent items still run
    assert "PASS quadrature-exactness" in out


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\npreset=manufactured-constant\nlevel=3\n")
    code = run_cli(["solve", "--config", str(cfg), "--level", "2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "level=2" in stdout          # flag wins over file
    assert "preset=manufactured-constant" in stdout


def test_config_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble=1\n")
    assert run_cli(["solve", "--config", str(cfg), "--level", "1"]) == 2


def test_solve_inadmissible_exit_1(capsys):
    code = run_cli(["solve", "--preset", "paper-sec6", "--level", "2",
                    "--alpha", "-3"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_study_inadmissible_exit_1_before_opening_out(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = run_cli(["study", "--preset", "paper-sec6", "--levels", "2..4",
                    "--alpha", "-3", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: a0(x) + u = -1.000000e+00 < 0: coercivity is lost"]
    assert not out.exists()


@pytest.mark.parametrize("error", ["NonconvergenceError",
                                   "LinearSolverError"])
def test_solve_nonconvergence_exit_1(error, capsys, monkeypatch):
    import ocfem
    import ocfem.cli as cli_mod

    def always_fails(*args, **kwargs):
        raise getattr(ocfem, error)("forced failure")

    monkeypatch.setattr(cli_mod.optimizer, "solve_ocp", always_fails)
    code = run_cli(["solve", "--preset", "paper-sec6", "--level", "1"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: forced failure"]


def test_solve_failure_on_a_coarser_level_exit_1(capsys, monkeypatch):
    import ocfem.cli as cli_mod

    real = cli_mod.study.optimizer.solve_ocp

    def fails_at_level_3(spec, mesh, *args, **kwargs):
        if mesh.level == 3:
            raise ocfem.NonconvergenceError("forced failure")
        return real(spec, mesh, *args, **kwargs)

    monkeypatch.setattr(cli_mod.study.optimizer, "solve_ocp",
                        fails_at_level_3)
    assert run_cli(["solve", "--level", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: forced failure"]


def test_every_study_record_field_is_one_csv_column():
    import ocfem.cli as cli_mod
    from ocfem.study import StudyRecord
    assert sorted(cli_mod._CSV_COLUMNS.values()) == \
        sorted(field.name for field in dataclasses.fields(StudyRecord))


def test_study_partial_csv_on_failure(tmp_path, capsys, monkeypatch):
    from ocfem import NonconvergenceError, study as study_mod
    from ocfem.cli import CSV_HEADER
    import ocfem.cli as cli_mod

    real = study_mod.run_study

    def partial_then_fail(spec, j_min, j_max, **kwargs):
        records = real(spec, j_min, j_min + 1, **kwargs)
        raise NonconvergenceError("forced failure", report=records)

    monkeypatch.setattr(cli_mod.study, "run_study", partial_then_fail)
    out = tmp_path / "partial.csv"
    code = run_cli(["study", "--preset", "manufactured-constant",
                    "--levels", "1..4", "--out", str(out)])
    assert code == 1
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2          # one completed row attached


def test_study_linear_solver_failure_writes_finished_rows(tmp_path, capsys,
                                                          monkeypatch):
    from ocfem import LinearSolverError
    from ocfem.cli import CSV_HEADER
    import ocfem.cli as cli_mod

    real = cli_mod.study.optimizer.solve_ocp

    def fails_at_level_3(spec, mesh, *args, **kwargs):
        if mesh.level == 3:
            raise LinearSolverError("forced failure")
        return real(spec, mesh, *args, **kwargs)

    monkeypatch.setattr(cli_mod.study.optimizer, "solve_ocp",
                        fails_at_level_3)
    out = tmp_path / "partial.csv"
    code = run_cli(["study", "--levels", "1..3", "--out", str(out)])
    assert code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "level 3" in errors[0]
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["1"]


def test_check_oversized_level_exit_2(capsys):
    assert run_cli(["check", "--level", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: level 16 overflows the vertex index type"]


def test_study_oversized_range_exit_2_before_any_mesh(capsys, monkeypatch):
    import ocfem.study as study_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("a mesh of the range was built")

    monkeypatch.setattr(study_mod, "refine", forbidden)
    monkeypatch.setattr(study_mod, "build_unit_square_mesh", forbidden)
    assert run_cli(["study", "--preset", "paper-sec6",
                    "--levels", "3..16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: level 16 overflows the vertex index type"]


@pytest.mark.parametrize("command, out", [
    (["study", "--levels", "1..2"], "missing/dir/table.csv"),
    (["solve", "--level", "1"], "a-file"),
], ids=["study-missing-dir", "solve-out-is-a-file"])
def test_unwritable_out_exit_2(command, out, tmp_path, capsys, monkeypatch):
    import ocfem.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output was opened")

    # The study opens its file, and solve makes its directory, before the
    # first solve: an unwritable path costs no solve and one error line.
    monkeypatch.setattr(cli_mod.optimizer, "solve_ocp", no_solve)
    (tmp_path / "a-file").write_text("")
    assert run_cli(command + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("args", [
    ["solve", "--wibble"], [], ["solve", "--level"],
    ["solve", "--alpha", "-x", "--level", "2"],
], ids=["unknown-flag", "no-command", "flag-without-value", "dash-word"])
def test_bad_command_line_exit_2_with_one_error_line(args, capsys):
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_negative_exponent_value_is_not_an_option(capsys, monkeypatch):
    import ocfem.cli as cli_mod
    seen = []
    monkeypatch.setattr(cli_mod, "cmd_solve",
                        lambda cfg, spec: seen.append(cfg) or 0)
    assert run_cli(["solve", "--alpha", "-5e-1", "--level", "2"]) == 0
    assert seen[0].alpha == -0.5


@pytest.mark.parametrize("flag, value, code", [
    ("--alpha", "-inf", 1), ("--alpha", "-INF", 1),
    ("--alpha", "-Infinity", 1), ("--beta", "-nan", 2),
    ("--nu", "-nan", 2), ("--nu", "-NaN", 2),
])
def test_negative_inf_and_nan_are_values(flag, value, code, capsys):
    # The spaced form reaches the same check as the ``=`` form, not
    # argparse's "expected one argument".
    lines = []
    for args in ([flag, value], [f"{flag}={value}"]):
        assert run_cli(["solve", *args, "--level", "2"]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        lines.append(err[0])
    assert lines[0] == lines[1]
    assert "expected one argument" not in lines[0]


@pytest.mark.parametrize("value, expected", [
    ("1", True), ("TRUE", True), ("Yes", True), ("0", False),
    ("false", False), ("NO", False), ("", False),
])
def test_emit_fields_config_values(value, expected, tmp_path):
    from ocfem.cli import _config_from_args, build_parser
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"emit_fields={value}\nout=run\n")
    args = build_parser().parse_args(["solve", "--config", str(cfg_file)])
    assert _config_from_args(args).emit_fields is expected


@pytest.mark.parametrize("value", ["tru", "2", "on", "y"])
def test_emit_fields_unknown_value_exit_2(value, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"emit_fields={value}\n")
    assert run_cli(["solve", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and value in err[0]


def test_check_reports_a_broken_mesh(capsys, monkeypatch):
    import ocfem.cli as cli_mod

    def broken(mesh):
        raise MeshError("non-conforming: an edge is shared by >2 triangles")

    monkeypatch.setattr(cli_mod.Mesh, "validate", broken)
    assert run_cli(["check", "--preset", "paper-sec6", "--level", "2"]) == 1
    assert ("FAIL mesh-invariants: non-conforming: an edge is shared by >2 "
            "triangles") in capsys.readouterr().out.splitlines()


def test_check_reports_a_nonsymmetric_hessian(capsys, monkeypatch):
    import ocfem.cli as cli_mod

    linearization = cli_mod.optimizer.Linearization
    real = linearization.hessian_apply_values

    def skewed(self, v_values, *args, **kwargs):
        return real(self, v_values, *args, **kwargs) + \
            1e-3 * np.roll(v_values, 1)

    monkeypatch.setattr(linearization, "hessian_apply_values", skewed)
    assert run_cli(["check", "--preset", "paper-sec6", "--level", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL hessian-symmetry:") for line in lines)


def test_solve_output_is_the_same_under_one_and_two_blas_threads():
    # OpenBLAS splits the dot products and norms of long vectors across its
    # threads, so any of them on the solve path of level 7 (16,641
    # vertices) would make the printed digits depend on the thread count.
    src = str(Path(ocfem.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs.append(subprocess.run(
            [sys.executable, "-m", "ocfem.cli", "solve", "--level", "7"],
            env=env, capture_output=True, check=True).stdout)
    assert outputs[0] == outputs[1]


def _record_linearizations(monkeypatch):
    import ocfem.cli as cli_mod
    seen = []

    class Recording(cli_mod.optimizer.Linearization):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self)

    monkeypatch.setattr(cli_mod.optimizer, "Linearization", Recording)
    return seen


def test_check_builds_one_linearization(capsys, monkeypatch):
    seen = _record_linearizations(monkeypatch)
    assert run_cli(["check", "--preset", "paper-sec6", "--level", "3"]) == 0
    assert len(seen) == 1
    assert capsys.readouterr().out.count("PASS") == 9


def test_check_output_matches_the_golden(capsys):
    # tests/data/check_3.txt is the same under 1 and 2 BLAS threads.
    golden = Path(__file__).parent / "data" / "check_3.txt"
    assert run_cli(["check", "--preset", "paper-sec6", "--level", "3"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_check_inadmissible_builds_no_linearization(capsys, monkeypatch):
    seen = _record_linearizations(monkeypatch)
    assert run_cli(["check", "--preset", "paper-sec6", "--level", "2",
                    "--alpha", "-3"]) == 1
    assert seen == []
    skipped = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("SKIP")]
    assert skipped == [f"SKIP {name}: requires admissible data" for name in
                       ("gradient-fd", "hessian-symmetry", "z-eta-agreement")]


def test_check_fixture_failure_fails_dependent_items(capsys, monkeypatch):
    import ocfem.cli as cli_mod

    attempts = []

    def fails(*args, **kwargs):
        attempts.append(args)
        raise cli_mod.NonconvergenceError("forced failure")

    monkeypatch.setattr(cli_mod.optimizer, "Linearization", fails)
    assert run_cli(["check", "--preset", "paper-sec6", "--level", "2"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert failed == [f"FAIL {name}: forced failure" for name in
                      ("gradient-fd", "hessian-symmetry", "z-eta-agreement")]
    assert len(attempts) == 1


# One value per config key, and the subcommand that has the matching flag.
_CONFIG_KEYS = [
    ("solve", "preset", "manufactured-constant"),
    ("solve", "nu", "0.5"),
    ("solve", "alpha", "-2"),
    ("solve", "beta", "inf"),
    ("check", "level", "5"),
    ("study", "levels", "2..6"),
    ("study", "out", "table.csv"),
    ("solve", "emit_fields", "true"),
]


@pytest.mark.parametrize("command, key, value", _CONFIG_KEYS,
                         ids=[key for _, key, _ in _CONFIG_KEYS])
def test_config_key_matches_flag(command, key, value, tmp_path):
    from ocfem.cli import RunConfig, _config_from_args, build_parser
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key}={value}\n")
    flag = (["--emit-fields"] if key == "emit_fields"
            else [f"--{key}", value])
    # --emit-fields needs --out: both sides give the same one.
    out = ["--out", "run"] if key == "emit_fields" else []
    parser = build_parser()
    from_file = _config_from_args(
        parser.parse_args([command, "--config", str(cfg_file)] + out))
    from_flag = _config_from_args(parser.parse_args([command] + flag + out))
    assert from_file == from_flag
    assert from_file != RunConfig()


@pytest.mark.parametrize("line", ["tol_kkt=1e-9", "tol_newton=1e-11",
                                  "tol_linear=1e-12"])
def test_config_tolerance_keys_exit_2(line, tmp_path, capsys):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(line + "\n")
    assert run_cli(["solve", "--config", str(cfg), "--level", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    key = line.partition("=")[0]
    assert err == [f"error: unknown config key {key!r}"]


def _forbid_meshes(monkeypatch):
    import ocfem.cli as cli_mod
    import ocfem.study as study_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("a mesh was built")

    for module in (cli_mod, study_mod):
        monkeypatch.setattr(module, "build_unit_square_mesh", forbidden)
    monkeypatch.setattr(study_mod, "refine", forbidden)


@pytest.mark.parametrize("config", [
    None, "emit_fields=true\n", "emit_fields=yes\nout=\n",
], ids=["flag", "config", "config-empty-out"])
def test_emit_fields_without_out_exit_2_before_any_mesh(
        config, tmp_path, capsys, monkeypatch):
    _forbid_meshes(monkeypatch)
    args = ["solve", "--level", "2"]
    if config is None:
        args.append("--emit-fields")
    else:
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", str(tmp_path / "run.cfg")]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --emit-fields needs --out"]


@pytest.mark.parametrize("command", ["study", "check"])
def test_emit_fields_is_ignored_outside_solve(command, tmp_path):
    from ocfem.cli import _config_from_args, build_parser
    (tmp_path / "run.cfg").write_text("emit_fields=true\n")
    args = build_parser().parse_args(
        [command, "--config", str(tmp_path / "run.cfg")])
    assert _config_from_args(args).emit_fields is True


@pytest.mark.parametrize("args, level", [
    (["study", "--preset", "paper-sec6", "--levels", "3..15"], 15),
    (["solve", "--level", "13"], 13),
    (["check", "--level", "11"], 11),
])
def test_memory_guard_refuses_before_any_mesh(args, level, capsys,
                                              monkeypatch):
    import ocfem.cli as cli_mod
    # 8 GiB available: levels 11 and up are estimated at 14.6 GiB or more.
    monkeypatch.setattr(cli_mod, "_memory_limit", lambda: 8.0 * 2 ** 30)
    _forbid_meshes(monkeypatch)
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: level {level} needs an estimated ")
    assert line.endswith(" GiB, more than the 8 GiB available")


def test_memory_guard_reads_the_limit(capsys, monkeypatch):
    import ocfem.cli as cli_mod
    # Level 2 is estimated at 57 KiB: refused under 32 KiB, run under 1 MiB.
    monkeypatch.setattr(cli_mod, "_memory_limit", lambda: 32.0 * 2 ** 10)
    assert run_cli(["solve", "--preset", "manufactured-constant",
                    "--level", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: level 2 needs")
    monkeypatch.setattr(cli_mod, "_memory_limit", lambda: 2.0 ** 20)
    assert run_cli(["solve", "--preset", "manufactured-constant",
                    "--level", "2"]) == 0


_MEMINFO = "/proc/meminfo"
_CGROUP_V2 = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current")
_CGROUP_V1 = ("/sys/fs/cgroup/memory/memory.limit_in_bytes",
              "/sys/fs/cgroup/memory/memory.usage_in_bytes")


def _fake_files(monkeypatch, files):
    """``open`` in ``ocfem.cli`` reads ``files`` (path -> text); any other
    path is missing."""
    import ocfem.cli as cli_mod

    def fake_open(path, *args, **kwargs):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    monkeypatch.setattr(cli_mod, "open", fake_open, raising=False)


def _meminfo(available_kib):
    return f"MemTotal:       16000000 kB\nMemAvailable:   {available_kib} kB\n"


@pytest.mark.parametrize("soft, available_kib, expected", [
    (-1, 4096, 4096 * 1024.0),                 # no address-space limit
    (2 ** 20, 4096, 2.0 ** 20),                # the soft limit is smaller
    (2 ** 30, 4096, 4096 * 1024.0),            # MemAvailable is smaller
])
def test_memory_limit_is_the_smaller_reading(soft, available_kib, expected,
                                             monkeypatch):
    import ocfem.cli as cli_mod
    soft = cli_mod.resource.RLIM_INFINITY if soft == -1 else soft
    monkeypatch.setattr(cli_mod.resource, "getrlimit",
                        lambda which: (soft, cli_mod.resource.RLIM_INFINITY))
    _fake_files(monkeypatch, {_MEMINFO: _meminfo(available_kib)})
    assert cli_mod._memory_limit() == expected


def test_memory_limit_without_meminfo(monkeypatch):
    import ocfem.cli as cli_mod
    monkeypatch.setattr(cli_mod.resource, "getrlimit",
                        lambda which: (2 ** 30, 2 ** 31))
    _fake_files(monkeypatch, {})
    assert cli_mod._memory_limit() == 2.0 ** 30


@pytest.mark.parametrize("files", [_CGROUP_V2, _CGROUP_V1],
                         ids=["v2", "v1"])
def test_memory_limit_reads_the_cgroup_headroom(files, monkeypatch):
    import ocfem.cli as cli_mod
    monkeypatch.setattr(cli_mod.resource, "getrlimit",
                        lambda which: (cli_mod.resource.RLIM_INFINITY,) * 2)
    limit, usage = files
    # 1 GiB limit, 256 MiB used: 768 MiB left, below 4 GiB MemAvailable.
    _fake_files(monkeypatch, {_MEMINFO: _meminfo(4 * 2 ** 20),
                              limit: f"{2 ** 30}\n",
                              usage: f"{2 ** 28}\n"})
    assert cli_mod._memory_limit() == 3.0 * 2 ** 28


@pytest.mark.parametrize("text", ["max\n", f"{2 ** 62}\n",
                                  "9223372036854771712\n", "garbage\n"])
@pytest.mark.parametrize("files", [_CGROUP_V2, _CGROUP_V1],
                         ids=["v2", "v1"])
def test_memory_limit_skips_an_unlimited_or_unreadable_cgroup(files, text,
                                                              monkeypatch):
    import ocfem.cli as cli_mod
    monkeypatch.setattr(cli_mod.resource, "getrlimit",
                        lambda which: (cli_mod.resource.RLIM_INFINITY,) * 2)
    limit, usage = files
    _fake_files(monkeypatch, {_MEMINFO: _meminfo(4096), limit: text,
                              usage: f"{2 ** 28}\n"})
    assert cli_mod._memory_limit() == 4096 * 1024.0


# Config-file fuzzing. The commands themselves are stubbed to return 0 and
# the memory reading is fixed at 8 GiB, so only parsing, validation and the
# memory guard run: no mesh is built, and the outcome does not depend on the
# machine.
_FUZZ_KEYS = [field.name for field in dataclasses.fields(RunConfig)]
_fuzz_values = st.one_of(
    st.text(), st.integers(-3, 70).map(str), st.floats().map(repr),
    st.sampled_from(["paper-sec6", "manufactured-constant", "3..8", "2..15",
                     "8..3", "inf", "-inf", "nan", "true", "no", ""]))
_odd_lines = st.one_of(
    st.tuples(st.text(), st.text()).map("=".join),   # mostly unknown keys
    st.text().filter(lambda line: "=" not in line),  # no '='
)
_NOT_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@st.composite
def _config_bytes(draw):
    lines = [f"{key}={value}" for key, value in draw(st.lists(
        st.tuples(st.sampled_from(_FUZZ_KEYS), _fuzz_values), max_size=6))]
    if draw(st.integers(0, 2)) == 0:
        lines.append(draw(_odd_lines))
    data = "\n".join(draw(st.permutations(lines))).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_NOT_UTF8)) + data[at:]
    return data


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["solve", "study", "check"]),
       data=_config_bytes())
def test_config_file_fuzzing_ends_in_exit_0_or_2(command, data, tmp_path,
                                                 capsys, monkeypatch):
    import ocfem.cli as cli_mod
    for name in ("cmd_solve", "cmd_study", "cmd_check"):
        monkeypatch.setattr(cli_mod, name, lambda cfg, spec: 0)
    monkeypatch.setattr(cli_mod, "_memory_limit", lambda: 8.0 * 2 ** 30)
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    code = run_cli([command, "--config", str(path)])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert code in (0, 2)
    assert len(errors) == (code == 2), captured.err

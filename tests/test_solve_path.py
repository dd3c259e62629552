"""One code path decides how any level is reached.

``ocfem.study.continuation`` is the only caller of ``solve_ocp`` in the
command line and the study: ``src/ocfem/cli.py`` calls it nowhere, and
``src/ocfem/study.py`` only inside ``continuation``.  Both files are parsed
with ``ast``; a call counts whether it names ``solve_ocp`` bare or as an
attribute.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ocfem"


def solve_ocp_calls(node):
    """The calls of ``solve_ocp`` under ``node``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and (getattr(call.func, "attr", None) == "solve_ocp"
                 or getattr(call.func, "id", None) == "solve_ocp")]


def test_cli_calls_no_solve_ocp():
    assert solve_ocp_calls(ast.parse((SRC / "cli.py").read_text())) == []


def test_study_calls_solve_ocp_only_inside_continuation():
    tree = ast.parse((SRC / "study.py").read_text())
    inside = [call for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name == "continuation"
              for call in solve_ocp_calls(node)]
    assert inside
    assert solve_ocp_calls(tree) == inside


def test_detector_finds_bare_and_attribute_calls():
    source = ("from .optimizer import solve_ocp\n"
              "def f(spec, mesh):\n"
              "    return solve_ocp(spec, mesh), optimizer.solve_ocp(spec)\n"
              "g = optimizer.solve_ocp\n")
    assert len(solve_ocp_calls(ast.parse(source))) == 2

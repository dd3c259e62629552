"""The package API the benchmark relies on must still be there.

The tracer skips a missing target silently and its per-layer metrics then
read 0, so a rename in the package would go unnoticed without this check.
Every call the workloads make to a package module must still bind with
its positional and keyword arguments, so a later signature edit cannot
break the benchmark unnoticed.  These tests read ``bench/`` only.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ocfem import pde, study
from ocfem.fem import P0Field
from ocfem.mesh import build_unit_square_mesh
from ocfem.presets import get_preset

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"
# Package functions the workloads call with keyword arguments, by the name
# they are called with.
KEYWORD_CALLED = {"study.run_study": study.run_study,
                  "pde.solve_state": pde.solve_state}


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets())
def test_trace_target_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{module_name}.{attr} is gone ({span})"


def _workload_calls():
    """(called name, package module, positional count, keyword names) of
    each call of a package module's attribute, such as ``fem.P0Field(...)``
    or ``ocmesh.barycenters(...)``."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ocfem":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"ocfem.{alias.name}"
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                isinstance(node.func.value, ast.Name) and \
                node.func.value.id in modules:
            calls.append((f"{node.func.value.id}.{node.func.attr}",
                          modules[node.func.value.id], len(node.args),
                          sorted(k.arg for k in node.keywords)))
    return calls


def _keyword_calls():
    return [(name, positional, keywords)
            for name, _, positional, keywords in _workload_calls()
            if name in KEYWORD_CALLED]


def test_workloads_call_both_functions():
    assert {name for name, _, _ in _keyword_calls()} == set(KEYWORD_CALLED)


@pytest.mark.parametrize("name, positional, keywords", _keyword_calls())
def test_workload_call_binds(name, positional, keywords):
    assert keywords, f"{name} is called without keywords"
    inspect.signature(KEYWORD_CALLED[name]).bind(
        *[None] * positional, **dict.fromkeys(keywords))


@pytest.mark.parametrize("name, module_name, positional, keywords",
                         _workload_calls())
def test_workload_package_call_binds(name, module_name, positional,
                                     keywords):
    function = getattr(importlib.import_module(module_name),
                       name.split(".")[1], None)
    assert callable(function), f"{name} is gone"
    assert None not in keywords, f"{name} is called with **kwargs"
    inspect.signature(function).bind(
        *[None] * positional, **dict.fromkeys(keywords))


def test_solve_state_report_has_traced_counts():
    mesh = build_unit_square_mesh(1)
    _, report = pde.solve_state(get_preset("paper-sec6"), mesh,
                                P0Field.zeros(mesh))
    assert report.iterations > 0
    assert report.damping_events >= 0

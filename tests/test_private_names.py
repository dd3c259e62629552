"""No module of the package reads a private name of another module.

Each module of ``src/ocfem`` is parsed with ``ast``.  A read of
``<module>._name`` through a name bound to an ``ocfem`` module, or an
import ``from .x import _name``, couples a module to another's internals;
dunder names are public protocol and are not counted.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ocfem"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and
                                         name.endswith("__"))


def _is_package(node):
    """Whether an ``ImportFrom`` imports from ``ocfem`` or a submodule."""
    if node.level:
        return node.level == 1
    return node.module == "ocfem" or \
        (node.module or "").startswith("ocfem.")


def private_reads(source):
    """Each read of another package module's private name, as text."""
    tree = ast.parse(source)
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package(node):
            for alias in node.names:
                if _private(alias.name):
                    reads.append(f"from {'.' * node.level}"
                                 f"{node.module or ''} import {alias.name}")
                elif node.module in (None, "ocfem"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ocfem.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in modules and _private(node.attr):
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_reads_no_private_name_of_another(path):
    assert private_reads(path.read_text()) == []


def test_detector_finds_both_kinds():
    source = ("from . import fem, optimizer as opt\n"
              "from .mesh import Mesh, _edge_keys\n"
              "import ocfem.pde as pde\n"
              "x = fem._as_quad_values(m, f) + opt._CG_TOL + pde._w\n"
              "y = fem.at_points(f, p), fem.__name__, self._cache\n")
    assert sorted(private_reads(source)) == sorted([
        "from .mesh import _edge_keys", "fem._as_quad_values",
        "opt._CG_TOL", "pde._w"])

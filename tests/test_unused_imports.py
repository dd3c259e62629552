"""No module of the package imports a name it never uses.

Each module of ``src/ocfem`` is parsed with ``ast``.  Every name an
``import`` binds must be read somewhere in the module; ``from __future__``
imports bind nothing.  The package's ``__init__`` imports to re-export and
is not checked.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ocfem"


def unused_imports(source):
    """The names bound by an import of ``source`` and never read, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(
    path for path in SRC.glob("*.py") if path.name != "__init__.py"),
    ids=lambda path: path.name)
def test_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text()) == []


def test_detector_finds_every_kind():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import scipy.sparse\n"
              "import os.path\n"
              "from . import fem, pde\n"
              "from .errors import MeshError, OcfemError as Base\n"
              "def f(x: np.ndarray) -> float:\n"
              "    return scipy.sparse.eye(2), fem.at_points\n"
              "class E(Base):\n"
              "    pass\n")
    assert unused_imports(source) == ["MeshError", "os", "pde"]

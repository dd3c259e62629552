"""No module of the package but ``cli`` does I/O.

Each module of ``src/ocfem`` other than ``cli.py`` is parsed with ``ast``.
A call of ``open``, ``print`` or ``input``, a call of a method named
``write``, ``writelines``, ``write_text`` or ``write_bytes``, or a read of
``sys.stdout``, ``sys.stderr`` or ``sys.stdin`` is I/O; ``cli`` owns the
files and streams the program reads and writes, and their formats.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ocfem"

_BUILTINS = {"open", "print", "input"}
_METHODS = {"write", "writelines", "write_text", "write_bytes"}
_STREAMS = {"stdout", "stderr", "stdin"}


def io_uses(source):
    """Each I/O use in ``source``, as ``"<line>: <name>"``."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _BUILTINS:
                uses.append((node.lineno, func.id))
            elif isinstance(func, ast.Attribute) and func.attr in _METHODS:
                uses.append((node.lineno, f".{func.attr}"))
        elif isinstance(node, ast.Attribute) and node.attr in _STREAMS and \
                isinstance(node.value, ast.Name) and node.value.id == "sys":
            uses.append((node.lineno, f"sys.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            uses.extend((node.lineno, f"sys.{alias.name}")
                        for alias in node.names if alias.name in _STREAMS)
    return [f"{line}: {name}" for line, name in sorted(uses)]


@pytest.mark.parametrize(
    "path", sorted(path for path in SRC.glob("*.py") if path.name != "cli.py"),
    ids=lambda path: path.name)
def test_module_does_no_io(path):
    assert io_uses(path.read_text()) == []


def test_detector_finds_each_kind():
    source = ("import sys\n"
              "from sys import stderr, argv\n"
              "with open(p) as f: f.read()\n"
              "print(x); input()\n"
              "stream.write(s); h.writelines(lines)\n"
              "path.write_text(t); path.write_bytes(b)\n"
              "out = sys.stdout; sys.stderr.flush(); sys.stdin\n"
              "x = sys.argv, rewrite(s), self.writer, opened(p)\n")
    assert io_uses(source) == [
        "2: sys.stderr", "3: open", "4: input", "4: print", "5: .write",
        "5: .writelines", "6: .write_bytes", "6: .write_text",
        "7: sys.stderr", "7: sys.stdin", "7: sys.stdout"]

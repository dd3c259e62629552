"""Every name the package exports has a user outside the tests.

Each non-module name of ``ocfem.__all__`` must be read somewhere in
``src/ocfem`` outside its own top-level definition, or be named in
``bench/``: read as a name or an attribute, or spelled in a string
constant, as the trace targets of ``bench/tracing.py`` are.  The package's
``__init__`` imports to re-export and is not counted.
"""
import ast
import inspect
from pathlib import Path

import ocfem

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ocfem"
BENCH = ROOT / "bench"


def _reads(node):
    """Names read in ``node``: names, attributes and dotted strings."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(sub.value.split("."))
    return found


def src_reads(source):
    """Names read in a package module, each outside its own top-level
    definition."""
    reads = set()
    for node in ast.parse(source).body:
        reads |= _reads(node) - {getattr(node, "name", None)}
    return reads


def unused_exports(exports, src_sources, bench_sources):
    """The ``exports`` no package module reads outside their own
    definition and no benchmark source names, sorted."""
    used = set()
    for source in src_sources:
        used.update(src_reads(source))
    for source in bench_sources:
        used.update(_reads(ast.parse(source)))
    return sorted(set(exports) - used)


def test_every_export_has_a_user_outside_the_tests():
    exports = [name for name in ocfem.__all__
               if not inspect.ismodule(getattr(ocfem, name))]
    src = [path.read_text() for path in sorted(SRC.glob("*.py"))
           if path.name != "__init__.py"]
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert unused_exports(exports, src, bench) == []


def test_detector_counts_only_reads_outside_the_definition():
    module = ("def helper(x):\n"
              "    return helper(x - 1) if x else used(x)\n"
              "def used(x):\n"
              "    return x\n"
              "class Tool:\n"
              "    def copy(self):\n"
              "        return Tool()\n"
              "def run():\n"
              "    return fem.by_attribute()\n"
              "STORED = 1\n"
              "fem.assigned = 2\n")
    bench = ("TARGETS = (('ocfem.linalg', 'Traced.solve', 'linalg.x'),)\n"
             "from ocfem import benched\n"
             "benched_value = benched(1)\n")
    exports = ["helper", "used", "Tool", "by_attribute", "Traced",
               "benched", "STORED", "assigned", "unknown"]
    assert unused_exports(exports, [module], [bench]) == \
        ["STORED", "Tool", "assigned", "helper", "unknown"]

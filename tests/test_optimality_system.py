"""The optimality system is stated once.

The box [alpha, beta] reaches ``src/ocfem/optimizer.py`` only through
``ProblemSpec.clamp``: the module reads no ``.alpha`` or ``.beta``
attribute, so its active set is the one the projection formula makes.  The
tracking term has one form: no module of ``src/ocfem`` compares
``objective``, ``objective_dy`` or ``objective_dyy`` with None.  Each
module is parsed with ``ast``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ocfem"
TRACKING = {"objective", "objective_dy", "objective_dyy"}


def box_reads(source):
    """Line numbers of the reads of an ``alpha`` or ``beta`` attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and node.attr in ("alpha", "beta")]


def _name(node):
    return getattr(node, "attr", None) or getattr(node, "id", None)


def tracking_none_tests(source):
    """Line numbers of comparisons of a tracking callable with None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_name(op) in TRACKING for op in operands) and \
                    any(isinstance(op, ast.Constant) and op.value is None
                        for op in operands):
                found.append(node.lineno)
    return found


def test_optimizer_reads_the_box_only_through_clamp():
    assert box_reads((SRC / "optimizer.py").read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_tracking_term_is_never_compared_with_none(path):
    assert tracking_none_tests(path.read_text()) == []


def test_detectors_find_what_they_forbid():
    source = ("q = problem.mean / spec.nu\n"
              "low = q < spec.alpha\n"
              "high = q > self.spec.beta\n"
              "alpha = rz / php\n"
              "if spec.objective_dy is None:\n"
              "    pass\n"
              "d2l = 0.0 if None == objective_dyy else 1.0\n"
              "ok = spec.objective is spec.objective_dy\n")
    assert box_reads(source) == [2, 3]
    assert tracking_none_tests(source) == [5, 7]

"""Spans recorded from outside the solver, and the per-layer metrics.

The tracer wraps public functions of the ``ocfem`` layers at every place a
caller looks them up: the defining module, every ``ocfem`` module that
imported the same function object by name, and the class for methods.
Nothing in ``src/`` is edited.  Each span records its name, start, end,
parent span and the benchmark operation it belongs to; spans stay in
memory until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import weakref
from time import perf_counter

# (module, attribute or Class.method, span name).  The span name is the
# layer followed by the function name.  A target missing from a later
# version of the package is skipped and its metrics read 0.
TARGETS = (
    ("ocfem.mesh", "refine", "mesh.refine"),
    ("ocfem.mesh", "locate", "mesh.locate"),
    ("ocfem.fem", "quadrature_points", "fem.quadrature_points"),
    ("ocfem.fem", "assemble_stiffness", "fem.assemble_stiffness"),
    ("ocfem.fem", "assemble_weighted_mass", "fem.assemble_weighted_mass"),
    ("ocfem.fem", "assemble_volume_load", "fem.assemble_volume_load"),
    ("ocfem.fem", "assemble_boundary_load", "fem.assemble_boundary_load"),
    ("ocfem.fem", "p0_weighted_p1_load", "fem.p0_weighted_p1_load"),
    ("ocfem.fem", "elementwise_p1_product_mean", "fem.product_mean"),
    ("ocfem.fem", "l2_diff_p0_cross", "fem.l2_diff_p0_cross"),
    ("ocfem.fem", "l2_diff_p1_cross", "fem.l2_diff_p1_cross"),
    ("ocfem.fem", "prolong_p0", "fem.prolong_p0"),
    ("ocfem.fem", "prolong_p1", "fem.prolong_p1"),
    ("ocfem.linalg", "SparseSymOperator.__init__", "linalg.operator_build"),
    ("ocfem.linalg", "SparseSymOperator.solve_spd", "linalg.solve_spd"),
    ("ocfem.pde", "linearized_operator", "pde.linearized_operator"),
    ("ocfem.pde", "solve_state", "pde.solve_state"),
    ("ocfem.pde", "solve_adjoint", "pde.solve_adjoint"),
    ("ocfem.pde", "solve_linearized", "pde.solve_linearized"),
    ("ocfem.pde", "solve_eta", "pde.solve_eta"),
    ("ocfem.optimizer", "solve_ocp", "optimizer.solve_ocp"),
    ("ocfem.optimizer", "cost", "optimizer.cost"),
    ("ocfem.study", "run_study", "study.run_study"),
    ("ocfem.cli", "format_csv_rows", "cli.format_csv_rows"),
)

# Metric groups: time and call count of the outermost spans of each set.
GROUPS = {
    "mesh.refine": {"mesh.refine"},
    "mesh.locate": {"mesh.locate"},
    "fem.quadrature_points": {"fem.quadrature_points"},
    "fem.assembly": {"fem.assemble_stiffness", "fem.assemble_weighted_mass",
                     "fem.assemble_volume_load", "fem.assemble_boundary_load",
                     "fem.p0_weighted_p1_load"},
    "fem.product_mean": {"fem.product_mean"},
    "fem.cross_norms": {"fem.l2_diff_p0_cross", "fem.l2_diff_p1_cross",
                        "fem.prolong_p0", "fem.prolong_p1"},
    "linalg.operator_build": {"linalg.operator_build"},
    "pde.linearized_operator": {"pde.linearized_operator"},
    "pde.solve_state": {"pde.solve_state"},
    "pde.adjoint": {"pde.solve_adjoint"},
    "pde.linearized": {"pde.solve_linearized"},
    "pde.eta": {"pde.solve_eta"},
    "optimizer.solve_ocp": {"optimizer.solve_ocp"},
    "optimizer.cost": {"optimizer.cost"},
    "study.run_study": {"study.run_study"},
    "cli.format_csv_rows": {"cli.format_csv_rows"},
}

LAYERS = ("mesh", "fem", "linalg", "pde", "optimizer", "study", "cli")

# Per-layer metric names with unit and direction, in report order.  The
# traced run's own wall time is added by the caller.
METRICS = (
    [("mesh.refine_s", "s", "lower"), ("mesh.refine_calls", "count", "lower"),
     ("mesh.locate_s", "s", "lower"), ("mesh.locate_calls", "count", "lower"),
     ("fem.quadrature_points_s", "s", "lower"),
     ("fem.quadrature_points_calls", "count", "lower"),
     ("fem.assembly_s", "s", "lower"),
     ("fem.assembly_calls", "count", "lower"),
     ("fem.product_mean_s", "s", "lower"),
     ("fem.product_mean_calls", "count", "lower"),
     ("fem.cross_norms_s", "s", "lower"),
     ("fem.cross_norms_calls", "count", "lower"),
     ("linalg.first_solve_s", "s", "lower"),
     ("linalg.repeat_solve_s", "s", "lower"),
     ("linalg.solve_max_s", "s", "lower"),
     ("linalg.solves", "count", "lower"),
     ("linalg.factorizations", "count", "lower"),
     ("linalg.solves_per_factorization", "ratio", "higher"),
     ("linalg.operator_build_s", "s", "lower"),
     ("linalg.operator_build_calls", "count", "lower"),
     ("pde.solve_state_s", "s", "lower"),
     ("pde.solve_state_self_s", "s", "lower"),
     ("pde.solve_state_calls", "count", "lower"),
     ("pde.newton_iterations", "count", "lower"),
     ("pde.damping_events", "count", "lower"),
     ("pde.linearized_operator_s", "s", "lower"),
     ("pde.linearized_operator_calls", "count", "lower"),
     ("pde.adjoint_s", "s", "lower"), ("pde.adjoint_calls", "count", "lower"),
     ("pde.linearized_s", "s", "lower"),
     ("pde.linearized_calls", "count", "lower"),
     ("pde.eta_s", "s", "lower"), ("pde.eta_calls", "count", "lower"),
     ("optimizer.solve_ocp_s", "s", "lower"),
     ("optimizer.solve_ocp_self_s", "s", "lower"),
     ("optimizer.outer_iterations", "count", "lower"),
     ("optimizer.hessvecs", "count", "lower"),
     ("optimizer.cost_s", "s", "lower"),
     ("study.run_study_s", "s", "lower"), ("study.tabulate_s", "s", "lower"),
     ("cli.format_csv_rows_s", "s", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
)

COUNT_METRICS = frozenset(name for name, unit, _ in METRICS
                          if unit in ("count", "ratio"))


def _report_attrs(result):
    """Newton counts from the ``(state, SolveReport)`` pair of solve_state."""
    report = result[1] if isinstance(result, tuple) and len(result) > 1 \
        else None
    return {"newton_iterations": getattr(report, "iterations", 0),
            "damping_events": getattr(report, "damping_events", 0)}


def _solution_attrs(result):
    return {"outer_iterations": getattr(result, "outer_iterations", 0)}


RESULT_ATTRS = {
    "pde.solve_state": _report_attrs,
    "optimizer.solve_ocp": _solution_attrs,
}


class Tracer:
    """Records spans while installed; a context manager that restores every
    patched name on exit.

    ``op`` is the identifier of the benchmark operation in progress and is
    stamped on each new span.  ``suspended()`` lets the benchmark's own
    output checks call the same functions without recording them.
    """

    def __init__(self):
        # Span: [name, start, end, parent index or -1, op, attrs or None]
        self.spans = []
        self.op = None
        self._stack = []
        self._paused = 0
        self._patches = []
        self._solved = weakref.WeakSet()

    def __enter__(self):
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name, None)
                original = getattr(owner, meth, None) if owner else None
                if original is None:
                    continue
                self._patch(owner, meth, self._wrap(span_name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "ocfem"
                                       or name.startswith("ocfem.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        return False

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    @contextlib.contextmanager
    def suspended(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, span_name, fn):
        tracer = self
        attrs_of = RESULT_ATTRS.get(span_name)
        is_solve = span_name == "linalg.solve_spd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            attrs = None
            if is_solve:
                first = args[0] not in tracer._solved
                tracer._solved.add(args[0])
                attrs = {"first": first}
            span = [span_name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, attrs]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(result)
            return result
        return wrapper


def layer_metrics(spans, first, last) -> dict:
    """Per-layer metrics of ``spans[first:last]``, the spans of one pass."""
    idx = range(first, last)
    names = {i: spans[i][0] for i in idx}
    dur = {i: spans[i][2] - spans[i][1] for i in idx}
    child_time = dict.fromkeys(idx, 0.0)
    for i in idx:
        parent = spans[i][3]
        if parent >= first:
            child_time[parent] += dur[i]

    def ancestors(i):
        parent = spans[i][3]
        while parent >= first:
            yield parent
            parent = spans[parent][3]

    out = {}
    for group, members in GROUPS.items():
        top = [i for i in idx if names[i] in members
               and not any(names[a] in members for a in ancestors(i))]
        out[group + "_s"] = sum(dur[i] for i in top)
        out[group + "_calls"] = len(top)

    solves = [i for i in idx if names[i] == "linalg.solve_spd"]
    firsts = [i for i in solves if spans[i][5]["first"]]
    out["linalg.first_solve_s"] = sum(dur[i] for i in firsts)
    out["linalg.repeat_solve_s"] = sum(dur[i] for i in solves) \
        - out["linalg.first_solve_s"]
    out["linalg.solve_max_s"] = max((dur[i] for i in solves), default=0.0)
    out["linalg.solves"] = len(solves)
    out["linalg.factorizations"] = len(firsts)
    out["linalg.solves_per_factorization"] = (
        len(solves) / len(firsts) if firsts else 0.0)

    # Spans of calls that raised carry no attributes.
    states = [i for i in idx if names[i] == "pde.solve_state"]
    reported = [i for i in states if spans[i][5]]
    out["pde.solve_state_self_s"] = sum(dur[i] - child_time[i]
                                        for i in states)
    out["pde.newton_iterations"] = sum(
        spans[i][5]["newton_iterations"] for i in reported)
    out["pde.damping_events"] = sum(
        spans[i][5]["damping_events"] for i in reported)

    ocps = [i for i in idx if names[i] == "optimizer.solve_ocp"]
    reported = [i for i in ocps if spans[i][5]]
    out["optimizer.solve_ocp_self_s"] = sum(dur[i] - child_time[i]
                                            for i in ocps)
    out["optimizer.outer_iterations"] = sum(
        spans[i][5]["outer_iterations"] for i in reported)
    out["optimizer.hessvecs"] = sum(
        1 for i in idx if names[i] == "pde.solve_eta"
        and any(names[a] == "optimizer.solve_ocp" for a in ancestors(i)))

    in_ocp = sum(dur[i] for i in ocps
                 if any(names[a] == "study.run_study" for a in ancestors(i)))
    out["study.tabulate_s"] = out["study.run_study_s"] - in_ocp

    for layer in LAYERS:
        out[layer + ".self_s"] = sum(dur[i] - child_time[i] for i in idx
                                     if names[i].split(".")[0] == layer)
    return {name: float(out[name]) if unit == "s" else out[name]
            for name, unit, _ in METRICS}


def median_metrics(per_pass) -> dict:
    """Times as the median over passes; counts from the first pass, since
    they repeat exactly for the same inputs."""
    return {name: (per_pass[0][name] if name in COUNT_METRICS
                   else statistics.median(p[name] for p in per_pass))
            for name in per_pass[0]}

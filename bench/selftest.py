"""Self-test of the benchmark on shrunken workloads.

    python3 bench/selftest.py

For every workload at its small size (paper-table on levels 2..5,
state-l8 on level 4 with 2 controls, nu-sweep on levels 1..4 with 3
draws) it checks that:

* traced and untraced runs give identical outputs;
* every count metric (Newton and outer iterations, Hessian-vector
  products, factorizations, solves, calls) repeats exactly across two
  traced runs;
* a forced output-check failure is counted in ``ops_failed``.

It also checks that the seeded generators are deterministic, and that the
full-size paper-table check accepts the committed seed table and rejects a
perturbed copy.  Exits 0 when every check holds.
"""
from __future__ import annotations

import sys

import worker

worker.cap_threads()
worker.import_ocfem()

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _small(name, trace, tamper=False):
    return worker.run(name, SEED, 0.0, trace, size="small", tamper=tamper)


def check_workload(name):
    failures = []
    plain = _small(name, False)
    traced = _small(name, True)
    again = _small(name, True)
    if plain["ops_failed"]:
        failures.append(f"{name}: {plain['ops_failed']} ops failed")
    if plain["outputs"] != traced["outputs"]:
        failures.append(f"{name}: traced output differs from untraced")
    for metric in sorted(tracing.COUNT_METRICS):
        if traced["layers"][metric] != again["layers"][metric]:
            failures.append(f"{name}: {metric} differs between traced runs "
                            f"({traced['layers'][metric]} vs "
                            f"{again['layers'][metric]})")
    tampered = _small(name, False, tamper=True)
    if tampered["ops_failed"] < 1:
        failures.append(f"{name}: forced check failure was not counted")
    if tampered["ops"] != plain["ops"]:
        failures.append(f"{name}: forced failure changed the op count")
    counts = {k: traced["layers"][k] for k in (
        "pde.newton_iterations", "optimizer.outer_iterations",
        "optimizer.hessvecs", "linalg.factorizations", "linalg.solves")}
    print(f"{name}: ops={plain['ops']} failed_when_forced="
          f"{tampered['ops_failed']} counts={counts}")
    return failures


def check_generators():
    failures = []
    a = inputs.parameter_draws(inputs.rng_for(SEED, "nu-sweep"), 8)
    b = inputs.parameter_draws(inputs.rng_for(SEED, "nu-sweep"), 8)
    c = inputs.parameter_draws(inputs.rng_for(SEED + 1, "nu-sweep"), 8)
    if a != b or a == c:
        failures.append("nu-sweep draws are not a function of the seed")
    for d in a:
        if not (inputs.NU_RANGE[0] <= d["nu"] <= inputs.NU_RANGE[1]
                and inputs.ALPHA_RANGE[0] <= d["alpha"]
                <= inputs.ALPHA_RANGE[1]
                and inputs.BETA_RANGE[0] <= d["beta"] <= inputs.BETA_RANGE[1]):
            failures.append(f"draw outside its box: {d}")
    s1 = workloads.StateL8(SEED, "small").info["inputs_digest"]
    s2 = workloads.StateL8(SEED, "small").info["inputs_digest"]
    s3 = workloads.StateL8(SEED + 1, "small").info["inputs_digest"]
    if s1 != s2 or s1 == s3:
        failures.append("state-l8 controls are not a function of the seed")
    return failures


def check_table_reference():
    table = workloads.PaperTable(SEED, "full")
    failures = []
    if table.check(table.reference):
        failures.append("paper-table check rejects the reference itself")
    lines = table.reference.splitlines()
    cells = lines[3].split(",")
    cells[4] = f"{float(cells[4]) * (1 + 1e-4):.6e}"     # e_y of level 5
    lines[3] = ",".join(cells)
    if table.check("\n".join(lines) + "\n") != {5}:
        failures.append("paper-table check misses a perturbed e_y")
    return failures


def main():
    failures = check_generators() + check_table_reference()
    for name in workloads.WORKLOADS:
        failures += check_workload(name)
    for line in failures:
        print("FAIL " + line)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the ocfem solver: one workload, one seed, one result line.

    python3 bench/run.py --workload paper-table|state-l8|nu-sweep \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/ocfem``.  The workload
runs in a fresh worker process (``worker.py``) with every thread cap set
to 1, so its set-up time and memory are its own.  With ``--trace 0`` the
set-up is also repeated in separate probe processes and ``setup_s`` is
the median of all set-ups.  With ``--trace 1`` the worker
records spans around the public functions of every layer and the result
holds the per-layer metrics instead.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs the three workloads in turn, each printing its own
block and result line.  The full record (environment, operations, and
spans when traced) is written to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("paper-table", "state-l8", "nu-sweep")
# Set-up probes per untraced run, on top of the worker's own set-up.
SETUP_PROBES = 6
# A run must end well inside three minutes, probes included.
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("slowest_op_s", "s"),
              ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    """The caller's environment without PYTHONPATH; the worker finds
    ``ocfem`` under ``src/`` of this checkout and caps its own threads."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def run_child(argv, env, deadline) -> dict:
    """Run the worker with ``argv`` and return its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the worker started")
    try:
        proc = subprocess.run([sys.executable, WORKER] + argv, env=env,
                              cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time budget: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {argv}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result: {argv}")
    return json.loads(lines[-1])


def environment(args, workload, result) -> dict:
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "thread_caps": result["thread_caps"],
        "git_commit": git_commit(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result["versions"],
        "sizes": result["info"],
    }


def layer_metric_specs():
    sys.path.insert(0, HERE)
    import tracing
    return list(tracing.METRICS) + [("traced_wall_s", "s", "lower")]


def run_workload(args, workload) -> int:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    common = ["--workload", workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = run_child(common + ["--setup-only"], env, deadline)
                setups.append(probe["setup_s"])
        result = run_child(common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)],
                           env, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        specs = layer_metric_specs()
        values = dict(result["layers"], traced_wall_s=result["wall_s"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in specs}
    else:
        values = dict(result, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    record = {"environment": environment(args, workload, result),
              "setup_samples_s": setups, "result": result}
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}"
                                f"-trace{args.trace}.json")
    with open(out, "w") as handle:
        json.dump(record, handle)

    print("environment " + json.dumps(record["environment"]))
    print(f"passes {result['passes']}  outputs {result['outputs']}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'ops':34s} {result['ops']} count")
    print(f"{'ops_failed':34s} {result['ops_failed']} count")
    print(json.dumps({"correct": result["ops_failed"] == 0,
                      "attempted": result["ops"],
                      "failed": result["ops_failed"],
                      "metrics": metrics}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ocfem benchmark: one workload (or all), one seed")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ocfem", "__init__.py")):
        print(f"error: no ocfem sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(args, name) for name in names)


if __name__ == "__main__":
    sys.exit(main())

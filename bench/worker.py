"""One workload in one fresh process; started by ``run.py``.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

The thread caps are set before numpy is imported.  Set-up (importing
``ocfem`` and building the preset and the generated inputs) is timed from
the first statement of this file.  Then whole passes run while the next
one is expected to end within ``--seconds`` (always at least one).  The
last line of standard output is one JSON object.
"""
from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "OCFEM_THREADS")


def cap_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_ocfem():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import ocfem
    where = os.path.realpath(os.path.dirname(ocfem.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"ocfem imported from {where}, not from {SRC}")
    return ocfem


def build(name, seed, size="full", tracer=None, tamper=False):
    import workloads
    return workloads.WORKLOADS[name](seed, size, tracer=tracer,
                                     tamper=tamper)


def run(name, seed, seconds, trace, size="full", tamper=False, start=None):
    """Set up and run one workload in this process; return the result dict.

    Set-up time is measured from ``start`` (a ``perf_counter`` value),
    by default from the call.
    """
    import tracing
    start = perf_counter() if start is None else start
    tracer = tracing.Tracer() if trace else None
    wl = build(name, seed, size, tracer=tracer, tamper=tamper)
    setup_s = perf_counter() - start

    walls, slowest, ops, digests, per_pass = [], [], [], [], []
    with (tracer if tracer is not None else contextlib.nullcontext()):
        begin = perf_counter()
        while True:
            first_span = len(tracer.spans) if tracer else 0
            t0 = perf_counter()
            pass_ops, digest = wl.run_pass()
            walls.append(perf_counter() - t0)
            slowest.append(max(op[1] for op in pass_ops))
            ops += pass_ops
            digests.append(digest)
            if tracer is not None:
                tracer.op = None
                per_pass.append(tracing.layer_metrics(
                    tracer.spans, first_span, len(tracer.spans)))
            elapsed = perf_counter() - begin
            if elapsed + statistics.median(walls) > seconds:
                break
    result = {
        "workload": name,
        "seed": seed,
        "size": size,
        "setup_s": setup_s,
        "passes": len(walls),
        "pass_wall_s": walls,
        "wall_s": statistics.median(walls),
        "slowest_op_s": statistics.median(slowest),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": len(ops),
        "ops_failed": sum(1 for op in ops if not op[2]),
        "op_seconds": [[op[0], op[1], op[2]] for op in ops],
        "outputs": digests,
        "info": wl.info,
    }
    if tracer is not None:
        result["layers"] = tracing.median_metrics(per_pass)
        result["layers_per_pass"] = per_pass
        result["spans"] = tracer.spans
    return result


def versions():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cap_threads()
    import_ocfem()
    if args.setup_only:
        build(args.workload, args.seed)
        print(json.dumps({"setup_s": perf_counter() - _T0}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 start=_T0)
    result["versions"] = versions()
    result["thread_caps"] = {var: os.environ[var] for var in THREAD_VARS}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

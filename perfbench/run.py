"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` installs the
per-layer wrappers for a separate traced pass and prints the per-layer
metrics.  The line before the result is a JSON record with the environment
stamp, the workload properties and every check; the same record, and the
spans of a traced run, are written under ``.perfbench-cache/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ("train", "serve_cold", "serve_sessions")

#: End-to-end metrics and units, in ``BENCHMARK.json`` order.  ``p99_ms`` is
#: measured and kept in the run record but not gated: on a shared 2-core box
#: its run-to-run spread is wider than any bound a metric may have.
END_TO_END = {
    "setup_s": "s", "fit_s": "s", "eval_examples_per_s": "1/s", "ndcg_at_10": "ratio",
    "p50_ms": "ms", "sustained_rps": "1/s", "cpu_ms_per_req": "ms", "peak_rss_mb": "MB",
}


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, read through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return str(function())
    return "unknown"


def commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                            text=True, timeout=30, check=False)
    return result.stdout.strip() or "unknown"


def environment(root: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(), "commit": commit(root), "seed": seed,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true",
                        help="only put the served bundle into the store (a serving run does "
                             "this in a child process first)")
    args = parser.parse_args(argv)
    if not args.prepare and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    # One BLAS thread: the program's matrices are small, and spinning BLAS
    # workers beside the generator made CPU time and latency tails noisy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [root, os.path.join(root, "src")]
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {root}/src: {error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from perfbench import layers, workloads
    from perfbench.tracing import Tracer

    if args.prepare:
        workloads.load_bundle(require_warm=False)
        return 0

    tracer = Tracer() if args.trace else None
    if args.workload == "train":
        outcome = workloads.run_train(args.seed, args.seconds, tracer)
    else:
        outcome = workloads.run_serving(args.workload, args.seed, args.seconds, tracer)

    units = layers.PER_LAYER_METRICS if args.trace else END_TO_END
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    correct = outcome.correct and outcome.failed == 0
    record = {
        "workload": args.workload, "trace": args.trace, "environment": environment(root, args.seed),
        "checks": outcome.checks, "properties": outcome.report,
        "all_metrics": outcome.metrics,
    }
    out_dir = os.path.join(workloads.cache_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    if tracer is not None:
        trace_dir = os.path.join(workloads.cache_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, stem + ".jsonl"))
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": correct, "attempted": int(outcome.attempted),
                      "failed": int(outcome.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

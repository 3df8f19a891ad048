"""One benchmark client in a fresh process: set-up, timed operations, checks.

``run.py`` starts this script with BLAS pinned to one thread and passes the
moment it launched it, so the set-up time covers interpreter start, imports,
config validation, golden loading, dump writing and a warm-up operation at
the golden seed. With ``--setup-only`` the process stops there. Otherwise it
runs operations ``client``, ``client + clients``, ... until ``--seconds``
have passed and prints one JSON line with the operation times, the counts of
points attempted and failed, the peak RSS, the environment and, with
``--trace 1``, the per-layer figures of each operation.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import pipeline

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
GOLDENS_PATH = Path(__file__).with_name("goldens.json")
GOLDEN_SEED = 0
GOLDEN_RTOL = 1e-9
# Operation i of a run with benchmark seed n uses simulation seed
# n * SEED_STRIDE + i, so seed 0 runs the trials `subthzrx simulate --seed 0`
# runs, and those are the ones the goldens record.
SEED_STRIDE = 100_000
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def op_seed(bench_seed: int, index: int) -> int:
    return bench_seed * SEED_STRIDE + index


def jobs() -> int:
    """Sweep workers: two, but never more than the cores this process may use."""
    return min(2, len(os.sched_getaffinity(0)))


def load_goldens(name: str) -> list:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                func = getattr(handle, symbol)
                func.argtypes, func.restype = [], ctypes.c_int
                return func()
    return None


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "sweep_jobs": jobs(),
    }


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def layer_figures(tracer: pipeline.Tracer, counters: dict[int, dict],
                  untraced_s: dict[int, float]) -> list[dict]:
    """Per-layer self times and counters of each traced operation."""
    per_op = {op: dict.fromkeys((f"{name}_s" for name in pipeline.LAYER_SPANS), 0.0)
              for op in counters}
    for record, self_s in zip(tracer.spans, tracer.self_times()):
        figures = per_op.get(record["op"])
        if figures is None:
            continue
        if record["name"] in pipeline.LAYER_SPANS:
            figures[f"{record['name']}_s"] += self_s
        if record["parent"] is None:
            figures["trace.overhead_s"] = (record["end"] - record["start"]
                                           - untraced_s[record["op"]])
    for op, figures in per_op.items():
        figures.update(counters[op])
    return list(per_op.values())


def measure(workload, args, goldens: list, tracer: pipeline.Tracer) -> dict:
    attempted = failed = 0
    op_s: list[float] = []
    iteration_s: list[float] = []
    counters: dict[int, dict] = {}
    untraced_s: dict[int, float] = {}
    deadline = time.perf_counter() + args.seconds
    index = args.client
    while True:
        seed = op_seed(args.seed, index)
        golden = goldens[index] if args.seed == GOLDEN_SEED and index < len(goldens) else None
        started = time.perf_counter()
        try:
            value = workload.run(seed)
            bad = workload.failures(value, golden, GOLDEN_RTOL)
        except Exception:
            traceback.print_exc()
            value, bad = None, workload.points
        op_s.append(time.perf_counter() - started)
        attempted += workload.points
        if args.trace and value is not None:
            try:
                counters[index] = workload.trace(tracer, index, seed, value)
                untraced_s[index] = op_s[-1]
            except Exception:
                traceback.print_exc()
                bad = workload.points
        failed += bad
        iteration_s.append(time.perf_counter() - started)
        index += args.clients
        if time.perf_counter() + statistics.median(iteration_s) > deadline:
            break

    if not args.trace and value is not None:
        # The invariants and the traced-equals-untraced check, on the last
        # operation of an untimed run.
        try:
            workload.trace(pipeline.Tracer(), index - args.clients, seed, value)
        except Exception:
            traceback.print_exc()
            failed += workload.points
    result = {"attempted": attempted, "failed": failed, "op_s": op_s,
              "trials_per_op": workload.trials_per_op, "peak_rss_mb": peak_rss_mib()}
    if args.trace:
        result["layers"] = layer_figures(tracer, counters, untraced_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=pipeline.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent launched this process")
    parser.add_argument("--client", type=int, default=0)
    parser.add_argument("--clients", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        workload = pipeline.make_workload(args.workload, tmp, jobs())
        goldens = load_goldens(args.workload)
        warm = workload.run(op_seed(GOLDEN_SEED, 0))
        warm_failed = workload.failures(warm, goldens[0], GOLDEN_RTOL)
        setup_s = time.monotonic() - args.started
        result = {"setup_s": setup_s, "attempted": workload.points, "failed": warm_failed}
        if not args.setup_only:
            tracer = pipeline.Tracer()
            measured = measure(workload, args, goldens, tracer)
            result["attempted"] += measured.pop("attempted")
            result["failed"] += measured.pop("failed")
            result.update(measured, env=environment())
            if args.trace:
                spans = [dict(record, self_s=self_s)
                         for record, self_s in zip(tracer.spans, tracer.self_times())]
                trace_path = SCRATCH / (f"trace-{args.workload}-seed{args.seed}"
                                        f"-client{args.client}.json")
                trace_path.write_text(json.dumps({"spans": spans}) + "\n", encoding="utf-8")
                result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory. Every process runs with BLAS pinned to one thread. A trial
workload runs two closed-loop clients, one per core (one on a single-core
machine); the sweep runs one, since its own pool already fills two cores.
With ``--trace 0``, set-up-only processes run first, so that ``setup_s`` is
the median of at least three set-ups. With ``--trace 1`` the clients also
run every operation through the traced pipeline.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and a readable summary. Metric names and units come
from ``BENCHMARK.json``; README.md in this directory explains them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170
SIMULATE_TRIALS = 10  # trials in a default `subthzrx simulate` run


def run_batch(args, env: dict, limit: float, clients: int, setup_only: bool) -> list[dict]:
    """Run ``clients`` worker processes at once, each in its own process
    group; kill every group still running at ``limit``."""
    procs = []
    for client in range(clients):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--client", str(client), "--clients", str(clients),
               "--started", repr(time.monotonic())]
        if setup_only:
            cmd.append("--setup-only")
        procs.append(subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                      start_new_session=True))
    outputs = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=max(limit - time.monotonic(), 1))
            if proc.returncode != 0 or not out.strip():
                raise RuntimeError(f"{args.workload} worker exited with code {proc.returncode}")
            outputs.append(json.loads(out.splitlines()[-1]))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{args.workload} worker did not finish in time") from None
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
    return outputs


def end_to_end(workload: str, op_s: list[float], trials_per_op: int, setup_s: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    # Means, not medians: the host's speed shifts between levels for tens of
    # seconds at a time, and a run's median jumps to whichever level held
    # most of it (see README.md).
    mean_op = statistics.mean(op_s)
    return {
        "setup_s": statistics.median(setup_s),
        "trial_s": mean_op / trials_per_op,
        # On a trial workload, a default `simulate` run: ten trials back to back.
        "sweep_s": mean_op if workload == "sweep" else SIMULATE_TRIALS * mean_op,
        "peak_rss_mb": peak_rss_mb,
    }


def summary(workload: str, metrics: dict, units: dict, op_s: list[float], trials_per_op: int,
            attempted: int, failed: int) -> str:
    lines = [f"{workload}: {name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    op_s = sorted(op_s)
    n = len(op_s)
    lines.append(f"{workload}: trial_s median = {statistics.median(op_s) / trials_per_op:.6g} s")
    if n > 10:
        # The highest percentile with at least ten samples beyond it.
        tail = op_s[n - 11] / trials_per_op
        lines.append(f"{workload}: trial_s p{100 * (n - 10) / n:.0f} = {tail:.6g} s "
                     f"({n} operations)")
    else:
        lines.append(f"{workload}: {n} operations, too few for a tail percentile")
    lines.append(f"{workload}: fail_frac = {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} points failed)")
    return "\n".join(lines)


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="subthzrx benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subthzrx" / "__init__.py").is_file():
        print(f"no subthzrx package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               **{var: "1" for var in THREAD_VARS})
    limit = time.monotonic() + RUN_LIMIT_S
    clients = 1 if args.workload == "sweep" else min(2, len(os.sched_getaffinity(0)))
    setup_batches = 0 if args.trace else math.ceil(SETUP_SAMPLES / clients) - 1
    try:
        setups = [out for _ in range(setup_batches)
                  for out in run_batch(args, env, limit, clients, setup_only=True)]
        measured = run_batch(args, env, limit, clients, setup_only=False)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    attempted = sum(c["attempted"] for c in setups + measured)
    failed = sum(c["failed"] for c in setups + measured)

    op_s = [t for c in measured for t in c["op_s"]]
    trials_per_op = measured[0]["trials_per_op"]
    if args.trace:
        per_op = [figures for c in measured for figures in c["layers"]]
        unknown = set().union(*per_op) - set(units)
        if unknown:
            print(f"undeclared per-layer figures: {sorted(unknown)}", file=sys.stderr)
            return 2
        # Medians over the traced operations; a layer the workload never
        # calls reads 0.
        metrics = {name: statistics.median(f.get(name, 0.0) for f in per_op) if per_op else 0.0
                   for name in units}
    else:
        metrics = end_to_end(args.workload, op_s, trials_per_op,
                             [c["setup_s"] for c in setups + measured],
                             max(c["peak_rss_mb"] for c in measured))

    print(json.dumps({"env": measured[0]["env"], "workload": args.workload, "seed": args.seed,
                      "clients": clients, "trace_files": [c.get("trace_file") for c in measured]}))
    print(summary(args.workload, metrics, units, op_s, trials_per_op, attempted, failed))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record goldens.json: per-trial SE of each trial workload, and the sweep
table's SE, power and EE columns, for the first operations at the golden seed.

    python3 perfbench/record_goldens.py

Run it from the repository root only on a commit whose numbers are known to
be right; every benchmark run checks against the file it writes.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # the threads the benchmark runs with, set before numpy loads

import pipeline  # noqa: E402
import worker  # noqa: E402

TRIALS = 32   # more than a run at the golden seed measures
SWEEPS = 12


def main() -> int:
    goldens = {}
    for name in pipeline.WORKLOADS:
        count = SWEEPS if name == "sweep" else TRIALS
        worker.SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=worker.SCRATCH) as tmp:
            workload = pipeline.make_workload(name, tmp, worker.jobs())
            goldens[name] = [workload.record(workload.run(worker.op_seed(worker.GOLDEN_SEED, i)))
                             for i in range(count)]
        print(f"{name}: {count} operations recorded", file=sys.stderr)
    worker.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

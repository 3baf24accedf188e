"""PDX search benchmark: one workload, one seed, one closed-loop run.

Run from the repository root::

    python3 perfbench/run.py --workload ivf-glove50 --seed 1 --seconds 10 --trace 0

It generates the workload's inputs from ``--seed``, sets every searcher
up (timed, several times), then runs a closed loop: one client, one
query at a time, every searcher answering each query in a rotating
order, so that all of them see the same machine speed. Spark ``knn``
batches are interleaved. Every result is checked against brute force
after the loop. ``--trace 1`` runs the same loop with every other round
traced and prints the per-layer metrics instead (``tracing.py``).

Timings are reference-scaled: each sample is multiplied by
``REF_MS / ref``, where ``ref`` is the rolling median of a fixed NumPy
loop timed once per round (see NOTES.md). Raw values are printed beside
the scaled ones and kept in the result file under ``perfbench/results/``.
The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_env(root: str) -> None:
    """Paths, thread cap and scratch dirs, set before numpy or Spark load."""
    src = os.path.join(root, "src")
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    sys.path[:0] = [src, HERE]
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    threads = str(min(4, os.cpu_count() or 1))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", threads)
    os.environ.setdefault("OMP_NUM_THREADS", threads)
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = work
    # Every JVM (Spark's launcher, its driver, ``java -version``) writes only here.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={work} -XX:-UsePerfData"
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[4] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    prepare_env(root)
    from bench import run_workload  # imports numpy after the thread cap is set

    result = run_workload(args, root)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    for line in result["table"]:
        print(line)
    print(f"result file: {os.path.relpath(path, root)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark runs, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories (or single files) of result files written by
``run.py`` (``perfbench/results/*.json``); only untraced runs are used.
For every workload x end-to-end metric it prints each side's median and
quartiles, the ratio of medians with its base (NEW / BASE), the share of
seed-matched pairs NEW wins (ties count for neither), and a verdict:

- ``unresolved``  either side's spread (IQR / median) exceeds the metric's
  bound, and NEW does not beat BASE on every run;
- ``regression``  NEW's median is worse than BASE's by more than the bound;
- ``gain``        NEW wins at least 9 in 10 pairs and the medians differ by
  more than BASE's quartile distance;
- ``no change``   otherwise.

Bounds come from ``BENCHMARK.json``. The command only reports: it exits 0
whatever the verdicts.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """``{workload: {seed: end_to_end metrics}}`` of the untraced runs under ``path``."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs: dict = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("trace") == 0:
            runs.setdefault(r["workload"], {})[r["seed"]] = r["end_to_end"]
    return runs


def quartiles(v: list[float]) -> tuple[float, float, float]:
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(base: list[float], new: list[float], wins: float, bound: float, lower: bool) -> str:
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0, (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    all_better = max(new) < min(base) if lower else min(new) > max(base)
    if spread > bound and not all_better:
        return "unresolved"
    worse = (nmed - bmed) / abs(bmed) if lower else (bmed - nmed) / abs(bmed)
    if bmed and worse > bound:
        return "regression"
    if wins >= 0.9 and abs(nmed - bmed) > (bq3 - bq1):
        return "gain"
    return "no change"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':<16}{'metric':<16}{'BASE q1/med/q3':>30}{'NEW q1/med/q3':>30}"
          f"{'NEW/BASE':>10}{'wins':>7}{'bound':>7}  verdict")
    for wl in sorted(set(base) & set(new)):
        seeds = sorted(set(base[wl]) & set(new[wl]))
        for name, m in spec.items():
            b = [r[name]["value"] for r in base[wl].values() if name in r]
            n = [r[name]["value"] for r in new[wl].values() if name in r]
            if not b or not n:
                continue
            lower = m["better"] == "lower"
            pairs = [(base[wl][s][name]["value"], new[wl][s][name]["value"]) for s in seeds]
            won = sum((y < x) if lower else (y > x) for x, y in pairs)
            wins = won / len(pairs) if pairs else float("nan")
            bq, nq = quartiles(b), quartiles(n)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            print(f"{wl:<16}{name:<16}"
                  f"{bq[0]:>10.4g}{bq[1]:>10.4g}{bq[2]:>10.4g}"
                  f"{nq[0]:>10.4g}{nq[1]:>10.4g}{nq[2]:>10.4g}"
                  f"{ratio:>10.4f}{wins:>7.2f}{m['bound']:>7.2f}  "
                  f"{verdict(b, n, wins, m['bound'], lower)}")
    print(f"NEW/BASE is NEW's median over BASE's median (base: BASE, {len(base)} workloads); "
          f"wins counts seed-matched pairs. Units are in BENCHMARK.json.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

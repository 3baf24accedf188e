"""Distance-kernel microbenchmarks — Tables 4 and 5 (§6.2).

Times one query against a whole randomly generated float32 collection —
no KNN, exactly the paper's setup — on the horizontal (N-ary) layout vs
the PDX blocked layout, across dimensionalities and collection sizes,
and aggregates speedups at the paper's granularities (D=8; D=16,32;
D>32; All). Table 5 repeats the L2 measurement across PDX block sizes.

Timings are best-of-``repeat`` wall clock over :data:`CALLS` kernel calls
(timeit discipline); combos whose arrays would not fit comfortably in
memory are skipped (the paper sweeps 64…131 k vectors × 8…8 k dims on
64 GB machines; we cap elements per combo instead).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core import kernels
from repro.core.layout import stack_pdx
from repro.vecdata import random_collection

#: Paper's dimensionalities (§6.2), trimmed to keep bench wall-time sane.
DIMS = [8, 16, 32, 64, 128, 256, 512, 1024, 1536]
SIZES = [4096, 16384, 65536]
MAX_ELEMS = 1 << 24  # skip combos > 16M floats (64 MB per layout copy)
#: Kernel calls per timed repeat.
CALLS = 3
#: The paper's PDX block sizes (Table 5).
BLOCK_SIZES = (16, 32, 64, 128, 256, 512)


def best_time(fn, *, repeat: int = 5) -> float:
    """Best-of-repeat mean seconds per call of ``fn()``."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            fn()
        best = min(best, (time.perf_counter() - t0) / CALLS)
    return best


def kernel_speedups(
    metric: str,
    *,
    dims: list[int] = DIMS,
    sizes: list[int] = SIZES,
    block_size: int = kernels.PDX_BLOCK_SIZE,
    repeat: int = 5,
) -> pd.DataFrame:
    """Per-(dim, n) timings of N-ary vs PDX and their speedup."""
    nary_fn, pdx_fn = kernels.METRICS_NARY[metric], kernels.METRICS_PDX[metric]
    rows = []
    rng = np.random.default_rng(0)
    for dim in dims:
        for n in sizes:
            if n * dim > MAX_ELEMS or n % block_size:
                continue
            data = random_collection(n, dim)
            stacked = stack_pdx(data, block_size)
            query = rng.standard_normal(dim).astype(np.float32)
            t_nary = best_time(lambda: nary_fn(data, query), repeat=repeat)
            t_pdx = best_time(lambda: pdx_fn(stacked, query), repeat=repeat)
            rows.append(
                {
                    "metric": metric,
                    "dim": dim,
                    "n": n,
                    "t_nary_us": t_nary * 1e6,
                    "t_pdx_us": t_pdx * 1e6,
                    "speedup": t_nary / t_pdx,
                }
            )
    return pd.DataFrame(rows)


def _geo_mean(x: pd.Series) -> float:
    return float(np.exp(np.log(x).mean()))


def aggregate_table4(per_combo: pd.DataFrame) -> pd.DataFrame:
    """Collapse per-(metric, dim, n) speedups into the Table 4 buckets."""
    buckets = {
        "D=8": per_combo["dim"] == 8,
        "D=16,32": per_combo["dim"].isin([16, 32]),
        "D>32": per_combo["dim"] > 32,
        "All": per_combo["dim"] > 0,
    }
    out = {}
    for metric in per_combo["metric"].unique():
        sub = per_combo[per_combo["metric"] == metric]
        out[metric] = {
            b: _geo_mean(sub.loc[m[sub.index], "speedup"]) for b, m in buckets.items()
        }
    return pd.DataFrame(out).T[["D=8", "D=16,32", "D>32", "All"]]


def table5_blocksize(
    *,
    dims: list[int] = DIMS,
    sizes: list[int] = SIZES,
    repeat: int = 5,
) -> pd.DataFrame:
    """Average L2 speedup of PDX over N-ary per :data:`BLOCK_SIZES` entry."""
    rows = {}
    for b in BLOCK_SIZES:
        per = kernel_speedups("l2", dims=dims, sizes=sizes, block_size=b, repeat=repeat)
        rows[b] = _geo_mean(per["speedup"])
    return pd.DataFrame({"block_size": list(rows), "speedup": list(rows.values())})

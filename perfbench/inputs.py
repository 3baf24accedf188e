"""Seeded inputs, workload shapes and the brute-force oracle.

Every workload's collection and held-out queries come from one
``np.random.default_rng(seed)`` stream through the repository's own
sampler (``vecdata._sample``), so they are identical in every process.
``vecdata.generate`` is not used: it seeds from ``hash()``, which
Python salts per process.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import vecdata

K = 10
#: Held-out queries per run. The closed loop cycles through them.
POOL = 1024
#: Queries per Spark ``knn`` call, and how many distinct batches cycle.
KNN_BATCH = 10
KNN_BATCHES = 20
#: Leading vectors of every collection lifted into Spark for ``knn``.
SPARK_N = 2048


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # vecdata.DATASETS key
    kind: str  # "ivf" | "exact"
    n: int
    nlist: int = 0
    nprobe: int = 0


WORKLOADS = {
    w.name: w
    for w in [
        # Low D: per-block dispatch, the predicate and top-k merges dominate.
        # ~316 vectors per bucket x nprobe 8 x 50 dims = 0.5 MB per query.
        Workload("ivf-glove50", "glove50", "ivf", n=50_000, nlist=158, nprobe=8),
        # High D: the distance kernels dominate; a few large partitions,
        # each search starting with a whole-partition scan.
        Workload("exact-gist960", "gist960", "exact", n=10_000),
    ]
}


def make_inputs(workload: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(data (n, D), queries (POOL, D))`` float32, a function of the seed only."""
    spec = vecdata.DATASETS[workload.dataset]
    rows = vecdata._sample(spec, workload.n + POOL, np.random.default_rng(seed))
    return rows[: workload.n], rows[workload.n :]


def topk_rows(d2: np.ndarray, ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``d2``, the k smallest distances with ties broken by id."""
    out_ids = np.full((len(d2), k), -1, dtype=np.int64)
    out_d = np.full((len(d2), k), np.inf)
    kk = min(k, d2.shape[1])
    for r, d in enumerate(d2):
        kth = np.partition(d, kk - 1)[kk - 1]
        cand = np.flatnonzero(d <= kth)
        sel = cand[np.lexsort((ids[cand], d[cand]))[:kk]]
        out_ids[r, :kk], out_d[r, :kk] = ids[sel], d[sel]
    return out_ids, out_d


def sq_dists(data: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Float64 squared L2 distances, (len(queries), len(data))."""
    x = data.astype(np.float64)
    q = queries.astype(np.float64)
    return (x * x).sum(1)[None, :] - 2.0 * (q @ x.T) + (q * q).sum(1)[:, None]


def oracle(data: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-K ``(ids, dists)`` of every query, computed in chunks of 128 queries."""
    ids = np.arange(len(data), dtype=np.int64)
    parts = [
        topk_rows(sq_dists(data, queries[s : s + 128]), ids, K)
        for s in range(0, len(queries), 128)
    ]
    return np.vstack([p[0] for p in parts]), np.vstack([p[1] for p in parts])

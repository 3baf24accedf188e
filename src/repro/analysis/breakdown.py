"""IVF query runtime breakdown — the Table 7 harness (§6.4).

Runs the five competitors of Table 7 (N-ary ADS, PDX ADS, N-ary BSA,
PDX BSA, PDX BOND) over the same IVF index at a target recall, with one
:class:`~repro.core.trace.Trace` per algorithm passed to its searches:

- ``query_prep``   — pruner.prepare (query transform + dim ordering)
- ``find_buckets`` — centroid distances + ranking
- ``bounds``       — pruning-predicate evaluation
- ``distance``     — distance-kernel accumulation

``nprobe`` is tuned per algorithm by doubling until recall ≥ target
(the paper tunes recall with nprobe, §6.1); the N-ary variant of an
algorithm reuses its PDX twin's nprobe (identical pruning semantics on
identical buckets ⇒ identical recall). Every algorithm is warmed with
one untimed pass over the queries, then timed over three; each phase
reports its median pass.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import vecdata
from repro.analysis.paper_numbers import K
from repro.core.pruners import ADSampling, BSA, PDXBond
from repro.core.trace import Trace
from repro.ivf.index import IVFIndex, IVFNarySearcher, IVFPDXSearcher, build_ivf

PHASES = ["distance", "find_buckets", "bounds", "query_prep"]


def tune_nprobe(
    searcher,
    queries: np.ndarray,
    gt_ids: np.ndarray,
    k: int,
    target_recall: float,
    *,
    max_nprobe: int,
) -> int:
    """Smallest power-of-two nprobe reaching the target recall.

    Results with fewer than k ids (the probed buckets hold < k vectors)
    stay ragged; their missing ids count as recall misses.
    """
    nprobe = 1
    while nprobe < max_nprobe:
        found = [searcher.search(q, k, nprobe=nprobe)[0] for q in queries]
        if vecdata.recall_at_k(found, gt_ids) >= target_recall:
            return nprobe
        nprobe *= 2
    return max_nprobe


#: Timed passes over the queries per algorithm; each phase reports its median.
TIMED_PASSES = 3


def _run_timed(searcher, queries: np.ndarray, k: int, nprobe: int) -> dict:
    """Per-phase seconds over all queries: the median of
    :data:`TIMED_PASSES` timed passes, after one untimed warm-up pass."""
    for q in queries:
        searcher.search(q, k, nprobe=nprobe)
    passes = []
    for _ in range(TIMED_PASSES):
        trace = Trace()
        for q in queries:
            searcher.search(q, k, nprobe=nprobe, trace=trace)
        passes.append(trace.seconds)
    return {p: float(np.median([s.get(p, 0.0) for s in passes])) for p in PHASES}


def breakdown_row(name: str, seconds: dict, n_queries: int) -> dict:
    total = sum(seconds.get(p, 0.0) for p in PHASES)
    row = {"algorithm": name, "query_time_ms": total / n_queries * 1e3}
    for p in PHASES:
        row[f"{p}_pct"] = 100.0 * seconds.get(p, 0.0) / total if total else 0.0
        row[f"{p}_ms"] = seconds.get(p, 0.0) / n_queries * 1e3
    return row


def ivf_breakdown(
    dataset: str = "openai1536",
    *,
    sf: float = 0.004,
    n_queries: int = 20,
    target_recall: float = 0.95,
) -> pd.DataFrame:
    """Run the Table 7 experiment end-to-end; returns one row per
    algorithm with total ms and per-phase shares."""
    ds = vecdata.generate(dataset, sf=sf, n_queries=n_queries)
    x, queries = ds.data, ds.queries
    dim = ds.dim
    gt_ids, _ = vecdata.ground_truth(x, queries, K)
    index: IVFIndex = build_ivf(x)

    ads = ADSampling(dim)
    bsa = BSA(dim).fit(x)
    bond = PDXBond(dim, order="zones")

    pdx_ads = IVFPDXSearcher(index, x, ads)
    pdx_bsa = IVFPDXSearcher(index, x, bsa)
    pdx_bond = IVFPDXSearcher(index, x, bond)
    nary_ads = IVFNarySearcher(index, x, ads)
    nary_bsa = IVFNarySearcher(index, x, bsa)

    max_np = index.nlist
    np_ads = tune_nprobe(pdx_ads, queries, gt_ids, K, target_recall, max_nprobe=max_np)
    np_bsa = tune_nprobe(pdx_bsa, queries, gt_ids, K, target_recall, max_nprobe=max_np)
    np_bond = tune_nprobe(pdx_bond, queries, gt_ids, K, target_recall, max_nprobe=max_np)

    runs = [
        ("N-ary ADS", nary_ads, np_ads),
        ("PDX ADS", pdx_ads, np_ads),
        ("N-ary BSA", nary_bsa, np_bsa),
        ("PDX BSA", pdx_bsa, np_bsa),
        ("PDX BOND", pdx_bond, np_bond),
    ]
    rows = [
        breakdown_row(name, _run_timed(s, queries, K, nprobe), len(queries))
        for name, s, nprobe in runs
    ]
    frame = pd.DataFrame(rows)
    frame.attrs["nprobe"] = {"ads": np_ads, "bsa": np_bsa, "bond": np_bond}
    return frame

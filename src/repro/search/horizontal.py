"""Pruned search on the *horizontal* (N-ary) layout — the paper's
"SIMD-ADS" / "N-ary BSA" baselines (§6.3, Table 7).

A bucket is scanned at once: per slice of :data:`DELTA_D` dimensions
(the fixed step of the original ADSampling/BSA implementations) the live
rows' partial distances grow, and one predicate call drops the pruned
rows. The threshold is read at bucket entry, as PDXearch reads it once
per unit. Beyond the layout the pair differs in three ways: the step
(a fixed Δd = 32 against PDXearch's 2, 4, 8, …), the gathering (live
rows after every slice; PDXearch scans whole units in WARMUP and gathers
only in PRUNE) and the order (storage order, not the context's
``dim_order``, so N-ary BOND prunes late: 1.22–4.60 ms/query on the
openai1536 stand-in against PDX-BOND's 0.79–1.94; EXPERIMENTS.md).
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import l2_nary
from repro.core.pruners import Pruner
from repro.core.topk import TopK
from repro.core.trace import NO_TRACE, Trace

#: Δd: dimensions between predicate checks, as in the original
#: ADSampling/BSA implementations.
DELTA_D = 32


def horizontal_pruned_search(
    data: np.ndarray,
    ids: np.ndarray,
    query_ctx,
    pruner: Pruner,
    heap: TopK,
    *,
    trace: Trace = NO_TRACE,
) -> TopK:
    """Scan ``data`` (already in the pruner's transformed space, (N, D)
    row-major) with Δd-stepped pruning against the threshold ``heap``
    holds on entry, and merge the survivors into ``heap`` once.

    ``query_ctx`` must come from ``pruner.prepare`` (transformed query).
    The heap is shared across calls so IVF can chain buckets.
    """
    q = query_ctx.query
    n, d = data.shape
    threshold = heap.threshold
    rows = np.arange(n)
    partial = np.zeros(n, dtype=np.float32)
    for d0 in range(0, d, DELTA_D):
        d1 = min(d0 + DELTA_D, d)
        trace.start()
        partial += l2_nary(data[rows, d0:d1], q[d0:d1])
        trace.lap("distance")
        if d1 == d:
            break
        keep = ~pruner.prune_mask(partial, d1, threshold)
        rows, partial = rows[keep], partial[keep]
        trace.lap("bounds")
        if len(rows) == 0:
            break
    heap.update(ids[rows], partial)
    return heap

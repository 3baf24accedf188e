"""Pruned search on the *horizontal* (N-ary) layout — the paper's
"SIMD-ADS" / "N-ary BSA" baselines (§6.3, Table 7).

The search is vector-at-a-time: for each vector, distance is accumulated
in slices of :data:`DELTA_D` dimensions; after each slice the pruning
predicate runs and may break off the vector (the fixed-step schedule of
the original ADSampling/BSA implementations). The per-vector predicate
interleaving — the branchy control flow the paper blames for the
horizontal layout losing to plain SIMD scans — is inherent to this code
shape.
"""
from __future__ import annotations

import numpy as np

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
    row-major) vector-at-a-time with Δd-stepped pruning.

    ``query_ctx`` must come from ``pruner.prepare`` (transformed query).
    The heap is shared across calls so IVF can chain buckets.
    """
    q = query_ctx.query
    d = data.shape[1]
    steps = list(range(0, d, DELTA_D)) + [d]
    for i in range(len(data)):
        vec = data[i]
        threshold = heap.threshold
        partial = 0.0
        pruned = False
        for s in range(len(steps) - 1):
            d0, d1 = steps[s], steps[s + 1]
            trace.start()
            diff = vec[d0:d1] - q[d0:d1]
            partial += float(diff @ diff)
            trace.lap("distance")
            if d1 >= d:
                break
            out = pruner.prune_mask(np.array([partial], dtype=np.float32), d1, threshold)[0]
            trace.lap("bounds")
            if out:
                pruned = True
                break
        if not pruned:
            heap.update(ids[i : i + 1], np.array([partial]))
    return heap

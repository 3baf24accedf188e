"""PDXearch (§4): adaptive dimension-by-dimension pruned search.

The framework scans a sequence of PDX blocks with three phases:

- **START** — while the top-k heap holds fewer than k candidates (the
  pruning threshold is +inf), blocks are scanned fully; the first block
  seeds the threshold. A full scan is one certified sgemv over the block,
  then an exact re-rank of its candidates
  (:func:`~repro.core.kernels.l2_candidates`).
- **WARMUP** — dimensions are fetched at exponentially growing steps
  (2, 4, 8, …: :func:`dimension_steps`, the one schedule); partial
  distances are accumulated for *all* vectors of the block (no
  break-off — random access would cost more than it saves), and the
  pruning predicate runs in a separate vectorized pass.
- **PRUNE** — once the surviving fraction drops to
  :data:`SELECTION_FRACTION` (the paper's 20 %), only surviving
  positions are accumulated and tested.

At the last dimension survivors carry their full (exact-in-transformed-
space) distance and are merged into the heap, tightening the threshold
for subsequent blocks. The framework changes *scheduling only* — which
dimensions are looked at when — never the pruner's semantics, so an
exact pruner (PDX-BOND) yields exact results and an approximate one
(ADSampling/BSA) keeps its own recall guarantees.

``trace`` (a :class:`~repro.core.trace.Trace`, no-op by default) sums
wall-clock seconds into the Table 7 phases: ``"query_prep"``
(``pruner.prepare``), ``"distance"`` (kernel accumulation) and
``"bounds"`` (predicate evaluation).
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.kernels import PASS_VALUES, l2_accumulate, l2_candidates, l2_pdx
from repro.core.layout import PDXBlock, PDXCollection
from repro.core.pruners import Pruner, QueryContext
from repro.core.topk import TopK
from repro.core.trace import NO_TRACE, Trace

#: PRUNE starts once at most this share of a block's vectors survive (§4).
SELECTION_FRACTION = 0.2


def dimension_steps(dim: int) -> list[int]:
    """Step sizes covering ``dim`` dimensions: 2, 4, 8, … doubling, the
    last step clipped to what is left (§4's adaptive steps)."""
    steps: list[int] = []
    left, step = dim, 2
    while left > 0:
        steps.append(min(step, left))
        left -= steps[-1]
        step *= 2
    return steps


def _scan_block_full(
    blocks: Sequence[PDXBlock], ctx: QueryContext, heap: TopK, trace: Trace
) -> None:
    # Every dimension is visited, so storage order serves any query's
    # dimension order. One certified cut selects over all the blocks; only
    # its candidates are re-ranked, block by block, and merged once.
    trace.start()
    positions = l2_candidates(
        [b.data for b in blocks], [b.norms for b in blocks], ctx.query, heap.k
    )
    starts = np.cumsum([0] + [b.n for b in blocks])
    bounds = np.searchsorted(positions, starts)  # each block's slice of positions
    ids, dists = [], []
    for i in np.flatnonzero(np.diff(bounds)):
        kept = positions[bounds[i] : bounds[i + 1]] - starts[i]
        ids.append(blocks[i].ids[kept])
        dists.append(_l2_block(blocks[i].data, ctx.query, kept))
    trace.lap("distance")
    if ids:
        heap.update(np.concatenate(ids), np.concatenate(dists))


def _scan_block_pruned(
    block: PDXBlock,
    ctx: QueryContext,
    pruner: Pruner,
    heap: TopK,
    *,
    steps: list[int],
    trace: Trace,
) -> None:
    threshold = heap.threshold
    dists = np.zeros(block.n, dtype=np.float32)
    alive = np.ones(block.n, dtype=bool)
    positions: np.ndarray | None = None  # None => WARMUP (no break-off)
    scanned = 0
    for step in steps:
        dims = ctx.dim_order[scanned : scanned + step]
        scanned += len(dims)
        trace.start()
        l2_accumulate(block.data, ctx.query, dists, dims, positions)
        trace.lap("distance")
        if scanned >= block.dim:
            break  # full distances reached; no point testing the predicate
        if positions is None:
            pruned = pruner.prune_mask(dists, scanned, threshold)
            alive &= ~pruned
            n_alive = np.count_nonzero(alive)
            if n_alive == 0:
                trace.lap("bounds")
                return
            if n_alive <= SELECTION_FRACTION * block.n:
                positions = np.flatnonzero(alive)
        else:
            pruned = pruner.prune_mask(dists[positions], scanned, threshold)
            positions = positions[~pruned]
            if len(positions) == 0:
                trace.lap("bounds")
                return
        trace.lap("bounds")
    survivors = positions if positions is not None else np.flatnonzero(alive)
    heap.update(block.ids[survivors], dists[survivors])


def search_blocks(
    blocks: Iterable[PDXBlock],
    ctx: QueryContext,
    pruner: Pruner,
    heap: TopK,
    *,
    trace: Trace = NO_TRACE,
) -> TopK:
    """Run PDXearch over a stream of units, threshold propagating unit to
    unit through ``heap``. A unit is any (D, n) block: a block of a
    collection, or an IVF bucket or a join of probed buckets, in
    centroid-rank order (:func:`~repro.ivf.index.probe_units`)."""
    steps = dimension_steps(len(ctx.dim_order))
    for block in blocks:
        if not np.isfinite(heap.threshold):
            _scan_block_full([block], ctx, heap, trace)  # START phase
            continue
        _scan_block_pruned(block, ctx, pruner, heap, steps=steps, trace=trace)
    return heap


def pdxearch(
    coll: PDXCollection,
    query: np.ndarray,
    k: int,
    pruner: Pruner,
    *,
    trace: Trace = NO_TRACE,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact/approximate KNN over one PDX collection (no index).

    Returns ``(ids, dists)`` ascending by distance. The query must be in
    the *original* space; the pruner transforms it (the collection must
    have been built over ``pruner.transform_data`` output).
    """
    trace.start()
    ctx = pruner.prepare(query, coll)
    trace.lap("query_prep")
    heap = TopK(k)
    search_blocks(coll.blocks, ctx, pruner, heap, trace=trace)
    return heap.result()


def _l2_block(data: np.ndarray, query: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Squared L2 of ``query`` to the vectors at ``positions`` of one (D, n)
    block, gathered and computed in passes of at most ``PASS_VALUES``
    values."""
    rows = max(1, PASS_VALUES // max(1, len(positions)))
    out = np.zeros(len(positions), dtype=np.float32)
    for start in range(0, len(query), rows):
        sub = data[start : start + rows].take(positions, axis=1)
        out += l2_pdx(sub[None], query[start : start + rows])
    return out


def pdx_linear_scan(
    coll: PDXCollection, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact linear scan on the PDX layout (PDX-LINEAR-SCAN baseline):
    START's full scan (:func:`_scan_block_full`) of all blocks at once,
    one certified cut and one top-k merge per query, under the linear
    pruner's context."""
    ctx = Pruner(coll.dim).prepare(query)
    heap = TopK(k)
    _scan_block_full(coll.blocks, ctx, heap, NO_TRACE)
    return heap.result()

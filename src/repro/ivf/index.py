"""IVF index substrate with PDX buckets (§2.1, Figure 2, §6.3).

:func:`build_ivf` clusters the collection once (Lloyd's k-means,
``nlist ≈ √n`` centroids by default — the FAISS/Milvus convention the
paper cites). All competitors then share the *same* bucket membership,
as in the paper's setup ("all competitors share the same IVF index").

Per-algorithm searchers wrap the shared index; every query of either
starts with one shared probe step (``_IVFSearcher._probe``):

- :class:`IVFPDXSearcher` — each bucket stored as one PDX unit (a (D, n)
  :class:`~repro.core.layout.PDXBlock`) over the pruner's transformed
  space. A search streams the probed buckets through PDXearch, nearest
  first, with one shared heap, so the threshold passes from unit to
  unit (§4): START scans the nearest non-empty bucket alone, and later
  buckets are joined into units of at least
  :data:`~repro.core.kernels.PASS_VALUES` values (:func:`probe_units`).
  The centroids are one (D, nlist) PDX unit, so "find nearest buckets"
  is one call of the PDX kernel (Table 7's observation).
- :class:`IVFNarySearcher` — buckets stored row-major and searched in
  one pass in PDXearch's shape: START scores the nearest buckets (one
  kernel call each) until they hold ``k`` vectors and merges them once;
  later buckets get the Δd-stepped horizontal pruned search (SIMD-ADS /
  N-ary BSA stand-ins). IVF_FLAT never prunes: every probed bucket is
  START, so the top-k is selected once, as FAISS keeps one heap per
  query. Either equals a merge bucket by bucket, bit for bit, since one
  (distance, id) order decides both.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.kernels import PASS_VALUES, l2_accumulate, l2_nary
from repro.core.layout import PDXBlock, build_pdx, join_blocks
from repro.core.pdxearch import search_blocks
from repro.core.pruners import Pruner, QueryContext
from repro.core.topk import TopK
from repro.core.trace import NO_TRACE, Trace
from repro.ivf.kmeans import kmeans
from repro.search.horizontal import horizontal_pruned_search


@dataclass
class IVFIndex:
    """Shared clustering: raw-space centroids + per-bucket global ids."""

    centroids: np.ndarray  # (nlist, D) float32, raw space
    bucket_ids: list[np.ndarray]  # global vector ids per bucket

    @property
    def nlist(self) -> int:
        return len(self.bucket_ids)


def build_ivf(data: np.ndarray, *, nlist: int | None = None, seed: int = 0) -> IVFIndex:
    n = len(data)
    if nlist is None:
        nlist = max(1, int(np.sqrt(n)))
    centroids, labels = kmeans(data, nlist, seed=seed)
    buckets = [np.flatnonzero(labels == c).astype(np.int64) for c in range(nlist)]
    return IVFIndex(centroids=centroids, bucket_ids=buckets)


def _pdx_all_distances(unit: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Full PDX-kernel distances over one (D, n) unit (the centroids)."""
    out = np.zeros(unit.shape[1], dtype=np.float32)
    l2_accumulate(unit, query, out, range(len(query)))
    return out


def probe_units(buckets: Sequence[PDXBlock]) -> Iterator[PDXBlock]:
    """The PDXearch units over ``buckets``, given nearest first: the first
    non-empty bucket alone, which START scans to seed the threshold, then
    the others in order, joined by column concatenation into units of at
    least ``PASS_VALUES`` values (the last may hold fewer); a bucket of
    ``PASS_VALUES`` values or more is a unit of its own, uncopied.

    The rule counts values, not vectors: a join saves a fixed cost per
    unit (one certified cut, or one kernel and one predicate call per
    step) and costs a copy of every value it joins, so at low D many
    small buckets join and at high D few or none. The units are formed
    per query, so unlike exact search's growing units (laid out once)
    they stop growing where a join no longer saves dispatch.
    """
    buckets = [b for b in buckets if b.n]
    if not buckets:
        return
    yield buckets[0]
    group: list[PDXBlock] = []
    values = 0
    for b in buckets[1:]:
        if b.data.size >= PASS_VALUES and group:
            yield join_blocks(group)
            group, values = [], 0
        group.append(b)
        values += b.data.size
        if values >= PASS_VALUES:
            yield join_blocks(group)
            group, values = [], 0
    if group:
        yield join_blocks(group)


class _IVFSearcher:
    """Transforms the data and centroids once, keeps the collection-level
    ``dim_means`` (the searcher is the metadata ``pruner.prepare`` reads)
    and probes. Subclasses store the buckets and ``tcentroids`` in their
    layout (``_store``), rank the centroids (``_rank``) and ``search``."""

    def __init__(self, index: IVFIndex, data: np.ndarray, pruner: Pruner):
        self.index = index
        self.pruner = pruner
        tdata = pruner.transform_data(data)  # first: BSA fits on the data
        self.dim_means = tdata.mean(axis=0, dtype=np.float64).astype(np.float32)
        self._store(tdata, pruner.transform_data(index.centroids))

    def _probe(
        self, query: np.ndarray, nprobe: int, trace: Trace
    ) -> tuple[QueryContext, np.ndarray]:
        """The query's context and its ``nprobe`` nearest buckets, nearest
        first (ties by bucket number); ``nprobe = 0`` probes none and
        ``nprobe < 0`` raises ``ValueError``."""
        if nprobe < 0:
            raise ValueError("nprobe must be >= 0")
        trace.start()
        ctx = self.pruner.prepare(query, self)
        trace.lap("query_prep")
        probe = np.argsort(self._rank(ctx.query), kind="stable")[:nprobe]
        trace.lap("find_buckets")
        return ctx, probe


class IVFPDXSearcher(_IVFSearcher):
    """PDXearch over IVF buckets stored in the PDX layout, one unit each."""

    def _store(self, tdata: np.ndarray, tcentroids: np.ndarray) -> None:
        ids = np.concatenate(self.index.bucket_ids)
        sizes = [len(b) for b in self.index.bucket_ids]
        self.buckets: list[PDXBlock] = build_pdx(tdata[ids], ids, block_size=sizes).blocks
        self.tcentroids = np.ascontiguousarray(tcentroids.T)  # one (D, nlist) unit

    def _rank(self, query: np.ndarray) -> np.ndarray:
        return _pdx_all_distances(self.tcentroids, query)

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        nprobe: int,
        trace: Trace = NO_TRACE,
    ) -> tuple[np.ndarray, np.ndarray]:
        ctx, probe = self._probe(query, nprobe, trace)
        heap = TopK(k)
        units = probe_units([self.buckets[c] for c in probe])
        search_blocks(units, ctx, self.pruner, heap, trace=trace)
        return heap.result()


class IVFNarySearcher(_IVFSearcher):
    """Horizontal-layout search over the same IVF buckets."""

    def _store(self, tdata: np.ndarray, tcentroids: np.ndarray) -> None:
        self.buckets = [(tdata[ids], ids) for ids in self.index.bucket_ids]
        self.tcentroids = tcentroids  # (nlist, D) rows

    def _rank(self, query: np.ndarray) -> np.ndarray:
        return l2_nary(self.tcentroids, query)

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        nprobe: int,
        pruned: bool = True,
        trace: Trace = NO_TRACE,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One pass over the non-empty probed buckets, nearest first: START
        scores the nearest ones (one ``l2_nary`` call each) until they hold
        ``k`` vectors and merges them once; later buckets get the Δd-stepped
        pruned search. ``pruned=False`` (IVF_FLAT) makes every bucket START."""
        ctx, probe = self._probe(query, nprobe, trace)
        heap = TopK(k)
        buckets = [self.buckets[c] for c in probe if len(self.buckets[c][1])]
        start = len(buckets)
        if pruned:
            start = int(np.searchsorted(np.cumsum([len(b) for _, b in buckets]), k)) + 1
        trace.start()
        dists = [l2_nary(bdata, ctx.query) for bdata, _ in buckets[:start]]
        trace.lap("distance")
        heap.update(
            np.concatenate([np.empty(0, np.int64), *(bids for _, bids in buckets[:start])]),
            np.concatenate([np.empty(0), *dists]),
        )
        for bdata, bids in buckets[start:]:
            horizontal_pruned_search(bdata, bids, ctx, self.pruner, heap, trace=trace)
        return heap.result()

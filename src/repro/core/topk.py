"""Bounded top-k accumulator — the KNN candidate "max-heap" of the paper.

Implemented over NumPy arrays instead of a literal heap: candidates are
merged in batches (a whole block's survivors at once) and re-partitioned,
which is both faster in NumPy and matches how PDXearch merges at block
boundaries. ``threshold`` is the current k-th best distance (+inf until k
candidates have been seen) — the pruning bound every pruner compares
against. :func:`smallest` is the one selection rule: every exact scan
selects its result with it, so ties at the k-th distance resolve by id
everywhere.
"""
from __future__ import annotations

import numpy as np


def smallest(ids: np.ndarray, dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``min(k, len(ids))`` smallest ``(id, dist)`` pairs, ascending by
    distance, then id; ``k = 0`` gives an empty result and ``k < 0`` raises
    ``ValueError``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ids = np.asarray(ids, dtype=np.int64)
    dists = np.asarray(dists, dtype=np.float64)
    k = min(k, len(dists))
    if len(dists) > 2 * k:
        # O(n) pre-filter for large batches (whole-block merges): keep
        # everything at or below the k-th distance — boundary ties
        # included, so the lexsort below decides them by id.
        keep = dists <= np.partition(dists, k - 1)[k - 1]
        ids, dists = ids[keep], dists[keep]
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]


class TopK:
    """Keep the k smallest (distance, id) pairs seen so far."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._ids = np.empty(0, dtype=np.int64)
        self._dists = np.empty(0, dtype=np.float64)

    @property
    def threshold(self) -> float:
        """Current pruning bound: k-th best distance, or +inf if < k seen."""
        if len(self._dists) < self.k:
            return float("inf")
        return float(self._dists[-1])

    def update(self, ids: np.ndarray, dists: np.ndarray) -> None:
        """Merge a batch of candidates (block survivors) into the top-k."""
        if len(ids) == 0:
            return
        if len(self._ids):
            ids, dists = np.concatenate([self._ids, ids]), np.concatenate([self._dists, dists])
        # Kept sorted by (distance, id): O(1) threshold, deterministic ties.
        # ``smallest`` returns new arrays, so the heap never aliases a batch.
        self._ids, self._dists = smallest(ids, dists, self.k)

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ids, dists)`` sorted ascending by distance, then id."""
        return self._ids.copy(), self._dists.copy()

"""The PDX block layout (§3): blocked vertical storage + block metadata.

A :class:`PDXBlock` stores up to ``block_size`` vectors dimension-major:
``data[d, i]`` is dimension ``d`` of the block's ``i``-th vector, and each
dimension's values are contiguous (the tight inner loop of Algorithm 1).
A block's per-dimension means (§3 "Metadata per block") are derived
from its data when asked for; none are stored. Each block stores its
vectors' squared norms, for the certified full scan
(:func:`repro.core.kernels.l2_candidates`).

A :class:`PDXCollection` is an ordered list of blocks over a collection
(a horizontal partition for exact search) plus collection-level
dimension means; all means are accumulated in float64. :func:`build_pdx`
makes every block and collection (Spark's too); :func:`join_blocks`
makes one block of several, by column concatenation (IVF's buckets).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.kernels import PDX_BLOCK_SIZE, squared_norms


@dataclass
class PDXBlock:
    """One PDX block: ``data`` is (D, n) float32 C-contiguous, n ≤ block_size."""

    data: np.ndarray
    ids: np.ndarray  # (n,) int64 — global vector ids of the block's slots
    norms: np.ndarray  # (n,) float64 — squared L2 norms of the block's vectors

    @property
    def means(self) -> np.ndarray:
        """(D,) float32 per-dimension means of this block."""
        return self.data.mean(axis=1, dtype=np.float64).astype(np.float32)

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[0]


@dataclass
class PDXCollection:
    """An ordered sequence of PDX blocks over one vector collection.

    Each block owns its (D, n) dimension-major buffer; scans visit the
    blocks one at a time, so a kernel's temporaries stay block-sized.
    """

    blocks: list[PDXBlock]
    dim_means: np.ndarray  # (D,) collection-level means (exact-search BOND)

    @property
    def dim(self) -> int:
        return len(self.dim_means)


#: Rows transposed at a time: a chunk of 256 vectors is read and written
#: while it is in cache, where a whole 5000-vector unit is not.
_TRANSPOSE_ROWS = 256


def _transpose(rows: np.ndarray) -> np.ndarray:
    """(D, n) C-contiguous copy of (n, D) ``rows``, in chunks of rows."""
    out = np.empty(rows.shape[::-1], dtype=rows.dtype)
    for start in range(0, len(rows), _TRANSPOSE_ROWS):
        out[:, start : start + _TRANSPOSE_ROWS] = rows[start : start + _TRANSPOSE_ROWS].T
    return out


def build_pdx(
    data: np.ndarray,
    ids: np.ndarray | None = None,
    *,
    block_size: int | Sequence[int] = PDX_BLOCK_SIZE,
) -> PDXCollection:
    """Partition the (N, D) vectors ``data`` into PDX blocks.

    ``block_size`` is one size, for equal blocks of which the last may be
    ragged, or the size of each block in turn, summing to N. Vectors keep
    their input order; every block gets its own (D, n) buffer and its
    vectors' squared norms. ``ids`` default to 0…N−1 (positions in
    ``data``). An empty collection gets zero ``dim_means``.
    """
    n, d = data.shape
    if np.ndim(block_size) == 0:
        block_size = [min(block_size, n - start) for start in range(0, n, block_size)]
    if sum(block_size) != n:
        raise ValueError(f"block sizes sum to {sum(block_size)} != {n}")
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != (n,):
        raise ValueError(f"ids shape {ids.shape} != ({n},)")
    data = data.astype(np.float32, copy=False)
    blocks: list[PDXBlock] = []
    stop = 0
    for size in block_size:
        start, stop = stop, stop + size
        dm = _transpose(data[start:stop])
        # From the block's own buffer: the norms do not depend on how
        # ``data`` is laid out in memory, which sets einsum's summation order.
        blocks.append(PDXBlock(data=dm, ids=ids[start:stop].copy(), norms=squared_norms(dm.T)))
    means = data.mean(axis=0, dtype=np.float64) if n else np.zeros(d)
    return PDXCollection(blocks=blocks, dim_means=means.astype(np.float32))


def join_blocks(blocks: Sequence[PDXBlock]) -> PDXBlock:
    """One block holding the vectors of ``blocks`` in order, their (D, nᵢ)
    buffers concatenated column by column; a lone block is returned
    itself, uncopied."""
    if len(blocks) == 1:
        return blocks[0]
    return PDXBlock(
        data=np.concatenate([b.data for b in blocks], axis=1),
        ids=np.concatenate([b.ids for b in blocks]),
        norms=np.concatenate([b.norms for b in blocks]),
    )


def stack_pdx(data: np.ndarray, block_size: int = PDX_BLOCK_SIZE) -> np.ndarray:
    """Dense (nblocks, D, B) PDX representation for the kernel benchmarks.

    Requires N to be a multiple of ``block_size`` (the Table 4/5 harness
    generates such sizes); use :func:`build_pdx` for ragged collections.
    """
    n, d = data.shape
    if n % block_size:
        raise ValueError(f"n={n} not a multiple of block_size={block_size}")
    k = n // block_size
    # (k, B, D) row-major chunks, transposed per block to (k, D, B).
    return np.ascontiguousarray(
        data.reshape(k, block_size, d).transpose(0, 2, 1), dtype=np.float32
    )


def to_dsm(data: np.ndarray) -> np.ndarray:
    """Fully decomposed layout: (D, N) C-contiguous (§7 'PDX vs DSM')."""
    return np.ascontiguousarray(data.T, dtype=np.float32)

"""Exact KNN drivers on every layout (§6.5 competitors).

- :func:`brute_force_nary` — horizontal linear scan with the N-ary
  kernel: algorithmically what FAISS flat / USearch exact / Sklearn
  brute force do (SIMD kernel per vector + top-k).
- :func:`brute_force_dsm` — linear scan on the fully decomposed layout.
- :func:`pdx_linear_scan` (re-exported) — linear scan on PDX blocks.
- :func:`pdx_bond_search` — PDX-BOND exact pruned search via PDXearch.

All return ``(ids, dists)`` with squared-L2 distances ascending, ties
broken by id (:func:`repro.core.topk.smallest`).
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import PASS_VALUES, l2_dsm, l2_nary
from repro.core.layout import PDXCollection, build_pdx
from repro.core.pdxearch import pdx_linear_scan, pdxearch
from repro.core.pruners import PDXBond
from repro.core.topk import smallest
from repro.core.trace import NO_TRACE, Trace


def brute_force_nary(
    data: np.ndarray, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal linear scan (FAISS-flat style) over (N, D) row-major data.

    Rows are scanned in passes of about ``PASS_VALUES`` values (never a
    single row), one N-ary kernel call per pass, so the kernel's
    temporary stays in the L2 cache instead of a collection-sized buffer
    going through the heap per query. Each row's distance is reduced on
    its own, so the result is bit-identical to one kernel call over all
    rows.
    """
    # Never a lone row: past its 8192-value buffer, einsum reduces a
    # single row in another order than a row among others. A lone last
    # row joins the pass before it; no rows still make one empty pass.
    rows = max(2, PASS_VALUES // data.shape[1])
    bounds = [*range(0, max(1, len(data) - 1), rows), len(data)]
    dists = np.concatenate([l2_nary(data[a:b], query) for a, b in zip(bounds, bounds[1:])])
    return smallest(np.arange(len(data), dtype=np.int64), dists, k)


def brute_force_dsm(
    data_dm: np.ndarray, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Linear scan on the DSM layout ((D, N) dimension-major, §7)."""
    dists = l2_dsm(data_dm, query)
    return smallest(np.arange(data_dm.shape[1], dtype=np.int64), dists, k)


def pdx_bond_search(
    coll: PDXCollection,
    query: np.ndarray,
    k: int,
    *,
    trace: Trace = NO_TRACE,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact PDX-BOND search over a PDX collection.

    For exact search the paper scans horizontal partitions of ≤10 k
    vectors with the "distance to means" order; build ``coll`` with
    :func:`build_exact_collection` for that layout.
    """
    return pdxearch(coll, query, k, PDXBond(coll.dim, order="means"), trace=trace)


def exact_unit_sizes(n: int) -> list[int]:
    """Sizes of the units that exact search lays ``n`` vectors out in.

    The first unit, scanned fully by PDXearch's START phase to seed the
    threshold, holds 1/16 of the collection (64 to 10 k vectors), so it
    stays "a small percentage of all data" (§4) even at reproduction
    scale (the paper's fixed 10 k is ~1 % of its 1M-vector collections).
    Each later unit holds as many vectors as all units before it,
    capped at 10 k (§6.5) and at what is left: 625, 625, 1250, 2500,
    5000 for 10 k vectors, and 10 k each from 160 k vectors on. Few,
    large units keep a query's kernel and predicate calls few, while the
    threshold still passes from unit to unit. The units are laid out
    once, before any query, so their size costs no copy per query.
    """
    sizes: list[int] = []
    done, size = 0, int(np.clip(n // 16, 64, 10_000))
    while done < n:
        sizes.append(min(size, n - done))
        done += sizes[-1]
        size = min(done, 10_000)
    return sizes


def build_exact_collection(data: np.ndarray) -> PDXCollection:
    """PDX collection for exact search, in the units of
    :func:`exact_unit_sizes`. Other partitionings are
    :func:`~repro.core.layout.build_pdx` calls."""
    return build_pdx(data, block_size=exact_unit_sizes(len(data)))

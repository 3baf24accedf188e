"""PDX similarity search as a ``DataFrame → DataFrame`` operator.

The paper's contribution is a physical layout + scan operator, below
the relational layer — so per the layering rule it is expressed as a
``mapInPandas`` physical transformation rather than a Catalyst rule
(DESIGN.md §2): each executor partition gathers its PDX block rows into
one ``PDXCollection``, laid out in the growing units of exact search
(:func:`~repro.search.exact.exact_unit_sizes`), and runs every query
through the *same* ``pdxearch`` used in ``repro.core``, so the pruning
threshold propagates unit to unit exactly as in §4, and PDX-BOND's
dimension means are those of every vector in the partition.
Per-partition candidates (a superset of the global top-k) are then
reduced with a Spark SQL window ``row_number() ... ORDER BY dist, id`` —
Catalyst handles the relational part, the block scan stays columnar
inside the executor.

``knn`` is exact when the pruner is exact (linear / PDX-BOND) because a
partition-local threshold only ever prunes vectors that provably cannot
enter the partition's own top-k, a superset of the global one.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.layout import PDXBlock, PDXCollection, join_blocks
from repro.core.pdxearch import pdxearch
from repro.core.pruners import Pruner
from repro.search.exact import exact_unit_sizes
from repro.spark.layout_ops import rows_to_pdx_blocks


def search_partition(
    batches: Iterator[pd.DataFrame], queries: np.ndarray, k: int, pruner: Pruner
) -> Iterator[pd.DataFrame]:
    """The ``knn`` executor: PDXearch every query over one partition. The
    block rows of all its Arrow batches are laid out again in the units of
    exact search (:func:`~repro.search.exact.exact_unit_sizes`), with
    ``dim_means`` over every vector of the partition. Yields one
    ``(qid, id, dist)`` frame, or nothing for an empty partition."""
    blocks = [b for pdf in batches for b in rows_to_pdx_blocks(pdf)]
    if not blocks:
        return
    whole = join_blocks(blocks)
    stops = np.cumsum(exact_unit_sizes(whole.n))
    units = [
        PDXBlock(np.ascontiguousarray(whole.data[:, a:b]), whole.ids[a:b], whole.norms[a:b])
        for a, b in zip([0, *stops[:-1]], stops)
    ]
    means = whole.data.mean(axis=1, dtype=np.float64).astype(np.float32)
    coll = PDXCollection(blocks=units, dim=whole.dim, dim_means=means)
    rows = {"qid": [], "id": [], "dist": []}
    for qi, q in enumerate(queries):
        ids, dists = pdxearch(coll, q, k, pruner)
        rows["qid"].extend([qi] * len(ids))
        rows["id"].extend(ids.tolist())
        rows["dist"].extend(dists.tolist())
    yield pd.DataFrame(rows)


def knn(
    blocks_df: DataFrame,
    queries: np.ndarray,
    k: int,
    pruner: Pruner | None = None,
) -> DataFrame:
    """Top-k nearest vectors for each query over a PDX block DataFrame.

    Returns ``(qid: long, id: long, dist: double)``, k rows per query
    (fewer if the table holds fewer than k vectors), ascending by
    distance (ties by id). ``queries`` are raw-space; the
    pruner (default: exact linear scan) transforms them executor-side.
    The block table must have been built over ``pruner.transform_data``
    output.
    """
    q_arr = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.float32)
    pruner = pruner or Pruner(q_arr.shape[1])
    candidates = blocks_df.mapInPandas(
        partial(search_partition, queries=q_arr, k=k, pruner=pruner),
        schema="qid long, id long, dist double",
    )
    w = Window.partitionBy("qid").orderBy(F.col("dist").asc(), F.col("id").asc())
    return (
        candidates.withColumn("rank", F.row_number().over(w))
        .where(F.col("rank") <= k)
        .drop("rank")
    )

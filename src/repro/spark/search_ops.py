"""PDX similarity search as a ``DataFrame → DataFrame`` operator.

The paper's contribution is a physical layout + scan operator, below
the relational layer — so per the layering rule it is expressed as a
``mapInPandas`` physical transformation rather than a Catalyst rule
(DESIGN.md §2): each executor partition lays its PDX block rows out
again with one ``build_pdx`` call, in the growing units of exact search
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

from repro.core.layout import build_pdx
from repro.core.pdxearch import pdxearch
from repro.core.pruners import Pruner
from repro.search.exact import exact_unit_sizes
from repro.spark.layout_ops import rows_to_vectors


def search_partition(
    batches: Iterator[pd.DataFrame], queries: np.ndarray, k: int, pruner: Pruner
) -> Iterator[pd.DataFrame]:
    """The ``knn`` executor: PDXearch every query over one partition. The
    block rows of all its Arrow batches are laid out again by ``build_pdx``
    in the units of exact search, with ``dim_means`` over every vector of
    the partition. Yields one ``(qid, id, dist)`` frame, or nothing for an
    empty partition."""
    frames = [pdf for pdf in batches if len(pdf)]
    if not frames:
        return
    vectors, ids = rows_to_vectors(pd.concat(frames))
    coll = build_pdx(vectors, ids, block_size=exact_unit_sizes(len(ids)))
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

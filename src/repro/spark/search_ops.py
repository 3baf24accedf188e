"""PDX similarity search as a ``DataFrame → DataFrame`` operator.

The paper's contribution is a physical layout + scan operator, below
the relational layer — so per the layering rule it is expressed as a
``mapInPandas`` physical transformation rather than a Catalyst rule
(DESIGN.md §2): each executor partition streams its PDX block rows
through the *same* NumPy PDXearch code used in ``repro.core``, keeping
one top-k heap per (partition, query) so the pruning threshold
propagates block-to-block exactly as in §4. Per-partition candidates
(a superset of the global top-k) are then reduced with a Spark SQL
window ``row_number() ... ORDER BY dist, id`` — Catalyst handles the
relational part, the block scan stays columnar inside the executor.

``knn`` is exact when the pruner is exact (linear / PDX-BOND) because a
partition-local threshold only ever prunes vectors that provably cannot
enter the partition's own top-k, a superset of the global one.
"""
from __future__ import annotations

from collections.abc import Iterator
from types import SimpleNamespace

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.pdxearch import search_blocks
from repro.core.pruners import Pruner, QueryContext
from repro.core.topk import TopK
from repro.spark.layout_ops import rows_to_pdx_blocks


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
    output (see ``layout_ops.transform_vectors``).
    """
    q_arr = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.float32)
    dim = q_arr.shape[1]

    def search_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        local_pruner = pruner if pruner is not None else Pruner(dim)
        heaps: list[TopK] = [TopK(k) for _ in range(len(q_arr))]
        ctxs: list[QueryContext] | None = None
        for pdf in batches:
            if len(pdf) == 0:
                continue
            blocks = rows_to_pdx_blocks(pdf)
            if ctxs is None:
                # BOND's dimension means over the first batch's vectors.
                sums = np.sum([b.data.sum(axis=1, dtype=np.float64) for b in blocks], axis=0)
                means = sums / sum(b.n for b in blocks)
                meta = SimpleNamespace(dim_means=means.astype(np.float32))
                ctxs = [local_pruner.prepare(q, meta) for q in q_arr]
            for ctx, heap in zip(ctxs, heaps):
                search_blocks(blocks, ctx, local_pruner, heap)
        rows = {"qid": [], "id": [], "dist": []}
        for qi, heap in enumerate(heaps):
            ids, dists = heap.result()
            rows["qid"].extend([qi] * len(ids))
            rows["id"].extend(ids.tolist())
            rows["dist"].extend(dists.tolist())
        yield pd.DataFrame(rows)

    candidates = blocks_df.mapInPandas(
        search_partition, schema="qid long, id long, dist double"
    )
    w = Window.partitionBy("qid").orderBy(F.col("dist").asc(), F.col("id").asc())
    return (
        candidates.withColumn("rank", F.row_number().over(w))
        .where(F.col("rank") <= k)
        .drop("rank")
    )

"""DataFrame-level PDX layout construction (the per-partition columnar
block format of the repro brief).

``vectors_to_blocks`` turns a DataFrame of ``(id: long, vec:
array<...>)`` rows into a DataFrame of PDX *block* rows::

    block_id: long, n: int, ids: array<long>,
    data: array<double>   -- D*n values, dimension-major (d0 of all n
                             vectors, then d1, ...)

Blocks of ``PDX_BLOCK_SIZE`` vectors are formed by ``id`` order
(``row_number`` over id), so the mapping is deterministic and
round-trippable. The heavy lifting is an ``applyInPandas`` group
transform — each group becomes exactly one block row, transposed with
NumPy inside the executor. ADS/BSA tables are built from vectors that
are already in the pruner's transformed space (``pruner.transform_data``
before ``vecdata.to_spark``). ``rows_to_pdx_blocks`` turns block rows
back into ``PDXBlock`` objects on the executor.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.kernels import PDX_BLOCK_SIZE, squared_norms
from repro.core.layout import PDXBlock

BLOCK_SCHEMA = "block_id long, n int, ids array<long>, data array<double>"


def vectors_to_blocks(df: DataFrame) -> DataFrame:
    """Group vectors into PDX block rows (dimension-major within block)."""

    def make_block(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("id")
        mat = np.array(pdf["vec"].tolist(), dtype=np.float64)  # (n, D)
        dm = mat.T  # (D, n) dimension-major
        return pd.DataFrame(
            {
                "block_id": [int(key[0])],
                "n": [mat.shape[0]],
                "ids": [pdf["id"].to_numpy(dtype=np.int64).tolist()],
                "data": [dm.ravel().tolist()],
            }
        )

    row = F.row_number().over(Window.orderBy("id")) - F.lit(1)
    with_block = df.withColumn("block_id", (row / F.lit(PDX_BLOCK_SIZE)).cast("long"))
    return with_block.groupBy("block_id").applyInPandas(make_block, BLOCK_SCHEMA)


def rows_to_pdx_blocks(pdf: pd.DataFrame) -> list[PDXBlock]:
    """Reconstruct executor-side :class:`PDXBlock`s from block rows."""
    blocks = []
    for n, data, ids in zip(pdf["n"], pdf["data"], pdf["ids"]):
        dm = np.asarray(data, dtype=np.float32).reshape(-1, n)
        ids = np.asarray(ids, dtype=np.int64)
        blocks.append(PDXBlock(data=dm, ids=ids, norms=squared_norms(dm.T)))
    return blocks

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
before ``vecdata.to_spark``). On the executor ``rows_to_vectors`` decodes
block rows for :func:`~repro.core.layout.build_pdx` to lay out again.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.kernels import PDX_BLOCK_SIZE
from repro.core.layout import PDXBlock, build_pdx

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


def rows_to_vectors(pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """The (N, D) float32 vectors and (N,) int64 ids of block rows, in row
    order. The vectors are a transposed (D, N) buffer, which ``build_pdx``
    copies into its dimension-major blocks a dimension at a time."""
    parts = [np.asarray(data).reshape(-1, n) for n, data in zip(pdf["n"], pdf["data"])]
    dm = np.concatenate(parts, axis=1, dtype=np.float32)  # cast while copying, once
    return dm.T, np.concatenate(pdf["ids"].tolist())


def rows_to_pdx_blocks(pdf: pd.DataFrame) -> list[PDXBlock]:
    """Rebuild the :class:`PDXBlock` of each block row on the executor."""
    vectors, ids = rows_to_vectors(pdf)
    return build_pdx(vectors, ids, block_size=pdf["n"].tolist()).blocks

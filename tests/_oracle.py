"""DuckDB correctness oracle for the Spark operator and the ground truth.

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.

``to_pandas_wide`` and ``knn_sql`` give the oracle its wide table
(``id, d0 … dD−1``) and the brute-force KNN query over it.
"""
import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )


def to_pandas_wide(data: np.ndarray) -> pd.DataFrame:
    cols = {"id": np.arange(len(data), dtype=np.int64)}
    for d in range(data.shape[1]):
        cols[f"d{d}"] = data[:, d].astype(np.float64)
    return pd.DataFrame(cols)


def knn_sql(query: np.ndarray, k: int, table: str = "vecs", alias: str = "dist") -> str:
    """Brute-force KNN as SQL over a wide table — the DuckDB oracle query.

    Produces ``SELECT id, <sum of squares> AS <alias> FROM t ORDER BY
    <alias>, id LIMIT k``; ties broken by id to keep the oracle
    deterministic.
    """
    terms = " + ".join(
        f"(d{i} - ({float(v)!r})) * (d{i} - ({float(v)!r}))"
        for i, v in enumerate(query)
    )
    return (
        f"SELECT id, {terms} AS {alias} FROM {table} "
        f"ORDER BY {alias} ASC, id ASC LIMIT {k}"
    )

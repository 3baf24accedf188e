"""The Spark PDX KNN operator, checked against the DuckDB oracle.

``test_knn_matches_duckdb_oracle`` goes through the oracle's
``assert_equivalent``: the same KNN is expressed as plain SQL over a
wide (d0…dD−1) table and run on DuckDB; sorted rows must match the Spark
operator's output. The others check ``knn`` against the NumPy ground
truth, and its executor without Spark.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from _oracle import assert_equivalent, knn_sql, to_pandas_wide
from _util import assert_same_topk

from repro import vecdata
from repro.core.pruners import ADSampling, PDXBond
from repro.search.exact import exact_unit_sizes
from repro.spark.layout_ops import vectors_to_blocks
from repro.spark.search_ops import knn, search_partition

K = 10


@pytest.fixture(scope="module")
def ds():
    return vecdata.generate("nytimes16", sf=0.001, n_queries=6, seed=7)


@pytest.fixture(scope="module")
def blocks(spark, ds):
    df = vecdata.to_spark(spark, ds.data)
    return vectors_to_blocks(df).repartition(4).cache()


def test_knn_matches_duckdb_oracle(spark, ds, blocks):
    """Exact linear-scan KNN vs the same query in SQL on DuckDB."""
    wide = to_pandas_wide(ds.data)
    for qi in range(3):
        got = (
            knn(blocks, ds.queries[qi], K)
            .where(F.col("qid") == 0)
            .select("id", F.round("dist", 4).alias("dist"))
        )
        inner = knn_sql(ds.queries[qi], K, table="vecs", alias="exact_dist")
        sql = f"SELECT id, ROUND(exact_dist, 4) AS dist FROM ({inner}) t"
        assert_equivalent(got, sql, vecs=wide)


def test_knn_bond_matches_ground_truth(ds, blocks):
    gt_ids, gt_d = vecdata.ground_truth(ds.data, ds.queries, K)
    bond = PDXBond(ds.dim, order="means")
    out = knn(blocks, ds.queries, K, bond).toPandas()
    for qi in range(len(ds.queries)):
        rows = out[out["qid"] == qi].sort_values(["dist", "id"])
        assert_same_topk(
            rows["id"].to_numpy(), rows["dist"].to_numpy(), gt_ids[qi], gt_d[qi]
        )


def test_knn_multiquery_shape(ds, blocks):
    out = knn(blocks, ds.queries, K).toPandas()
    assert set(out["qid"].unique()) == set(range(len(ds.queries)))
    assert (out.groupby("qid").size() == K).all()


def test_knn_ads_recall_on_spark(spark, ds):
    ads = ADSampling(ds.dim, seed=2)
    df = vecdata.to_spark(spark, ads.transform_data(ds.data))
    tblocks = vectors_to_blocks(df).repartition(3)
    gt_ids, _ = vecdata.ground_truth(ds.data, ds.queries, K)
    out = knn(tblocks, ds.queries, K, ads).toPandas()
    found = np.stack(
        [
            out[out["qid"] == qi].sort_values(["dist", "id"])["id"].to_numpy()
            for qi in range(len(ds.queries))
        ]
    )
    assert vecdata.recall_at_k(found, gt_ids) >= 0.9


def test_knn_exact_across_partitionings(spark, ds):
    """Partition count must not change the exact result (per-partition
    thresholds prune only partition-local losers)."""
    df = vecdata.to_spark(spark, ds.data)
    gt_ids, gt_d = vecdata.ground_truth(ds.data, ds.queries[:2], K)
    for parts in (1, 7):
        blocks = vectors_to_blocks(df).repartition(parts)
        out = knn(blocks, ds.queries[:2], K, PDXBond(ds.dim)).toPandas()
        for qi in range(2):
            rows = out[out["qid"] == qi].sort_values(["dist", "id"])
            assert_same_topk(
                rows["id"].to_numpy(), rows["dist"].to_numpy(), gt_ids[qi], gt_d[qi]
            )


def test_knn_single_query_1d_input(ds, blocks):
    out = knn(blocks, ds.queries[0], 5).toPandas()
    assert len(out) == 5
    assert (out["qid"] == 0).all()


class _RecordingBond(PDXBond):
    """PDX-BOND that records the dimension means ``prepare`` is given."""

    def __init__(self, dim):
        super().__init__(dim, order="means")
        self.means = []

    def prepare(self, query, meta=None):
        self.means.append(meta.dim_means)
        return super().prepare(query, meta)


def test_executor_reads_every_batch_of_its_partition(ds, blocks):
    """One partition's block rows, as one Arrow batch or as three, give
    the same rows, and PDX-BOND orders by the means of all its vectors."""
    rows = blocks.toPandas()
    want_means = ds.data.astype(np.float64).mean(axis=0).astype(np.float32)
    frames = []
    for parts in (1, 3):
        bond = _RecordingBond(ds.dim)
        batches = [rows.iloc[idx] for idx in np.array_split(np.arange(len(rows)), parts)]
        frames.append(pd.concat(search_partition(iter(batches), ds.queries, K, bond)))
        assert len(bond.means) == len(ds.queries)
        for means in bond.means:
            np.testing.assert_array_equal(means, want_means)
    pd.testing.assert_frame_equal(frames[0], frames[1])
    assert list(search_partition(iter([]), ds.queries, K, PDXBond(ds.dim))) == []


def test_executor_searches_in_exact_search_units(ds, blocks, monkeypatch):
    """The executor lays its partition out in the units of
    ``exact_unit_sizes`` (not the 64-vector block rows), holding every
    vector once with its own data, and stays exact."""
    from repro.spark import search_ops

    rows = blocks.toPandas()
    seen, search = [], search_ops.pdxearch

    def recorded(coll, *args):
        seen.append(coll)
        return search(coll, *args)

    monkeypatch.setattr(search_ops, "pdxearch", recorded)
    out = pd.concat(search_partition(iter([rows]), ds.queries, K, PDXBond(ds.dim)))
    assert len(seen) == len(ds.queries)
    units = seen[0].blocks
    assert [u.n for u in units] == exact_unit_sizes(len(ds.data))
    assert all(u.data.flags.c_contiguous for u in units)
    ids = np.concatenate([u.ids for u in units])
    assert sorted(ids.tolist()) == list(range(len(ds.data)))
    data = np.hstack([u.data for u in units])
    np.testing.assert_array_equal(data.T, ds.data[ids].astype(np.float32))
    np.testing.assert_allclose(
        np.concatenate([u.norms for u in units]),
        (ds.data[ids].astype(np.float64) ** 2).sum(axis=1), rtol=1e-5,
    )
    gt_ids, gt_d = vecdata.ground_truth(ds.data, ds.queries, K)
    for qi in range(len(ds.queries)):
        got = out[out["qid"] == qi].sort_values(["dist", "id"])
        assert_same_topk(got["id"].to_numpy(), got["dist"].to_numpy(), gt_ids[qi], gt_d[qi])

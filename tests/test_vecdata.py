"""Tests for the Table 1 dataset stand-ins and the KNN ground-truth oracle."""
import os
import subprocess
import sys

import duckdb
import numpy as np
import pytest

from _oracle import knn_sql, to_pandas_wide
from repro import vecdata

ALL = sorted(vecdata.DATASETS)


def test_registry_has_all_ten():
    assert len(vecdata.DATASETS) == 10


@pytest.mark.parametrize(
    "name,dim",
    [
        ("nytimes16", 16),
        ("glove50", 50),
        ("deep96", 96),
        ("sift128", 128),
        ("glove200", 200),
        ("msong420", 420),
        ("contriever768", 768),
        ("arxiv768", 768),
        ("gist960", 960),
        ("openai1536", 1536),
    ],
)
def test_paper_dimensionalities(name, dim):
    assert vecdata.DATASETS[name].dim == dim


@pytest.mark.parametrize("name", ALL)
def test_generate_shapes_and_dtype(name):
    ds = vecdata.generate(name, sf=0.0005, n_queries=7)
    assert ds.data.dtype == np.float32 and ds.data.flags.c_contiguous
    assert ds.dim == vecdata.DATASETS[name].dim
    assert ds.queries.shape == (7, ds.dim)
    assert ds.n >= 256


@pytest.mark.parametrize("name", ALL)
def test_generate_deterministic(name):
    a = vecdata.generate(name, sf=0.0005, seed=3)
    b = vecdata.generate(name, sf=0.0005, seed=3)
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(a.queries, b.queries)


def test_generate_identical_across_processes(tmp_path):
    """The generator seed must not depend on Python's per-process hash salt."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
        "from repro import vecdata; ds = vecdata.generate('glove50', sf=0.001); "
        "np.save(sys.argv[2], np.concatenate([ds.data, ds.queries]))"
    )
    arrays = []
    for hashseed in ("1", "2"):
        out = str(tmp_path / f"glove50-{hashseed}.npy")
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        subprocess.run([sys.executable, "-c", code, src, out], env=env, check=True, timeout=300)
        arrays.append(np.load(out))
    assert arrays[0].tobytes() == arrays[1].tobytes()


def test_different_seeds_differ():
    a = vecdata.generate("glove50", sf=0.0005, seed=0)
    b = vecdata.generate("glove50", sf=0.0005, seed=1)
    assert not np.array_equal(a.data, b.data)


@pytest.mark.parametrize("name", ["sift128", "gist960", "msong420", "openai1536"])
def test_skewed_datasets_are_right_skewed(name):
    ds = vecdata.generate(name, sf=0.001)
    x = ds.data.astype(np.float64)
    skew = ((x - x.mean(0)) ** 3).mean(0) / (x.std(0) ** 3 + 1e-12)
    assert np.median(skew) > 0.5  # clearly right-skewed dimensions


@pytest.mark.parametrize("name", ["glove50", "deep96", "contriever768", "nytimes16"])
def test_normal_datasets_low_skew(name):
    ds = vecdata.generate(name, sf=0.001)
    x = ds.data.astype(np.float64)
    skew = ((x - x.mean(0)) ** 3).mean(0) / (x.std(0) ** 3 + 1e-12)
    assert abs(np.median(skew)) < 0.3


def test_sift_is_integral_nonnegative():
    ds = vecdata.generate("sift128", sf=0.001)
    assert np.all(ds.data >= 0)
    np.testing.assert_array_equal(ds.data, np.floor(ds.data))


def test_random_collection_deterministic():
    a = vecdata.random_collection(128, 8, seed=5)
    b = vecdata.random_collection(128, 8, seed=5)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (128, 8) and a.dtype == np.float32


# ---------------------------------------------------------------- ground truth

def _naive_gt(x, q, k):
    d = ((x.astype(np.float64) - q.astype(np.float64)) ** 2).sum(axis=1)
    ids = np.argsort(d, kind="stable")[:k]
    return ids, d[ids]


@pytest.mark.parametrize("k", [1, 5, 10])
def test_ground_truth_matches_naive(k):
    ds = vecdata.generate("glove50", sf=0.0005, n_queries=5)
    ids, dists = vecdata.ground_truth(ds.data, ds.queries, k)
    for qi, q in enumerate(ds.queries):
        nids, nd = _naive_gt(ds.data, q, k)
        np.testing.assert_allclose(dists[qi], nd, rtol=1e-5)
        # ids may differ only within exact distance ties
        np.testing.assert_allclose(
            ((ds.data[ids[qi]].astype(np.float64) - q) ** 2).sum(1), nd, rtol=1e-5
        )


def test_recall_at_k():
    truth = np.array([[1, 2, 3, 4]])
    assert vecdata.recall_at_k(np.array([[1, 2, 3, 4]]), truth) == 1.0
    assert vecdata.recall_at_k(np.array([[1, 2, 9, 8]]), truth) == 0.5
    assert vecdata.recall_at_k(np.array([[7, 8, 9, 6]]), truth) == 0.0


def test_recall_at_k_ragged_results_count_missing_ids_as_misses():
    truth = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
    assert vecdata.recall_at_k([np.array([1, 2]), np.array([5, 6, 7, 8])], truth) == 0.75
    assert vecdata.recall_at_k([np.array([], dtype=np.int64), [9]], truth) == 0.0
    with pytest.raises(ValueError):
        vecdata.recall_at_k([np.array([1, 2, 3, 4, 5]), np.array([5])], truth)
    with pytest.raises(ValueError):
        vecdata.recall_at_k([np.array([1])], truth)


def test_knn_sql_matches_ground_truth_duckdb():
    ds = vecdata.generate("nytimes16", sf=0.001, n_queries=3)
    gt_ids, gt_d = vecdata.ground_truth(ds.data, ds.queries, 5)
    wide = to_pandas_wide(ds.data)
    con = duckdb.connect()
    con.register("vecs", wide)
    for qi, q in enumerate(ds.queries):
        res = con.execute(knn_sql(q, 5)).fetchdf()
        np.testing.assert_allclose(res["dist"].to_numpy(), gt_d[qi], rtol=1e-5)
    con.close()


def test_to_spark_roundtrip(spark):
    ds = vecdata.generate("nytimes16", sf=0.001)
    df = vecdata.to_spark(spark, ds.data[:50])
    back = df.orderBy("id").toPandas()
    mat = np.array(back["vec"].tolist(), dtype=np.float32)
    np.testing.assert_allclose(mat, ds.data[:50], rtol=1e-6)


@pytest.mark.parametrize("arrow", ["true", "false"])
def test_to_spark_emits_float_arrays(spark, arrow):
    data = vecdata.generate("nytimes16", sf=0.001).data[:20]
    key = "spark.sql.execution.arrow.pyspark.enabled"
    before = spark.conf.get(key)
    spark.conf.set(key, arrow)
    try:
        df = vecdata.to_spark(spark, data)
        assert df.schema.simpleString() == "struct<id:bigint,vec:array<float>>"
        back = df.orderBy("id").toPandas()
    finally:
        spark.conf.set(key, before)
    np.testing.assert_array_equal(np.stack(back["vec"].to_list()), data)

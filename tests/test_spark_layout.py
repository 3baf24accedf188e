"""Spark-side PDX block construction (applyInPandas group transform)."""
import numpy as np
import pytest

from repro import vecdata
from repro.core.layout import build_pdx
from repro.spark.layout_ops import rows_to_pdx_blocks, vectors_to_blocks


@pytest.fixture(scope="module")
def ds():
    return vecdata.generate("nytimes16", sf=0.001, n_queries=5, seed=6)


@pytest.fixture(scope="module")
def blocks_pdf(spark, ds):
    df = vecdata.to_spark(spark, ds.data)
    return vectors_to_blocks(df).toPandas()


def test_block_count_and_sizes(ds, blocks_pdf):
    n = ds.n
    want_blocks = (n + 63) // 64
    assert len(blocks_pdf) == want_blocks
    sizes = blocks_pdf.sort_values("block_id")["n"].tolist()
    assert sizes[:-1] == [64] * (want_blocks - 1)
    assert sum(sizes) == n


def test_blocks_match_local_build(ds, blocks_pdf):
    local = build_pdx(ds.data, block_size=64)
    remote = rows_to_pdx_blocks(blocks_pdf.sort_values("block_id"))
    assert len(local.blocks) == len(remote)
    for lb, rb in zip(local.blocks, remote):
        np.testing.assert_array_equal(lb.ids, rb.ids)
        np.testing.assert_array_equal(lb.data, rb.data)
        np.testing.assert_array_equal(lb.norms, rb.norms)
        np.testing.assert_array_equal(lb.means, rb.means)


def test_block_data_dimension_major(ds, blocks_pdf):
    row = blocks_pdf.sort_values("block_id").iloc[0]
    n = int(row["n"])
    mat = np.asarray(row["data"]).reshape(ds.dim, n)
    np.testing.assert_allclose(mat[:, 0], ds.data[0], rtol=1e-6)
    np.testing.assert_allclose(mat[3], ds.data[:n, 3], rtol=1e-6)


def test_ragged_last_block_roundtrip(spark):
    ds = vecdata.generate("nytimes16", sf=0.001)
    df = vecdata.to_spark(spark, ds.data[:70])
    pdf = vectors_to_blocks(df).toPandas().sort_values("block_id")
    blocks = rows_to_pdx_blocks(pdf)
    assert [b.n for b in blocks] == [64, 6]
    back = np.vstack([b.data.T for b in blocks])
    np.testing.assert_allclose(back, ds.data[:70], rtol=1e-6)

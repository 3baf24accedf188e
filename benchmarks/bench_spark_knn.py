"""The Spark DataFrame PDX KNN operator end-to-end (layout build once,
search benchmarked) — the per-partition columnar operator of DESIGN §2."""
import pytest

from repro import vecdata
from repro.core.pruners import PDXBond
from repro.spark.layout_ops import vectors_to_blocks
from repro.spark.search_ops import knn


@pytest.fixture(scope="module")
def spark_blocks(spark, bench_datasets):
    data, queries = bench_datasets("glove50", sf=0.005, n_queries=5)
    df = vecdata.to_spark(spark, data)
    blocks = vectors_to_blocks(df).repartition(8).cache()
    blocks.count()  # materialize the cache outside the benchmark
    return blocks, data, queries


def test_spark_pdx_bond_knn(benchmark, spark_blocks):
    blocks, data, queries = spark_blocks
    bond = PDXBond(data.shape[1], order="means")

    def run():
        knn(blocks, queries, 10, bond).collect()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_spark_linear_knn(benchmark, spark_blocks):
    blocks, data, queries = spark_blocks

    def run():
        knn(blocks, queries, 10).collect()

    benchmark.pedantic(run, rounds=3, iterations=1)

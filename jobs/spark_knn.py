"""spark-submit entrypoint: end-to-end PDX KNN as a DataFrame operator.

Builds PDX blocks from a vector DataFrame (applyInPandas), runs the
PDX-BOND exact search operator (mapInPandas + window top-k), and prints
the result with its recall against brute-force ground truth.

Run: ``spark-submit jobs/spark_knn.py`` or ``python jobs/spark_knn.py``.
"""
import argparse

import numpy as np
from pyspark.sql import SparkSession

from repro import vecdata
from repro.core.pruners import PDXBond
from repro.spark.layout_ops import vectors_to_blocks
from repro.spark.search_ops import knn


def run(spark: SparkSession, *, dataset: str = "glove50", sf: float = 0.005, k: int = 10):
    ds = vecdata.generate(dataset, sf=sf, n_queries=10)
    df = vecdata.to_spark(spark, ds.data)
    blocks = vectors_to_blocks(df).repartition(8).cache()
    result = knn(blocks, ds.queries, k, PDXBond(ds.dim, order="means"))
    out = result.toPandas()
    gt_ids, _ = vecdata.ground_truth(ds.data, ds.queries, k)
    found = np.stack(
        [
            out[out["qid"] == qi].sort_values(["dist", "id"])["id"].to_numpy()
            for qi in range(len(ds.queries))
        ]
    )
    return out, vecdata.recall_at_k(found, gt_ids)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="glove50")
    ap.add_argument("--sf", type=float, default=0.005)
    ap.add_argument("--k", type=int, default=10)
    args = ap.parse_args()
    spark = (
        SparkSession.builder.appName("pdx-knn")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    out, recall = run(spark, dataset=args.dataset, sf=args.sf, k=args.k)
    print(out.head(20).to_string(index=False))
    print(f"\nexact-search recall vs brute force: {recall}")
    spark.stop()


if __name__ == "__main__":
    main()

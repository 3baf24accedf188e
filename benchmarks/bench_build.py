"""Index build cost, layer by layer: the BSA PCA fit and IVF k-means.

- ``PCAProjection.fit`` on the gist960 stand-in (10 k × 960), which
  samples ``PCA_SAMPLE`` = 4096 rows, the shape BSA fits on in the
  perfbench ``exact-gist960`` set-up.
- ``kmeans`` at the perfbench ``ivf-glove50`` shape: 50 k × 50 vectors,
  158 lists, ``kmeans.ITERS`` = 8 iterations at most.

Run: ``python -m pytest benchmarks/bench_build.py --benchmark-only``
"""
from repro.core.projections import PCAProjection
from repro.ivf.kmeans import kmeans

GLOVE50_N = 50_000
GLOVE50_NLIST = 158


def test_pca_fit_gist960(benchmark, bench_datasets):
    x, _ = bench_datasets("gist960", sf=0.01, n_queries=10)
    benchmark.pedantic(PCAProjection.fit, args=(x,), rounds=3, iterations=1)


def test_kmeans_glove50(benchmark, bench_datasets):
    x, _ = bench_datasets("glove50", sf=0.0423, n_queries=10)
    x = x[:GLOVE50_N]
    benchmark.pedantic(kmeans, args=(x, GLOVE50_NLIST), rounds=3, iterations=1)

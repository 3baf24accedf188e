"""IVF search per query: every ``IVFPDXSearcher`` pruner, the N-ary
(horizontal) Δd-stepped ADS/BSA searches and IVF_FLAT (the N-ary linear
bucket scan) over the same index at nprobe 8, at D = 50 and D = 1536 —
the searchers of Table 7. At low D a bucket is cheap to scan, so
per-unit dispatch (START's cut, kernel and predicate calls) decides the
ratio to IVF_FLAT; at high D the kernels do.

Run: ``python -m pytest benchmarks/bench_ivf_search.py --benchmark-only``
"""
import pytest

from repro.core.pruners import ADSampling, BSA, PDXBond, Pruner
from repro.ivf.index import IVFNarySearcher, IVFPDXSearcher, build_ivf

NPROBE = 8
K = 10
#: dataset -> scale factor: ~50 k vectors at D = 50, ~10 k at D = 1536.
DATASETS = {"glove50": 0.042, "openai1536": 0.01}


@pytest.fixture(scope="module", params=list(DATASETS))
def setup(request, bench_datasets):
    data, queries = bench_datasets(request.param, sf=DATASETS[request.param], n_queries=20)
    return data, queries, build_ivf(data, seed=0)


def _run_all(searcher, queries, **kw):
    for q in queries:
        searcher.search(q, K, nprobe=NPROBE, **kw)


@pytest.mark.parametrize(
    "layout, algo",
    [("pdx", a) for a in ("ads", "bsa", "bond", "linear")] + [("nary", a) for a in ("ads", "bsa")],
)
def test_ivf_search(benchmark, setup, layout, algo):
    data, queries, index = setup
    dim = data.shape[1]
    pruner = {
        "ads": lambda: ADSampling(dim, seed=0),
        "bsa": lambda: BSA(dim).fit(data),
        "bond": lambda: PDXBond(dim, order="zones"),
        "linear": lambda: Pruner(dim),
    }[algo]()
    s = {"pdx": IVFPDXSearcher, "nary": IVFNarySearcher}[layout](index, data, pruner)
    benchmark.pedantic(_run_all, args=(s, queries), rounds=3, iterations=1)


def test_ivf_flat_search(benchmark, setup):
    data, queries, index = setup
    s = IVFNarySearcher(index, data, Pruner(data.shape[1]))
    benchmark.pedantic(_run_all, args=(s, queries), kwargs={"pruned": False}, rounds=3, iterations=1)

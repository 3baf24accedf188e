"""Exact-search competitors (§6.5 / Figure 9 machinery): per-query
latency of every layout's exact KNN on the five ~10 k-vector stand-ins
of the EXPERIMENTS.md exact-search table (PDX-BOND / PDX linear scan vs
N-ary and DSM scans).

Run: ``python -m pytest benchmarks/bench_exact_search.py --benchmark-only``
"""
import pytest

from repro.core.layout import build_pdx, to_dsm
from repro.core.pdxearch import pdx_linear_scan
from repro.search.exact import (
    brute_force_dsm,
    brute_force_nary,
    build_exact_collection,
    pdx_bond_search,
)

K = 10
DATASETS = ["openai1536", "gist960", "contriever768", "msong420", "glove50"]


@pytest.fixture(scope="module", params=DATASETS)
def data(request, bench_datasets):
    return request.param, *bench_datasets(request.param, sf=0.01, n_queries=10)


def test_nary_scan(benchmark, data):
    _, x, queries = data

    def run():
        for q in queries:
            brute_force_nary(x, q, K)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_dsm_scan(benchmark, data):
    _, x, queries = data
    dm = to_dsm(x)

    def run():
        for q in queries:
            brute_force_dsm(dm, q, K)

    benchmark.pedantic(run, rounds=3, iterations=1)


# Exact-search collections: the default growing units ("partitions"),
# 16 equal partitions with the same START prefix (so one run compares
# equal and growing units) and 64-vector blocks (one kernel call per
# block: the per-call dispatch cost at low D); the last two are plain
# build_pdx partitionings.
def _exact_collection(x, case):
    if case == "partitions":
        return build_exact_collection(x)
    return build_pdx(x, block_size={"uniform": len(x) // 16, "blocks64": 64}[case])


@pytest.mark.parametrize("case", ["partitions", "uniform", "blocks64"])
def test_pdx_linear_scan(benchmark, data, case):
    _, x, queries = data
    coll = _exact_collection(x, case)

    def run():
        for q in queries:
            pdx_linear_scan(coll, q, K)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("case", ["partitions", "uniform"])
def test_pdx_bond(benchmark, data, case):
    _, x, queries = data
    coll = _exact_collection(x, case)

    def run():
        for q in queries:
            pdx_bond_search(coll, q, K)

    benchmark.pedantic(run, rounds=3, iterations=1)

"""Shared fixtures for the benchmark suite (pytest-benchmark).

Benchmarks run at SF≈0.01–0.02 (tens of thousands of vectors) so a full
``pytest benchmarks/ --benchmark-only`` stays in the minutes range.
"""
import pytest

from repro import vecdata


@pytest.fixture(scope="session")
def bench_datasets():
    """Generated once per session: dataset name -> (data, queries)."""
    cache = {}

    def get(name: str, sf: float = 0.01, n_queries: int = 20):
        key = (name, sf, n_queries)
        if key not in cache:
            ds = vecdata.generate(name, sf=sf, n_queries=n_queries, seed=0)
            cache[key] = (ds.data, ds.queries)
        return cache[key]

    return get

"""Exact-search drivers on all layouts (the §6.5 competitors)."""
import itertools
import tracemalloc

import numpy as np
import pytest

from _util import assert_same_topk

from repro import vecdata
from repro.core.kernels import PASS_VALUES, l2_nary
from repro.core.layout import build_pdx, to_dsm
from repro.core.pdxearch import pdx_linear_scan, pdxearch
from repro.core.pruners import ADSampling, PDXBond
from repro.core.topk import smallest
from repro.core.trace import Trace
from repro.search.exact import (
    brute_force_dsm,
    brute_force_nary,
    build_exact_collection,
    pdx_bond_search,
)

NAMES = ["nytimes16", "glove50", "sift128", "msong420"]


@pytest.fixture(scope="module", params=NAMES)
def dataset(request):
    ds = vecdata.generate(request.param, sf=0.001, n_queries=10, seed=2)
    gt = vecdata.ground_truth(ds.data, ds.queries, 10)
    return ds, gt


def test_brute_force_nary_matches_gt(dataset):
    ds, (gt_ids, gt_d) = dataset
    for qi, q in enumerate(ds.queries):
        ids, dists = brute_force_nary(ds.data, q, 10)
        np.testing.assert_array_equal(ids, gt_ids[qi])
        np.testing.assert_allclose(dists, gt_d[qi], rtol=1e-3)


def test_brute_force_dsm_matches_gt(dataset):
    ds, (gt_ids, _) = dataset
    dm = to_dsm(ds.data)
    for qi, q in enumerate(ds.queries):
        ids, _ = brute_force_dsm(dm, q, 10)
        np.testing.assert_array_equal(ids, gt_ids[qi])


@pytest.mark.parametrize("order", ["means", "zones"])
def test_pdx_bond_exact(dataset, order):
    ds, (gt_ids, gt_d) = dataset
    coll = build_pdx(ds.data, block_size=500)
    for qi, q in enumerate(ds.queries):
        ids, dists = pdxearch(coll, q, 10, PDXBond(ds.dim, order=order))
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


@pytest.mark.parametrize("order", ["means", "zones"])
def test_pdx_bond_exact_default_units(dataset, order):
    """The default growing units; on sift128's 1000 vectors they are
    ragged: 64, 64, 128, 256, 488."""
    ds, (gt_ids, gt_d) = dataset
    coll = build_exact_collection(ds.data)
    for qi, q in enumerate(ds.queries):
        ids, dists = pdxearch(coll, q, 10, PDXBond(ds.dim, order=order))
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


def test_exact_collection_units_double():
    """The first unit holds 1/16 of the collection (64 to 10 k vectors);
    each later one as many as all before it, up to 10 k and the rest."""
    cases = {
        10_000: [625, 625, 1250, 2500, 5000],
        2048: [128, 128, 256, 512, 1024],
        1000: [64, 64, 128, 256, 488],
        100: [64, 36],
        1: [1],
        160_000: [10_000] * 16,
    }
    for n, sizes in cases.items():
        data = np.arange(n, dtype=np.float32)[:, None]
        coll = build_exact_collection(data)
        assert [b.n for b in coll.blocks] == sizes, n
        ids = np.concatenate([b.ids for b in coll.blocks])
        np.testing.assert_array_equal(ids, np.arange(n))
        values = np.concatenate([b.data[0] for b in coll.blocks])
        np.testing.assert_array_equal(values, data[:, 0])


def test_bond_timers(dataset):
    ds, _ = dataset
    coll = build_pdx(ds.data, block_size=500)
    trace = Trace()
    pdx_bond_search(coll, ds.queries[0], 10, trace=trace)
    assert trace.seconds["distance"] > 0


def test_topk_k_exceeds_n():
    ds = vecdata.generate("nytimes16", sf=0.001)
    ids, _ = brute_force_nary(ds.data[:7], ds.queries[0], 20)
    assert len(ids) == 7


def test_tied_distances_return_smallest_ids():
    """On 0/1 data hundreds of vectors tie at each distance; every exact
    scan returns the smallest tied ids, as the oracle does."""
    data = np.random.default_rng(0).integers(0, 2, (3000, 4)).astype(np.float32)
    corners = np.array(list(itertools.product([0, 1], repeat=4)), dtype=np.float32)
    gt_ids, gt_d = vecdata.ground_truth(data, corners, 10)
    dm, coll = to_dsm(data), build_exact_collection(data)
    searchers = {
        "nary": lambda q: brute_force_nary(data, q, 10),
        "dsm": lambda q: brute_force_dsm(dm, q, 10),
        "linear": lambda q: pdx_linear_scan(coll, q, 10),
        "bond": lambda q: pdx_bond_search(coll, q, 10),
    }
    for qi, q in enumerate(corners):
        for name, search in searchers.items():
            ids, dists = search(q)
            np.testing.assert_array_equal(ids, gt_ids[qi], err_msg=name)
            np.testing.assert_array_equal(dists, gt_d[qi], err_msg=name)


@pytest.mark.parametrize(
    "n, dim",
    [(1000, 96), (13, 10_000), (5, PASS_VALUES + 3), (3, PASS_VALUES + 3), (1, 96), (0, 96)],
    ids=[
        "ragged-last-pass-l2", "lone-last-row-l2", "wider-than-a-pass-l2", "one-pass-l2",
        "one-row-l2", "empty-l2",
    ],
)
def test_brute_force_nary_passes_equal_one_kernel_call(n, dim):
    """Scanning rows in passes gives the distances of one kernel call over
    all rows, bit for bit (k = n compares every distance). Past 8192
    dimensions einsum sums a lone row in another order, so the wide cases
    fail if a pass ever holds a single row."""
    rng = np.random.default_rng(11)
    data = rng.standard_normal((n, dim)).astype(np.float32)
    q = rng.standard_normal(dim).astype(np.float32)
    want_ids, want_d = smallest(np.arange(n, dtype=np.int64), l2_nary(data, q), n)
    ids, d = brute_force_nary(data, q, n)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(d, want_d)


def test_exact_searchers_allocate_little_per_query():
    """Every searcher works in bounded passes: none allocates more than
    1 MB at once per query over a 10 k × 960 (38 MB) collection."""
    ds = vecdata.generate("gist960", sf=0.01, n_queries=3, seed=0)
    assert ds.data.shape == (10_000, 960)
    coll = build_exact_collection(ds.data)
    ads = ADSampling(ds.dim, seed=0)
    ads_coll = build_exact_collection(ads.transform_data(ds.data))
    searchers = {
        "nary": lambda q: brute_force_nary(ds.data, q, 10),
        "linear": lambda q: pdx_linear_scan(coll, q, 10),
        "bond": lambda q: pdx_bond_search(coll, q, 10),
        "ads": lambda q: pdxearch(ads_coll, q, 10, ads),
    }
    tracemalloc.start()
    try:
        for name, search in searchers.items():
            for q in ds.queries:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                search(q)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak < 1 << 20, f"{name}: {peak / 2**20:.1f} MB"
    finally:
        tracemalloc.stop()

"""PDXearch framework: scheduling, exactness, recall preservation."""
import numpy as np
import pytest

from _util import assert_same_topk

from repro import vecdata
from repro.core import pdxearch as pdxearch_module
from repro.core.layout import build_pdx
from repro.core.pdxearch import dimension_steps, pdx_linear_scan, pdxearch
from repro.core.pruners import ADSampling, BSA, PDXBond, Pruner
from repro.core.trace import Trace
from repro.search.exact import build_exact_collection
from repro.vecdata import random_collection

SMALL = ["nytimes16", "glove50", "deep96", "sift128"]


@pytest.fixture(scope="module")
def glove():
    ds = vecdata.generate("glove50", sf=0.002, n_queries=25, seed=1)
    gt = vecdata.ground_truth(ds.data, ds.queries, 10)
    return ds, gt


# ------------------------------------------------------------------ schedule

def test_dimension_steps_adaptive_doubles():
    assert dimension_steps(30) == [2, 4, 8, 16]
    assert dimension_steps(2) == [2]
    assert sum(dimension_steps(1536)) == 1536


@pytest.mark.parametrize("dim", [1, 7, 16, 50, 768, 1536])
def test_dimension_steps_cover_all_dims(dim):
    assert sum(dimension_steps(dim)) == dim


# ----------------------------------------------------------------- exactness

# Partitionings: the paper's 64-vector blocks, 96 (a ragged tail on every
# SMALL dataset), one partition, and build_exact_collection's default
# growing units (ragged on sift128's 1000 vectors: 64, 64, 128, 256, 488).
PARTITIONINGS = [pytest.param(name, 64, id=name) for name in SMALL] + [
    pytest.param(name, size, id=f"{name}-{size}")
    for name in SMALL
    for size in (96, "single", "exact-default")
]


@pytest.mark.parametrize("name,block_size", PARTITIONINGS)
def test_linear_scan_equals_ground_truth(name, block_size):
    ds = vecdata.generate(name, sf=0.001, n_queries=10)
    gt_ids, gt_d = vecdata.ground_truth(ds.data, ds.queries, 10)
    if block_size == "exact-default":
        ids = np.arange(ds.n)
        coll = build_exact_collection(ds.data)
    else:
        ids = np.arange(ds.n) + 5000  # custom ids must come back out
        size = ds.n if block_size == "single" else block_size
        coll = build_pdx(ds.data, ids=ids, block_size=size)
    for qi, q in enumerate(ds.queries):
        got, dists = pdx_linear_scan(coll, q, 10)
        assert_same_topk(got, dists, ids[gt_ids[qi]], gt_d[qi])


@pytest.mark.parametrize("order", ["means", "zones"])
def test_bond_exact_all_orders(order, glove):
    ds, (gt_ids, gt_d) = glove
    coll = build_pdx(ds.data)
    bond = PDXBond(ds.dim, order=order)
    for qi, q in enumerate(ds.queries):
        ids, dists = pdxearch(coll, q, 10, bond)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


@pytest.mark.parametrize("name", SMALL)
def test_bond_exact_across_datasets(name):
    ds = vecdata.generate(name, sf=0.001, n_queries=8)
    gt_ids, gt_d = vecdata.ground_truth(ds.data, ds.queries, 10)
    coll = build_pdx(ds.data)
    bond = PDXBond(ds.dim, order="means")
    for qi, q in enumerate(ds.queries):
        ids, dists = pdxearch(coll, q, 10, bond)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


@pytest.mark.parametrize("frac", [0.05, 0.2, 0.5])
def test_bond_exact_any_selection_fraction(frac, glove, monkeypatch):
    """The PRUNE-phase switch point is a performance knob, never a
    correctness knob (§6.6)."""
    monkeypatch.setattr("repro.core.pdxearch.SELECTION_FRACTION", frac)
    ds, (gt_ids, gt_d) = glove
    coll = build_pdx(ds.data)
    bond = PDXBond(ds.dim, order="means")
    for qi, q in enumerate(ds.queries[:10]):
        ids, dists = pdxearch(coll, q, 10, bond)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


def test_bond_exact_large_blocks(glove):
    ds, (gt_ids, gt_d) = glove
    coll = build_pdx(ds.data, block_size=1000)  # exact-search partitioning
    bond = PDXBond(ds.dim, order="means")
    for qi, q in enumerate(ds.queries[:10]):
        ids, dists = pdxearch(coll, q, 10, bond)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


# -------------------------------------------------------------------- recall

@pytest.mark.parametrize("name", SMALL)
def test_adsampling_recall(name):
    ds = vecdata.generate(name, sf=0.001, n_queries=15)
    gt_ids, _ = vecdata.ground_truth(ds.data, ds.queries, 10)
    ads = ADSampling(ds.dim, seed=0)
    coll = build_pdx(ads.transform_data(ds.data))
    found = np.stack([pdxearch(coll, q, 10, ads)[0] for q in ds.queries])
    assert vecdata.recall_at_k(found, gt_ids) >= 0.95


@pytest.mark.parametrize("name", SMALL)
def test_bsa_recall(name):
    ds = vecdata.generate(name, sf=0.001, n_queries=15)
    gt_ids, _ = vecdata.ground_truth(ds.data, ds.queries, 10)
    bsa = BSA(ds.dim).fit(ds.data)
    coll = build_pdx(bsa.transform_data(ds.data))
    found = np.stack([pdxearch(coll, q, 10, bsa)[0] for q in ds.queries])
    assert vecdata.recall_at_k(found, gt_ids) >= 0.95


def test_linear_pruner_in_framework_is_exact(glove):
    ds, (gt_ids, gt_d) = glove
    coll = build_pdx(ds.data)
    lin = Pruner(ds.dim)
    for qi, q in enumerate(ds.queries[:10]):
        ids, dists = pdxearch(coll, q, 10, lin)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


# -------------------------------------------------------------------- timers

def test_timers_populated(glove):
    ds, _ = glove
    bond = PDXBond(ds.dim, order="means")
    coll = build_pdx(ds.data)
    trace = Trace()
    pdxearch(coll, ds.queries[0], 10, bond, trace=trace)
    assert trace.seconds["distance"] > 0
    assert "query_prep" in trace.seconds
    assert trace.seconds.get("bounds", 0.0) >= 0.0


@pytest.mark.parametrize("kind", ["linear", "bond", "ads", "bsa"])
def test_one_dimension(kind):
    """D = 1: the first step reaches the full distance, so no predicate
    runs; exact pruners equal brute force and ADS/BSA return k ids."""
    data = random_collection(300, 1, seed=3)
    queries = random_collection(5, 1, seed=4)
    gt_ids, gt_d = vecdata.ground_truth(data, queries, 10)
    pruner = {
        "linear": lambda: Pruner(1),
        "bond": lambda: PDXBond(1, order="means"),
        "ads": lambda: ADSampling(1, seed=0),
        "bsa": lambda: BSA(1).fit(data),
    }[kind]()
    coll = build_pdx(pruner.transform_data(data))
    for qi, q in enumerate(queries):
        ids, dists = pdxearch(coll, q, 10, pruner)
        if kind in ("linear", "bond"):
            assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])
        else:
            assert len(np.unique(ids)) == 10


def test_k_larger_than_collection(glove):
    ds, _ = glove
    coll = build_pdx(ds.data[:30])
    ids, dists = pdx_linear_scan(coll, ds.queries[0], 50)
    assert len(ids) == 30
    assert np.all(np.diff(dists) >= 0)


@pytest.mark.parametrize(
    "block_size",
    [64, 7, "single", "exact-default", [0, 100, 0, 900, 0]],
    ids=["64", "7", "single", "exact-default", "empty-units"],
)
def test_linear_scan_cuts_once_per_query(block_size, glove, monkeypatch):
    """One certified cut per ``pdx_linear_scan`` query, whatever the
    partitioning."""
    ds, _ = glove
    data = ds.data[:1000]
    if block_size == "exact-default":
        coll = build_exact_collection(data)
    else:
        coll = build_pdx(data, block_size=len(data) if block_size == "single" else block_size)
    calls, cut = [], pdxearch_module.l2_candidates

    def counted(*args):
        calls.append(1)
        return cut(*args)

    monkeypatch.setattr(pdxearch_module, "l2_candidates", counted)
    for q in ds.queries[:5]:
        calls.clear()
        pdx_linear_scan(coll, q, 10)
        assert len(calls) == 1


@pytest.mark.parametrize("k", [0, -1])
def test_linear_scan_rejects_k_below_one(k, glove):
    ds, _ = glove
    with pytest.raises(ValueError):
        pdx_linear_scan(build_pdx(ds.data[:100]), ds.queries[0], k)

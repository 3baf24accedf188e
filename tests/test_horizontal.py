"""Horizontal (N-ary) Δd-stepped pruned search — the SIMD-ADS baseline."""
import numpy as np
import pytest

from _util import assert_same_topk

from repro import vecdata
from repro.core.layout import build_pdx
from repro.core.pruners import ADSampling, PDXBond
from repro.core.topk import TopK
from repro.core.trace import Trace
from repro.search.horizontal import horizontal_pruned_search


@pytest.fixture(scope="module")
def ds():
    d = vecdata.generate("glove50", sf=0.001, n_queries=10, seed=3)
    gt = vecdata.ground_truth(d.data, d.queries, 10)
    return d, gt


@pytest.fixture(scope="module")
def meta(ds):
    """PDX-BOND's metadata; the horizontal scan ignores its dimension order."""
    return build_pdx(ds[0].data)


def test_horizontal_with_exact_pruner_is_exact(ds, meta):
    d, (gt_ids, gt_d) = ds
    bond = PDXBond(d.dim, order="means")
    ids_all = np.arange(d.n, dtype=np.int64)
    for qi, q in enumerate(d.queries):
        ctx = bond.prepare(q, meta)
        heap = TopK(10)
        horizontal_pruned_search(d.data, ids_all, ctx, bond, heap)
        got_ids, got_d = heap.result()
        assert_same_topk(got_ids, got_d, gt_ids[qi], gt_d[qi])


def test_horizontal_ads_recall(ds, monkeypatch):
    monkeypatch.setattr("repro.search.horizontal.DELTA_D", 16)
    d, (gt_ids, _) = ds
    ads = ADSampling(d.dim, seed=0)
    t = ads.transform_data(d.data)
    ids_all = np.arange(d.n, dtype=np.int64)
    found = []
    for q in d.queries:
        ctx = ads.prepare(q)
        heap = TopK(10)
        horizontal_pruned_search(t, ids_all, ctx, ads, heap)
        found.append(heap.result()[0])
    assert vecdata.recall_at_k(np.stack(found), gt_ids) >= 0.95


def test_horizontal_timers(ds, meta):
    d, _ = ds
    bond = PDXBond(d.dim, order="means")
    ctx = bond.prepare(d.queries[0], meta)
    heap = TopK(10)
    trace = Trace()
    horizontal_pruned_search(
        d.data[:200], np.arange(200, dtype=np.int64), ctx, bond, heap, trace=trace
    )
    assert trace.seconds["distance"] > 0


def test_heap_shared_across_calls(ds, meta):
    """Chained bucket scans must keep tightening one heap (IVF use)."""
    d, (gt_ids, gt_d) = ds
    bond = PDXBond(d.dim, order="means")
    ctx = bond.prepare(d.queries[0], meta)
    heap = TopK(10)
    half = d.n // 2
    horizontal_pruned_search(d.data[:half], np.arange(half, dtype=np.int64), ctx, bond, heap)
    horizontal_pruned_search(
        d.data[half:], np.arange(half, d.n, dtype=np.int64), ctx, bond, heap
    )
    got_ids, got_d = heap.result()
    assert_same_topk(got_ids, got_d, gt_ids[0], gt_d[0])

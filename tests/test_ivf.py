"""IVF index substrate + per-algorithm searchers (§6.3 setup)."""
import numpy as np
import pytest

from _util import assert_same_topk

from repro import vecdata
from repro.core import topk
from repro.core.kernels import l2_nary
from repro.core.pruners import ADSampling, BSA, PDXBond, Pruner
from repro.core.topk import TopK
from repro.core.trace import NO_TRACE, Trace
from repro.ivf import index as ivf_index
from repro.ivf.index import IVFIndex, IVFNarySearcher, IVFPDXSearcher, build_ivf


@pytest.fixture(scope="module")
def setup():
    ds = vecdata.generate("deep96", sf=0.0005, n_queries=15, seed=4)
    gt = vecdata.ground_truth(ds.data, ds.queries, 10)
    index = build_ivf(ds.data, seed=0)
    return ds, gt, index


def test_buckets_partition_collection(setup):
    ds, _, index = setup
    all_ids = np.sort(np.concatenate(index.bucket_ids))
    np.testing.assert_array_equal(all_ids, np.arange(ds.n))


def test_default_nlist_sqrt_n(setup):
    ds, _, index = setup
    assert index.nlist == int(np.sqrt(ds.n))


def test_full_probe_exact_pruners_give_ground_truth(setup):
    ds, (gt_ids, gt_d), index = setup
    for pruner in [Pruner(ds.dim), PDXBond(ds.dim, order="zones")]:
        s = IVFPDXSearcher(index, ds.data, pruner)
        for qi, q in enumerate(ds.queries):
            ids, dists = s.search(q, 10, nprobe=index.nlist)
            assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


def test_full_probe_ads_bsa_high_recall(setup):
    ds, (gt_ids, _), index = setup
    for pruner in [ADSampling(ds.dim, seed=0), BSA(ds.dim).fit(ds.data)]:
        s = IVFPDXSearcher(index, ds.data, pruner)
        found = np.stack([s.search(q, 10, nprobe=index.nlist)[0] for q in ds.queries])
        assert vecdata.recall_at_k(found, gt_ids) >= 0.95


def test_recall_monotone_in_nprobe(setup):
    ds, (gt_ids, _), index = setup
    s = IVFPDXSearcher(index, ds.data, PDXBond(ds.dim, order="zones"))
    recalls = []
    for nprobe in (1, 4, 16, index.nlist):
        found = np.stack([s.search(q, 10, nprobe=nprobe)[0] for q in ds.queries])
        recalls.append(vecdata.recall_at_k(found, gt_ids))
    assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] == 1.0


def test_nary_linear_scan_full_probe_exact(setup):
    ds, (gt_ids, gt_d), index = setup
    s = IVFNarySearcher(index, ds.data, Pruner(ds.dim))
    for qi, q in enumerate(ds.queries):
        ids, dists = s.search(q, 10, nprobe=index.nlist, pruned=False)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


def test_nary_and_pdx_same_buckets_same_recall(setup):
    """Same pruning algorithm on the same buckets ⇒ same recall
    regardless of layout (the layout changes speed, not semantics)."""
    ds, (gt_ids, _), index = setup
    ads = ADSampling(ds.dim, seed=0)
    nprobe = 8
    pdx = IVFPDXSearcher(index, ds.data, ads)
    nary = IVFNarySearcher(index, ds.data, ads)
    f_pdx = np.stack([pdx.search(q, 10, nprobe=nprobe)[0] for q in ds.queries])
    f_nary = np.stack([nary.search(q, 10, nprobe=nprobe)[0] for q in ds.queries])
    r_pdx = vecdata.recall_at_k(f_pdx, gt_ids)
    r_nary = vecdata.recall_at_k(f_nary, gt_ids)
    assert abs(r_pdx - r_nary) <= 0.05


def test_search_timers(setup):
    ds, _, index = setup
    s = IVFPDXSearcher(index, ds.data, ADSampling(ds.dim, seed=0))
    trace = Trace()
    s.search(ds.queries[0], 10, nprobe=4, trace=trace)
    assert trace.seconds["query_prep"] > 0
    assert trace.seconds["find_buckets"] > 0
    assert trace.seconds["distance"] > 0


@pytest.mark.parametrize("kind", ["pdx", "nary-pruned", "nary-linear"])
def test_empty_buckets(kind, setup):
    """Every bucket gets an empty twin ranked just before it (same
    centroid, lower index, stable ranking)."""
    ds, (gt_ids, gt_d), index = setup
    empty = np.empty(0, dtype=np.int64)
    twinned = IVFIndex(
        centroids=np.repeat(index.centroids, 2, axis=0),
        bucket_ids=[b for ids in index.bucket_ids for b in (empty, ids)],
    )
    bond = PDXBond(ds.dim, order="zones")
    if kind == "pdx":
        s = IVFPDXSearcher(twinned, ds.data, bond)
        search = s.search
    else:
        s = IVFNarySearcher(twinned, ds.data, bond)
        search = lambda q, k, nprobe: s.search(q, k, nprobe=nprobe, pruned=kind == "nary-pruned")
    bucket_of = np.empty(ds.n, dtype=np.int64)
    for c, ids in enumerate(index.bucket_ids):
        bucket_of[ids] = c
    for qi, q in enumerate(ds.queries):
        assert len(search(q, 10, nprobe=1)[0]) == 0
        ids, _ = search(q, 10, nprobe=2)
        bucket = np.unique(bucket_of[ids])
        assert len(bucket) == 1
        assert len(ids) == min(10, len(index.bucket_ids[bucket[0]]))
        ids, dists = search(q, 10, nprobe=twinned.nlist)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


def test_explicit_nlist():
    ds = vecdata.generate("nytimes16", sf=0.001)
    index = build_ivf(ds.data, nlist=7, seed=1)
    assert index.nlist == 7
    assert index.centroids.shape == (7, 16)


@pytest.fixture(scope="module")
def glove_flat():
    ds = vecdata.generate("glove50", sf=0.002, n_queries=5, seed=3)
    index = build_ivf(ds.data, seed=0)
    return ds, index, IVFNarySearcher(index, ds.data, Pruner(ds.dim))


@pytest.mark.parametrize("nprobe", [1, 8, "nlist"])
def test_flat_scan_equals_merging_bucket_by_bucket(nprobe, glove_flat):
    """IVF_FLAT's one selection per query returns, bit for bit, what a
    ``TopK.update`` per probed bucket returns."""
    ds, index, s = glove_flat
    nprobe = index.nlist if nprobe == "nlist" else nprobe
    for q in ds.queries:
        ctx, probe = s._probe(q, nprobe, NO_TRACE)
        heap = TopK(10)
        for c in probe:
            bdata, bids = s.buckets[c]
            heap.update(bids, l2_nary(bdata, ctx.query))
        want_ids, want_d = heap.result()
        ids, dists = s.search(q, 10, nprobe=nprobe, pruned=False)
        assert ids.dtype == want_ids.dtype and dists.dtype == want_d.dtype
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_d)


def test_flat_scan_selects_once_per_query(glove_flat, monkeypatch):
    """Exactly one top-k selection per IVF_FLAT query, at any nprobe: no
    ``TopK.update`` merges a bucket on its own."""
    ds, index, s = glove_flat
    calls, select = [], topk.smallest

    def counted(*args):
        calls.append(1)
        return select(*args)

    monkeypatch.setattr(topk, "smallest", counted)
    monkeypatch.setattr(ivf_index, "smallest", counted)
    for nprobe in (1, 8, index.nlist):
        for q in ds.queries:
            calls.clear()
            s.search(q, 10, nprobe=nprobe, pruned=False)
            assert len(calls) == 1


@pytest.mark.parametrize("pruned", [True, False])
@pytest.mark.parametrize("k", [0, -1])
def test_nary_search_rejects_k_below_one(k, pruned, glove_flat):
    ds, _, s = glove_flat
    with pytest.raises(ValueError):
        s.search(ds.queries[0], k, nprobe=8, pruned=pruned)


@pytest.mark.parametrize("kind", ["pdx", "nary-pruned", "nary-linear"])
def test_negative_nprobe_raises_and_zero_probes_nothing(kind, setup):
    ds, _, index = setup
    if kind == "pdx":
        search = IVFPDXSearcher(index, ds.data, Pruner(ds.dim)).search
    else:
        s = IVFNarySearcher(index, ds.data, Pruner(ds.dim))
        search = lambda q, k, nprobe: s.search(q, k, nprobe=nprobe, pruned=kind == "nary-pruned")
    q = ds.queries[0]
    with pytest.raises(ValueError, match="nprobe"):
        search(q, 10, nprobe=-1)
    ids, dists = search(q, 10, nprobe=0)
    assert len(ids) == 0 and len(dists) == 0

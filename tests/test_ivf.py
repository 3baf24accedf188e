"""IVF index substrate + per-algorithm searchers (§6.3 setup)."""
import numpy as np
import pytest

from _util import assert_same_topk

from repro import vecdata
from repro.core import topk
from repro.core.kernels import PASS_VALUES, l2_nary
from repro.core.pdxearch import search_blocks
from repro.core.pruners import ADSampling, BSA, PDXBond, Pruner
from repro.core.topk import TopK
from repro.core.trace import NO_TRACE, Trace
from repro.ivf import index as ivf_index
from repro.ivf.index import IVFIndex, IVFNarySearcher, IVFPDXSearcher, build_ivf
from repro.search.horizontal import horizontal_pruned_search


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
    for nprobe in (1, 8, index.nlist):
        for q in ds.queries:
            calls.clear()
            s.search(q, 10, nprobe=nprobe, pruned=False)
            assert len(calls) == 1


def _two_loop_search(s, query, k, *, nprobe, pruned=True):
    """``IVFNarySearcher.search`` as two bucket loops: IVF_FLAT scores each
    probed bucket and selects once; the pruned search merges bucket by
    bucket (START) until the threshold is finite, then prunes."""
    ctx, probe = s._probe(query, nprobe, NO_TRACE)
    heap = TopK(k)
    if not pruned:
        buckets = [s.buckets[c] for c in probe if len(s.buckets[c][1])]
        dists = [l2_nary(bdata, ctx.query) for bdata, _ in buckets]
        ids = [bids for _, bids in buckets]
        return topk.smallest(
            np.concatenate([np.empty(0, np.int64), *ids]),
            np.concatenate([np.empty(0), *dists]),
            k,
        )
    for c in probe:
        bdata, bids = s.buckets[c]
        if len(bids) == 0:
            continue
        if np.isfinite(heap.threshold):
            horizontal_pruned_search(bdata, bids, ctx, s.pruner, heap)
        else:
            heap.update(bids, l2_nary(bdata, ctx.query))
    return heap.result()


@pytest.fixture(scope="module")
def small_buckets():
    """Buckets of 2–4 vectors (one empty), fewer than k each, so START
    spans several buckets; D = 64 gives the pruned search two Δd slices."""
    sizes = [0] + [2, 3, 4] * 20
    return _hand_built(sizes, 64, seed=14)


@pytest.mark.parametrize("pruner", ["linear", "ads", "bsa", "bond"])
@pytest.mark.parametrize("where", ["glove", "small"])
def test_one_bucket_loop_equals_two_loops(pruner, where, glove_flat, small_buckets):
    """The one bucket loop returns, bit for bit and in the same dtypes,
    what the two-loop search returns: pruned and flat, at nprobe 0, 1, 3
    and nlist, for k within and above the probed vectors."""
    if where == "glove":
        ds, index, _ = glove_flat
        data, queries = ds.data, ds.queries
    else:
        data, index, queries = small_buckets
        queries = queries[:10]
    dim = data.shape[1]
    p = {
        "linear": lambda: Pruner(dim),
        "ads": lambda: ADSampling(dim, seed=0),
        "bsa": lambda: BSA(dim).fit(data),
        "bond": lambda: PDXBond(dim),
    }[pruner]()
    s = IVFNarySearcher(index, data, p)
    for nprobe in (0, 1, 3, index.nlist):
        for k in (10, len(data) + 1):
            for pruned in (True, False):
                for q in queries:
                    want_ids, want_d = _two_loop_search(s, q, k, nprobe=nprobe, pruned=pruned)
                    ids, dists = s.search(q, k, nprobe=nprobe, pruned=pruned)
                    assert ids.dtype == want_ids.dtype and dists.dtype == want_d.dtype
                    np.testing.assert_array_equal(ids, want_ids)
                    np.testing.assert_array_equal(dists, want_d)


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


# --------------------------------------------------------------------------
# Probed buckets as PDXearch units (``probe_units``). The index below is
# built by hand: random vectors in buckets of chosen sizes (one empty, one
# of more than ``PASS_VALUES`` values) around random centroids, so a
# query's top-k over its probed buckets spreads over every unit.
# --------------------------------------------------------------------------

UNIT_DIM = 16
#: Vectors per bucket; 4500 × 16 values is over ``PASS_VALUES``.
UNIT_SIZES = [1500, 0, 800, 4500, 300, 1000, 1200, 700, 2000, 900, 1100, 600]


def _hand_built(sizes, dim, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(sum(sizes), dim)).astype(np.float32)
    perm = rng.permutation(len(data))
    bucket_ids = np.split(perm, np.cumsum(sizes)[:-1])
    centroids = rng.normal(size=(len(sizes), dim)).astype(np.float32)
    queries = rng.normal(size=(40, dim)).astype(np.float32)
    return data, IVFIndex(centroids=centroids, bucket_ids=bucket_ids), queries


@pytest.fixture(scope="module")
def hand_built():
    return _hand_built(UNIT_SIZES, UNIT_DIM, seed=11)


def _probed_oracle(s, data, q, k, nprobe):
    """Float64 top-k over exactly the probed buckets' vectors, and the
    probed buckets (nearest first)."""
    _, probe = s._probe(q, nprobe, NO_TRACE)
    ids = np.concatenate([np.empty(0, np.int64), *(s.index.bucket_ids[c] for c in probe)])
    diff = data[ids].astype(np.float64) - q
    return (*topk.smallest(ids, np.einsum("nd,nd->n", diff, diff), k), probe)


@pytest.mark.parametrize("nprobe", [1, 2, 3, 8, len(UNIT_SIZES)])
def test_exact_pruners_return_top_k_of_exactly_the_probed_buckets(nprobe, hand_built):
    """IVF BOND and linear return the exact top-k over the probed buckets'
    vectors, ids and distances; ADS/BSA return probed ids only. Some
    query's k-th neighbour lies in the last probed bucket, so a search
    that drops the last unit fails here, and some query's top-k spans the
    START unit and the last unit."""
    data, index, queries = hand_built
    k = 10
    exact = [IVFPDXSearcher(index, data, p) for p in (Pruner(UNIT_DIM), PDXBond(UNIT_DIM, order="zones"))]
    approx = [IVFPDXSearcher(index, data, p) for p in (ADSampling(UNIT_DIM), BSA(UNIT_DIM))]
    kth_in_last = spans_units = 0
    for q in queries:
        want_ids, want_d, probe = _probed_oracle(exact[0], data, q, k, nprobe)
        filled = [set(index.bucket_ids[c].tolist()) for c in probe if len(index.bucket_ids[c])]
        probed = set().union(*filled)
        top = set(want_ids.tolist())
        if filled:
            kth_in_last += int(want_ids[-1]) in filled[-1]
            spans_units += len(filled) > 1 and bool(filled[0] & top) and bool(filled[-1] & top)
        for s in exact:
            ids, dists = s.search(q, k, nprobe=nprobe)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_allclose(dists, want_d, rtol=1e-5)
        for s in approx:
            assert set(s.search(q, k, nprobe=nprobe)[0].tolist()) <= probed
    assert kth_in_last > 0
    if nprobe > 2:
        assert spans_units > 0


def test_nearest_probed_bucket_empty_starts_on_the_next(hand_built):
    """With the nearest probed bucket empty, START scans the next
    non-empty bucket alone, and the result is the probed top-k."""
    data, index, queries = hand_built
    s = IVFPDXSearcher(index, data, PDXBond(UNIT_DIM, order="zones"))
    empty = UNIT_SIZES.index(0)
    q = index.centroids[empty]  # its own centroid ranks first
    _, probe = s._probe(q, 4, NO_TRACE)
    assert probe[0] == empty
    units = list(ivf_index.probe_units([s.buckets[c] for c in probe]))
    assert units[0] is s.buckets[probe[1]]
    want_ids, _, _ = _probed_oracle(s, data, q, 10, 4)
    np.testing.assert_array_equal(s.search(q, 10, nprobe=4)[0], want_ids)


def test_nearest_bucket_below_k_makes_the_next_unit_start_too(monkeypatch):
    """A first unit of fewer than k vectors leaves the threshold at +inf,
    so the next unit is also scanned fully (START) and none is lost."""
    from repro.core import pdxearch

    data, index, queries = _hand_built([3, 900, 900, 900, 900, 900], UNIT_DIM, seed=12)
    s = IVFPDXSearcher(index, data, PDXBond(UNIT_DIM, order="zones"))
    q = index.centroids[0]
    _, probe = s._probe(q, 6, NO_TRACE)
    assert probe[0] == 0
    full, scan = [], pdxearch._scan_block_full

    def recorded(blocks, *args):
        full.append(blocks[0].n)
        scan(blocks, *args)

    monkeypatch.setattr(pdxearch, "_scan_block_full", recorded)
    ids, dists = s.search(q, 10, nprobe=6)
    assert full[:2] == [3, 4500]  # the 3-vector bucket, then buckets 2–6 joined
    want_ids, want_d, _ = _probed_oracle(s, data, q, 10, 6)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_allclose(dists, want_d, rtol=1e-5)


def test_one_dimension():
    """D = 1: clustered IVF, BOND and linear exact over the probed buckets."""
    rng = np.random.default_rng(13)
    data = rng.normal(size=(3000, 1)).astype(np.float32)
    index = build_ivf(data, seed=0)
    for pruner in (Pruner(1), PDXBond(1, order="zones")):
        s = IVFPDXSearcher(index, data, pruner)
        for q in rng.normal(size=(10, 1)).astype(np.float32):
            for nprobe in (1, 3, index.nlist):
                want_ids, want_d, _ = _probed_oracle(s, data, q, 10, nprobe)
                ids, dists = s.search(q, 10, nprobe=nprobe)
                assert_same_topk(ids, dists, want_ids, want_d, rtol=1e-5, atol=1e-9)


def test_large_bucket_is_its_own_unit_uncopied(hand_built):
    """A bucket of ``PASS_VALUES`` values or more is passed as it is
    stored; smaller ones around it are joined, in probe order."""
    data, index, _ = hand_built
    s = IVFPDXSearcher(index, data, Pruner(UNIT_DIM))
    big = UNIT_SIZES.index(4500)
    assert s.buckets[big].data.size >= PASS_VALUES
    order = [0, 2, 4, big, 5, 6]  # buckets of 1500 | 800, 300 | 4500 | 1000, 1200
    units = list(ivf_index.probe_units([s.buckets[c] for c in order]))
    assert [u.n for u in units] == [1500, 1100, 4500, 2200]
    assert units[0] is s.buckets[0] and units[2] is s.buckets[big]
    assert np.shares_memory(units[2].data, s.buckets[big].data)
    joined = units[1]
    np.testing.assert_array_equal(joined.ids, np.concatenate([s.buckets[2].ids, s.buckets[4].ids]))
    np.testing.assert_array_equal(joined.data, np.hstack([s.buckets[2].data, s.buckets[4].data]))
    assert joined.data.flags.c_contiguous
    assert list(ivf_index.probe_units([])) == []


@pytest.mark.parametrize("pruner", ["linear", "bond"])
def test_joined_units_equal_per_bucket_units(pruner, hand_built):
    """``search_blocks`` over the joined units and over one unit per
    probed bucket returns the same ids."""
    data, index, queries = hand_built
    p = Pruner(UNIT_DIM) if pruner == "linear" else PDXBond(UNIT_DIM, order="zones")
    s = IVFPDXSearcher(index, data, p)
    for q in queries:
        ctx, probe = s._probe(q, 8, NO_TRACE)
        buckets = [s.buckets[c] for c in probe if s.buckets[c].n]
        joined, single = TopK(10), TopK(10)
        search_blocks(ivf_index.probe_units(buckets), ctx, p, joined)
        search_blocks(buckets, ctx, p, single)
        np.testing.assert_array_equal(joined.result()[0], single.result()[0])
        np.testing.assert_allclose(joined.result()[1], single.result()[1], rtol=1e-6)

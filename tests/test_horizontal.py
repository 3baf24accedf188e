"""Horizontal (N-ary) Δd-stepped pruned search — the SIMD-ADS baseline."""
import numpy as np
import pytest

from _util import assert_same_topk

from repro import vecdata
from repro.core.kernels import l2_nary
from repro.core.layout import build_pdx
from repro.core.pruners import BSA, ADSampling, PDXBond
from repro.core.topk import TopK
from repro.core.trace import Trace
from repro.search.horizontal import DELTA_D, horizontal_pruned_search


@pytest.fixture(scope="module")
def ds():
    d = vecdata.generate("glove50", sf=0.001, n_queries=10, seed=3)
    gt = vecdata.ground_truth(d.data, d.queries, 10)
    return d, gt


@pytest.fixture(scope="module")
def meta(ds):
    """PDX-BOND's metadata; the horizontal scan ignores its dimension order."""
    return build_pdx(ds[0].data)


#: Rows of the stand-in the START scan scores before the pruned search.
START_ROWS = 100


def _start_then_prune(data, ctx, pruner):
    """Search the stand-in as the IVF searcher searches its buckets: a
    START scan of the first rows seeds the heap, then one pruned search
    over the rest. Returns the top-k and the rows ``prune_mask`` dropped."""
    dropped, mask = [], pruner.prune_mask

    def counted(partial, nscanned, threshold):
        m = mask(partial, nscanned, threshold)
        dropped.append(int(np.count_nonzero(m)))
        return m

    pruner.prune_mask = counted
    ids_all = np.arange(len(data), dtype=np.int64)
    heap = TopK(10)
    heap.update(ids_all[:START_ROWS], l2_nary(data[:START_ROWS], ctx.query))
    horizontal_pruned_search(data[START_ROWS:], ids_all[START_ROWS:], ctx, pruner, heap)
    del pruner.prune_mask
    return heap.result(), sum(dropped)


def test_horizontal_with_exact_pruner_is_exact(ds, meta):
    d, (gt_ids, gt_d) = ds
    bond = PDXBond(d.dim, order="means")
    dropped = 0
    for qi, q in enumerate(d.queries):
        (got_ids, got_d), n = _start_then_prune(d.data, bond.prepare(q, meta), bond)
        dropped += n
        assert_same_topk(got_ids, got_d, gt_ids[qi], gt_d[qi])
    assert dropped > 0


def test_horizontal_ads_recall(ds, monkeypatch):
    monkeypatch.setattr("repro.search.horizontal.DELTA_D", 16)
    d, (gt_ids, _) = ds
    ads = ADSampling(d.dim, seed=0)
    t = ads.transform_data(d.data)
    found, dropped = [], 0
    for q in d.queries:
        (ids, _), n = _start_then_prune(t, ads.prepare(q), ads)
        found.append(ids)
        dropped += n
    assert dropped > 0
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


class _EntryHeap:
    """Stands in for ``TopK``: a fixed threshold, and a record of every
    merged batch, so the survivors themselves can be compared."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.ids, self.dists = [], []

    def update(self, ids, dists):
        self.ids.append(np.asarray(ids))
        self.dists.append(np.asarray(dists))

    def merged(self):
        return (
            np.concatenate([np.empty(0, np.int64), *self.ids]),
            np.concatenate([np.empty(0, np.float32), *self.dists]),
        )


def _row_at_a_time(data, ids, ctx, pruner, heap):
    """The literal schedule: each row is tested against the bucket-entry
    threshold after every Δd slice but the last, and dropped at its first
    prune."""
    q, d = ctx.query, data.shape[1]
    threshold = heap.threshold
    kept, dists = [], []
    for i in range(len(data)):
        partial = np.float32(0)
        for d0 in range(0, d, DELTA_D):
            d1 = min(d0 + DELTA_D, d)
            diff = data[i, d0:d1] - q[d0:d1]
            partial += np.float32(diff @ diff)
            if d1 < d and pruner.prune_mask(np.array([partial]), d1, threshold)[0]:
                break
        else:
            kept.append(i)
            dists.append(partial)
    heap.update(ids[kept], np.array(dists, dtype=np.float32))


def _bucket(dim: int, n: int = 300, seed: int = 0):
    """Rows at widely spread scales around a query near the origin, so
    the full distances spread and a median threshold prunes some rows."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dim)) * rng.uniform(0.2, 3.0, (n, 1))
    query = 0.1 * rng.standard_normal(dim)
    return data.astype(np.float32), query.astype(np.float32)


def _prepared(name: str, data: np.ndarray, query: np.ndarray):
    dim = data.shape[1]
    pruner = {
        "ads": lambda: ADSampling(dim, seed=0),
        "bsa": lambda: BSA(dim).fit(data),
        "bond": lambda: PDXBond(dim, order="means"),
    }[name]()
    return pruner, pruner.transform_data(data), pruner.prepare(query, build_pdx(data))


def _both(tdata, ctx, pruner, threshold):
    ids = np.arange(100, 100 + len(tdata), dtype=np.int64)
    got, ref = _EntryHeap(threshold), _EntryHeap(threshold)
    horizontal_pruned_search(tdata, ids, ctx, pruner, got)
    _row_at_a_time(tdata, ids, ctx, pruner, ref)
    return got.merged(), ref.merged()


@pytest.mark.parametrize("dim", [1, 31, 32, 50, 100])
@pytest.mark.parametrize("name", ["ads", "bsa", "bond"])
def test_bucket_scan_equals_row_at_a_time_reference(name, dim):
    data, query = _bucket(dim)
    pruner, tdata, ctx = _prepared(name, data, query)
    full = ((tdata - ctx.query) ** 2).sum(1)
    (got_ids, got_d), (ref_ids, ref_d) = _both(tdata, ctx, pruner, float(np.median(full)))
    np.testing.assert_array_equal(got_ids, ref_ids)
    # float32 partials either way; the reference's dot product sums each
    # slice in another order, so the last bits may differ.
    np.testing.assert_allclose(got_d, ref_d, rtol=1e-5)
    if dim > DELTA_D:  # a predicate ran: some rows must go, some stay
        assert 0 < len(got_ids) < len(data)
    else:  # one slice, no predicate: every row is merged
        assert len(got_ids) == len(data)


@pytest.mark.parametrize("name", ["ads", "bsa", "bond"])
def test_empty_bucket_and_all_rows_pruned_at_first_slice(name):
    data, query = _bucket(50)
    pruner, tdata, ctx = _prepared(name, data, query)
    (got_ids, _), (ref_ids, _) = _both(tdata[:0], ctx, pruner, 1.0)
    assert len(got_ids) == len(ref_ids) == 0
    # A threshold below every row's first-slice partial prunes them all.
    (got_ids, _), (ref_ids, _) = _both(tdata, ctx, pruner, 1e-6)
    assert len(got_ids) == len(ref_ids) == 0


def test_chained_bucket_partials_shrink():
    """On the second of two chained buckets the threshold is finite, so
    each predicate call sees only the rows still alive."""
    sizes = []

    class Spy(PDXBond):
        def prune_mask(self, partial, nscanned, threshold):
            sizes.append(len(partial))
            return super().prune_mask(partial, nscanned, threshold)

    data, query = _bucket(128, n=400)
    spy = Spy(128, order="means")
    ctx = spy.prepare(query, build_pdx(data))
    heap = TopK(10)
    horizontal_pruned_search(data[:200], np.arange(200, dtype=np.int64), ctx, spy, heap)
    assert sizes == [200] * 3  # entry threshold +inf: nothing pruned
    sizes.clear()
    horizontal_pruned_search(data[200:], np.arange(200, 400, dtype=np.int64), ctx, spy, heap)
    assert sizes[0] == 200
    assert all(a >= b for a, b in zip(sizes, sizes[1:])) and sizes[-1] < sizes[0]


def test_ads_recall_over_chained_buckets(ds):
    """One call reads the threshold once, at entry, so a single call on
    an empty heap prunes nothing; chained 100-row buckets make ADS prune,
    and its recall must hold."""
    d, (gt_ids, _) = ds
    pruned = []

    class Counted(ADSampling):
        def prune_mask(self, partial, nscanned, threshold):
            mask = super().prune_mask(partial, nscanned, threshold)
            pruned.append(int(mask.sum()))
            return mask

    ads = Counted(d.dim, seed=0)
    t = ads.transform_data(d.data)
    found = []
    for q in d.queries:
        ctx = ads.prepare(q)
        heap = TopK(10)
        for s in range(0, d.n, 100):
            ids = np.arange(s, min(s + 100, d.n), dtype=np.int64)
            horizontal_pruned_search(t[ids], ids, ctx, ads, heap)
        found.append(heap.result()[0])
    assert sum(pruned) > 0
    assert vecdata.recall_at_k(np.stack(found), gt_ids) >= 0.95

"""Property-based tests (Hypothesis) for the core invariants."""
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels, layout
from repro.core.pdxearch import dimension_steps, pdx_linear_scan
from repro.core.pruners import PDXBond, Pruner
from repro.core.topk import TopK
from repro.ivf.index import IVFNarySearcher, IVFPDXSearcher, build_ivf
from repro.search.exact import brute_force_nary, build_exact_collection, pdx_bond_search

shapes = st.tuples(st.integers(1, 200), st.integers(1, 40))


@given(shapes, st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_layout_roundtrip_any_shape(shape, seed):
    n, d = shape
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d)).astype(np.float32)
    blocks = layout.build_pdx(data, block_size=16).blocks
    np.testing.assert_array_equal(np.hstack([b.data for b in blocks]).T, data)
    np.testing.assert_array_equal(np.concatenate([b.ids for b in blocks]), np.arange(n))


@given(shapes, st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_pdx_kernel_equals_nary_any_shape(shape, seed):
    n, d = shape
    n = (max(n, 16) // 16) * 16  # stacked layout needs a multiple
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d)).astype(np.float32)
    q = rng.standard_normal(d).astype(np.float32)
    got = kernels.l2_pdx(layout.stack_pdx(data, 16), q)
    want = kernels.l2_nary(data, q)
    np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-3)


@given(
    st.integers(1, 20),
    st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=300),
)
@settings(max_examples=50, deadline=None)
def test_topk_always_matches_sort(k, values):
    dists = np.array(values)
    ids = np.arange(len(dists), dtype=np.int64)
    h = TopK(k)
    # feed in arbitrary chunks of 7
    for s in range(0, len(dists), 7):
        h.update(ids[s : s + 7], dists[s : s + 7])
    got_ids, got_d = h.result()
    order = np.lexsort((ids, dists))[:k]
    np.testing.assert_array_equal(got_ids, ids[order])
    np.testing.assert_allclose(got_d, dists[order])


@given(st.integers(1, 4096))
@settings(max_examples=100, deadline=None)
def test_dimension_steps_partition_dims(dim):
    adaptive = dimension_steps(dim)
    assert sum(adaptive) == dim and all(s > 0 for s in adaptive)
    # doubling schedule except possibly the clipped last step
    for a, b in zip(adaptive, adaptive[1:-1]):
        assert b == 2 * a


@given(st.integers(2, 64), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_accumulate_order_invariance(d, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((32, d)).astype(np.float32)
    block = layout.build_pdx(data, block_size=32).blocks[0]
    q = rng.standard_normal(d).astype(np.float32)
    ref = np.zeros(32, dtype=np.float32)
    kernels.l2_accumulate(block.data, q, ref, np.arange(d))
    perm = rng.permutation(d)
    got = np.zeros(32, dtype=np.float32)
    kernels.l2_accumulate(block.data, q, got, perm)
    np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-3)


@given(st.integers(1, 3000), st.integers(1, 24), st.integers(1, 50), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_exact_search_k_above_n_returns_every_id(n, d, extra, seed):
    """With k > n the threshold never leaves +inf, so linear and BOND
    return all n ids over the default exact units, in brute-force order.
    Small integer values keep every distance exact, ties included."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-8, 8, size=(n, d)).astype(np.float32)
    q = rng.integers(-8, 8, size=d).astype(np.float32)
    coll = build_exact_collection(data)
    want_ids, want_d = brute_force_nary(data, q, n)
    for search in (pdx_linear_scan, pdx_bond_search):
        ids, dists = search(coll, q, n + extra)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_d)


@given(st.integers(1, 12), st.integers(1, 16), st.data(), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_ivf_full_probe_with_empty_buckets_is_exact(m, d, draw, seed):
    """The collection repeats only ``m`` distinct integer rows, so at most
    ``m`` IVF buckets hold vectors and an ``nlist`` above ``m`` leaves the
    rest empty. At full probe the exact searchers return brute force's
    ids and distances, ties by id."""
    rng = np.random.default_rng(seed)
    n = draw.draw(st.integers(m + 1, 400), label="n")
    nlist = draw.draw(st.integers(m + 1, n), label="nlist")
    k = draw.draw(st.integers(1, n), label="k")
    rows = rng.integers(-4, 4, size=(m, d))
    data = rows[rng.integers(0, m, size=n)].astype(np.float32)
    q = rng.integers(-4, 4, size=d).astype(np.float32)
    index = build_ivf(data, nlist=nlist)
    assert sum(len(b) == 0 for b in index.bucket_ids) >= nlist - m
    want_ids, want_d = brute_force_nary(data, q, k)
    searches = {
        "pdx-linear": IVFPDXSearcher(index, data, Pruner(d)).search,
        "pdx-bond": IVFPDXSearcher(index, data, PDXBond(d, order="zones")).search,
        "nary-linear": partial(IVFNarySearcher(index, data, Pruner(d)).search, pruned=False),
    }
    for name, search in searches.items():
        ids, dists = search(q, k, nprobe=nlist)
        np.testing.assert_array_equal(ids, want_ids, err_msg=name)
        np.testing.assert_array_equal(dists, want_d, err_msg=name)

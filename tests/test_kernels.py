"""Kernel correctness: every layout's kernel must agree with a float64
NumPy reference on identical data (the paper's kernels are exact
rearrangements of the same arithmetic)."""
import numpy as np
import pytest

from repro import vecdata
from repro.core import kernels
from repro.core.layout import build_pdx, stack_pdx, to_dsm
from repro.core.pdxearch import pdx_linear_scan
from repro.core.topk import smallest
from repro.search.exact import brute_force_nary, build_exact_collection, pdx_bond_search
from repro.vecdata import random_collection

DIMS = [8, 16, 32, 64, 128, 1536]
SIZES = [64, 192, 1024]


def _ref(data, q, metric):
    x, qq = data.astype(np.float64), q.astype(np.float64)
    if metric == "l2":
        return ((x - qq) ** 2).sum(axis=1)
    if metric == "l1":
        return np.abs(x - qq).sum(axis=1)
    return x @ qq


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


@pytest.mark.parametrize("metric", ["l2", "l1", "ip"])
@pytest.mark.parametrize("dim", DIMS)
def test_nary_kernels_match_reference(metric, dim, rng):
    data = random_collection(256, dim, seed=dim)
    q = rng.standard_normal(dim).astype(np.float32)
    got = kernels.METRICS_NARY[metric](data, q)
    np.testing.assert_allclose(got, _ref(data, q, metric), rtol=2e-3, atol=1e-3)


@pytest.mark.parametrize("metric", ["l2", "l1", "ip"])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_pdx_kernels_match_nary(metric, dim, n, rng):
    data = random_collection(n, dim, seed=dim * 31 + n)
    q = rng.standard_normal(dim).astype(np.float32)
    stacked = stack_pdx(data, 64)
    got = kernels.METRICS_PDX[metric](stacked, q)
    want = kernels.METRICS_NARY[metric](data, q)
    np.testing.assert_allclose(got, want, rtol=2e-3, atol=1e-3)


@pytest.mark.parametrize("dim", [8, 50, 420])
def test_dsm_kernel_matches_reference(dim, rng):
    data = random_collection(300, dim, seed=dim)
    q = rng.standard_normal(dim).astype(np.float32)
    got = kernels.l2_dsm(to_dsm(data), q)
    np.testing.assert_allclose(got, _ref(data, q, "l2"), rtol=2e-3, atol=1e-3)


# ------------------------------------------------------- partial accumulation

@pytest.mark.parametrize("dim", [16, 96])
def test_l2_accumulate_full_range_equals_full_distance(dim, rng):
    data = random_collection(64, dim, seed=1)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    dists = np.zeros(64, dtype=np.float32)
    kernels.l2_accumulate(block.data, q, dists, np.arange(dim))
    np.testing.assert_allclose(dists, _ref(data, q, "l2"), rtol=2e-3, atol=1e-3)


def test_l2_accumulate_two_halves_sum_to_whole(rng):
    dim = 32
    data = random_collection(64, dim, seed=2)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    dists = np.zeros(64, dtype=np.float32)
    kernels.l2_accumulate(block.data, q, dists, np.arange(0, 16))
    kernels.l2_accumulate(block.data, q, dists, np.arange(16, 32))
    np.testing.assert_allclose(dists, _ref(data, q, "l2"), rtol=2e-3, atol=1e-3)


def test_l2_accumulate_permuted_order_invariant(rng):
    dim = 50
    data = random_collection(64, dim, seed=3)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    perm = rng.permutation(dim)
    dists = np.zeros(64, dtype=np.float32)
    kernels.l2_accumulate(block.data, q, dists, perm)
    np.testing.assert_allclose(dists, _ref(data, q, "l2"), rtol=2e-3, atol=1e-3)


def test_l2_accumulate_positions_only_touches_positions(rng):
    dim = 24
    data = random_collection(64, dim, seed=4)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    dists = np.zeros(64, dtype=np.float32)
    pos = np.array([3, 17, 42], dtype=np.int64)
    kernels.l2_accumulate(block.data, q, dists, np.arange(dim), pos)
    ref = _ref(data, q, "l2")
    np.testing.assert_allclose(dists[pos], ref[pos], rtol=2e-3, atol=1e-3)
    untouched = np.setdiff1d(np.arange(64), pos)
    assert np.all(dists[untouched] == 0)


@pytest.mark.parametrize("a,b", [(0, 50), (0, 2), (6, 14), (30, 50)])
@pytest.mark.parametrize(
    "positions", [None, np.array([0, 5, 17, 63])], ids=["warmup", "prune"]
)
def test_l2_accumulate_range_equals_index_array(a, b, positions, rng):
    """A ``range`` of dimensions is sliced; it must add exactly what the
    gathered index array adds, in WARMUP (all slots) and PRUNE
    (``positions``). The gathered form subtracts in place, which must
    never reach the block itself."""
    dim = 50
    block = build_pdx(random_collection(64, dim, seed=a * 97 + b)).blocks[0]
    before = block.data.copy()
    q = rng.standard_normal(dim).astype(np.float32)
    start = rng.random(64).astype(np.float32)
    sliced, gathered = start.copy(), start.copy()
    kernels.l2_accumulate(block.data, q, sliced, range(a, b), positions)
    kernels.l2_accumulate(block.data, q, gathered, np.arange(a, b), positions)
    np.testing.assert_array_equal(sliced, gathered)
    np.testing.assert_array_equal(block.data, before)
    if positions is not None:
        untouched = np.setdiff1d(np.arange(64), positions)
        np.testing.assert_array_equal(sliced[untouched], start[untouched])


def test_l2_accumulate_wide_block_runs_in_passes(rng):
    """A call over more than ``PASS_VALUES`` values runs pass by pass; both
    forms of ``dim_idx`` still add identical sums, close to float64."""
    n, dim = 700, 200
    assert n * dim > 2 * kernels.PASS_VALUES  # three passes
    data = random_collection(n, dim, seed=3)
    block = build_pdx(data, block_size=n).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    sliced, gathered = np.zeros(n, np.float32), np.zeros(n, np.float32)
    kernels.l2_accumulate(block.data, q, sliced, range(dim))
    kernels.l2_accumulate(block.data, q, gathered, np.arange(dim))
    np.testing.assert_array_equal(sliced, gathered)
    np.testing.assert_allclose(sliced, _ref(data, q, "l2"), rtol=1e-4)


def test_l2_cumulative_last_row_is_full_distance(rng):
    dim = 30
    data = random_collection(64, dim, seed=7)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    cum = kernels.l2_cumulative(block.data, q, np.arange(dim))
    assert cum.shape == (dim, 64)
    np.testing.assert_allclose(cum[-1], _ref(data, q, "l2"), rtol=2e-3, atol=1e-3)
    assert np.all(np.diff(cum, axis=0) >= -1e-5)  # monotone non-decreasing


def test_l2_cumulative_respects_dim_order(rng):
    dim = 20
    data = random_collection(64, dim, seed=8)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    order = rng.permutation(dim)
    cum = kernels.l2_cumulative(block.data, q, order)
    first = (block.data[order[0]] - q[order[0]]) ** 2
    np.testing.assert_allclose(cum[0], first, rtol=1e-5)


# ------------------------------------------------------ certified full scan

def _adversarial(case):
    """(data, queries, k, block sizes). Every case's distances are exact
    in float32 (small integers and grid values) or summed in one order by
    every kernel (D ≤ 2), so every exact scan must return the same ids and
    distances."""
    rng = np.random.default_rng(17)
    if case == "offset":
        # 1000 + 0.01·noise: ‖x‖² ≈ 8e6 and the float32 dot product is off
        # by about 1, while distances are about 1e-3. Norm expansion
        # cancels; values sit on a 2⁻¹⁴ grid, so (x − q)² sums exactly.
        data = (1000 + 0.01 * rng.standard_normal((500, 8))).astype(np.float32)
        queries = (1000 + 0.01 * rng.standard_normal((5, 8))).astype(np.float32)
        return data, queries, 10, None
    if case == "huge":
        # ‖x‖·‖q‖ ≈ 2e40 overflows float32, the distances (≈ 1e34) do not;
        # with D = 2 every kernel sums in the same order.
        data = (1e20 * (1 + 1e-3 * rng.standard_normal((300, 2)))).astype(np.float32)
        queries = (1e20 * (1 + 1e-3 * rng.standard_normal((5, 2)))).astype(np.float32)
        return data, queries, 10, None
    if case == "near-duplicates":
        base = rng.integers(0, 64, (40, 16))
        data = np.repeat(base, 12, axis=0)
        bump = rng.random(len(data)) < 0.5
        data[bump, rng.integers(0, 16, bump.sum())] += 1
        queries = base[:5] + rng.integers(-1, 2, (5, 16))
        return data.astype(np.float32), queries.astype(np.float32), 10, None
    if case == "integer-ties":
        data = rng.integers(0, 3, (2000, 4)).astype(np.float32)
        return data, rng.integers(0, 3, (5, 4)).astype(np.float32), 10, None
    if case == "d1":
        data = rng.standard_normal((300, 1)).astype(np.float32)
        return data, rng.standard_normal((5, 1)).astype(np.float32), 10, None
    if case == "k-exceeds-n":
        data = rng.integers(0, 9, (7, 16)).astype(np.float32)
        return data, rng.integers(0, 9, (5, 16)).astype(np.float32), 20, None
    # "empty-unit": the START unit and a later unit hold no vectors
    data = rng.integers(0, 9, (500, 16)).astype(np.float32)
    return data, rng.integers(0, 9, (5, 16)).astype(np.float32), 10, [0, 100, 0, 400]


ADVERSARIAL = ["offset", "huge", "near-duplicates", "integer-ties", "d1", "k-exceeds-n", "empty-unit"]


@pytest.mark.parametrize("case", ADVERSARIAL)
def test_l2_candidates_hold_the_einsum_top_k(case):
    data, queries, k, sizes = _adversarial(case)
    coll = build_exact_collection(data) if sizes is None else build_pdx(data, block_size=sizes)
    for q in queries:
        for b in coll.blocks:
            got = kernels.l2_candidates([b.data], [b.norms], q, k)
            want, _ = smallest(np.arange(b.n), kernels.l2_pdx(b.data[None], q), k)
            assert set(want.tolist()) <= set(got.tolist())


def _split(data, queries, k, how):
    """Unit widths that cut ``data`` into several unequal units:
    64-vector blocks with a ragged last one (2-vector blocks for k > n),
    widths with empty units first and in the middle, or ("ties") a unit
    boundary next to every other vector tied at the first query's k-th
    distance."""
    n = len(data)
    if how == "blocks64":
        width = 64 if n > 128 else 2
        return [min(width, n - a) for a in range(0, n, width)]
    if how == "empty":
        return [0, n // 5, n // 2, 0, n - n // 5 - n // 2]
    d = ((data.astype(np.float64) - queries[0]) ** 2).sum(axis=1)
    tied = np.flatnonzero(d == np.sort(d)[k - 1])
    assert len(tied) > 4  # ties reach past the k-th vector
    cuts = [0, *tied[1::2].tolist(), n]
    return list(np.diff(cuts))


SPLITS = [(case, how) for case in ADVERSARIAL for how in ("blocks64", "empty")]
SPLITS.append(("integer-ties", "ties"))


@pytest.mark.parametrize("case,how", SPLITS)
def test_l2_candidates_over_units_hold_the_scan_top_k(case, how):
    """One call over all units keeps the einsum top-k of the whole scan."""
    data, queries, k, _ = _adversarial(case)
    coll = build_pdx(data, block_size=_split(data, queries, k, how))
    assert len(coll.blocks) > 2 and len({b.n for b in coll.blocks}) > 1
    units, norms = [b.data for b in coll.blocks], [b.norms for b in coll.blocks]
    for q in queries:
        got = kernels.l2_candidates(units, norms, q, k)
        einsum = np.concatenate([kernels.l2_pdx(b.data[None], q) for b in coll.blocks])
        want, _ = smallest(np.arange(len(data)), einsum, k)
        assert set(want.tolist()) <= set(got.tolist())
        assert np.all(np.diff(got) > 0) and (len(got) == 0 or got[-1] < len(data))


@pytest.mark.parametrize("case,how", SPLITS)
def test_linear_scan_over_units_equals_brute_force(case, how):
    data, queries, k, _ = _adversarial(case)
    coll = build_pdx(data, block_size=_split(data, queries, k, how))
    for q in queries:
        want_ids, want_d = brute_force_nary(data, q, k)
        ids, dists = pdx_linear_scan(coll, q, k)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_d)


@pytest.mark.parametrize("case", ADVERSARIAL)
def test_certified_scans_equal_brute_force(case):
    data, queries, k, sizes = _adversarial(case)
    coll = build_exact_collection(data) if sizes is None else build_pdx(data, block_size=sizes)
    for q in queries:
        want_ids, want_d = brute_force_nary(data, q, k)
        for search in (pdx_linear_scan, pdx_bond_search):
            ids, dists = search(coll, q, k)
            np.testing.assert_array_equal(ids, want_ids, err_msg=search.__name__)
            np.testing.assert_array_equal(dists, want_d, err_msg=search.__name__)


def test_l2_candidates_cut_is_tight():
    """On the gist960 stand-in the cut keeps under 5 % of every unit, and
    under 5 % of the whole collection in one call over all its units,
    default units or 64-vector blocks."""
    ds = vecdata.generate("gist960", sf=0.01, n_queries=3, seed=0)
    coll = build_exact_collection(ds.data)
    blocks64 = build_pdx(ds.data, block_size=64)
    for q in ds.queries:
        for b in coll.blocks:
            assert len(kernels.l2_candidates([b.data], [b.norms], q, 10)) < 0.05 * b.n
        for c in (coll, blocks64):
            units, norms = [b.data for b in c.blocks], [b.norms for b in c.blocks]
            assert len(kernels.l2_candidates(units, norms, q, 10)) < 0.05 * ds.n


def test_pdx_block_size_constant():
    assert kernels.PDX_BLOCK_SIZE == 64  # paper default (Table 5)

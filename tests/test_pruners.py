"""Pruning predicates: math, masks, bounds, and dimension orderings."""
import tracemalloc

import numpy as np
import pytest

from repro.core import pruners
from repro.core.kernels import l2_cumulative
from repro.core.layout import build_pdx
from repro.core.pruners import ADSampling, BSA, PDXBond, Pruner
from repro.vecdata import generate, random_collection


@pytest.fixture(scope="module")
def data():
    return random_collection(600, 32, seed=0)


def test_linear_pruner_never_prunes(data):
    p = Pruner(32)
    mask = p.prune_mask(np.array([1e9, 0.0]), 10, 1.0)
    assert not mask.any()


# ----------------------------------------------------------------- ADSampling

def test_ads_ratio_formula():
    ads = ADSampling(128)
    d = 32
    want = (d / 128) * (1 + 2.1 / np.sqrt(d)) ** 2
    np.testing.assert_allclose(ads._ratio[d - 1], want)


def test_ads_transform_preserves_distances(data):
    ads = ADSampling(32, seed=1)
    t = ads.transform_data(data)
    dx = ((data[:300].astype(np.float64) - data[300:]) ** 2).sum(axis=1)
    dt = ((t[:300].astype(np.float64) - t[300:]) ** 2).sum(axis=1)
    np.testing.assert_allclose(dx, dt, rtol=1e-3)


def test_ads_query_transform_consistent(data):
    ads = ADSampling(32, seed=1)
    t = ads.transform_data(data)
    ctx = ads.prepare(data[0])
    np.testing.assert_allclose(ctx.query, t[0], rtol=1e-4, atol=1e-4)


def test_ads_no_pruning_without_threshold(data):
    ads = ADSampling(32)
    assert not ads.prune_mask(np.full(5, 1e12), 16, float("inf")).any()


def test_ads_more_dims_tighter_relative_bound():
    ads = ADSampling(64)
    # bound normalized by the unbiased estimate (d/D) shrinks as d grows
    rel = ads._ratio / (np.arange(1, 65) / 64)
    assert np.all(np.diff(rel) < 0)


# ----------------------------------------------------------------------- BSA

def test_bsa_requires_fit_before_prepare(data):
    bsa = BSA(32)
    with pytest.raises(AssertionError):
        bsa.prepare(data[0])


def test_bsa_transform_preserves_distances(data):
    bsa = BSA(32).fit(data)
    t = bsa.transform_data(data)
    dx = ((data[:300].astype(np.float64) - data[300:]) ** 2).sum(axis=1)
    dt = ((t[:300].astype(np.float64) - t[300:]) ** 2).sum(axis=1)
    np.testing.assert_allclose(dx, dt, rtol=1e-3)


def test_bsa_factor_profile(data):
    bsa = BSA(32).fit(data)
    f = bsa._factor
    assert f.shape == (32,)
    assert np.all((f > 0) & (f <= 1.0))
    # after all dims the bound is exact (nothing remains to be scanned)
    np.testing.assert_allclose(f[-1], 1.0, atol=1e-9)
    # PCA front-loads energy: early-dim bounds must be tighter than late
    assert f[0] < f[-1]


def test_bsa_fit_memory_is_quadratic_in_sample():
    """Finding each sample point's nearest neighbour holds (sample, sample)
    distances, never a (sample, sample, D) difference array (64 MB here)."""
    data = random_collection(256, 128, seed=0)
    tracemalloc.start()
    try:
        BSA(128).fit(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"{peak / 2**20:.1f} MB"


def test_bsa_higher_multiplier_prunes_less(data, monkeypatch):
    monkeypatch.setattr(pruners, "BSA_MULTIPLIER", 10.0)
    loose = BSA(32).fit(data)
    monkeypatch.setattr(pruners, "BSA_MULTIPLIER", 0.5)
    tight = BSA(32).fit(data)
    # Larger m => larger factor => looser bound at every dimension.
    assert np.all(loose._factor >= tight._factor - 1e-12)
    partial = np.full(20, 45.0, dtype=np.float32)
    n_loose = loose.prune_mask(partial, 8, 50.0).sum()
    n_tight = tight.prune_mask(partial, 8, 50.0).sum()
    assert n_loose <= n_tight


# ------------------------------------------------------------------ PDX-BOND

@pytest.mark.parametrize("order", ["means", "zones"])
def test_bond_order_is_permutation(order, data):
    coll = build_pdx(data)
    bond = PDXBond(32, order=order)
    ctx = bond.prepare(data[0], coll)
    np.testing.assert_array_equal(np.sort(ctx.dim_order), np.arange(32))


def test_bond_rejects_unknown_order():
    for order in ("bogus", "sequential", "decreasing"):
        with pytest.raises(ValueError):
            PDXBond(8, order=order)


@pytest.mark.parametrize("order", ["means", "zones"])
def test_bond_means_orders_need_metadata(order, data):
    with pytest.raises(AttributeError):
        PDXBond(32, order=order).prepare(data[0])


def test_bond_means_order_ranks_by_gap(data):
    coll = build_pdx(data)
    bond = PDXBond(32, order="means")
    ctx = bond.prepare(data[0], coll)
    gap = np.abs(data[0].astype(np.float64) - coll.dim_means)
    assert np.all(np.diff(gap[ctx.dim_order]) <= 1e-6)


def test_bond_zones_are_contiguous_runs():
    ds = generate("glove50", sf=0.0005)
    coll = build_pdx(ds.data)
    bond = PDXBond(50, order="zones")
    ctx = bond.prepare(ds.queries[0], coll)
    order = ctx.dim_order
    # every aligned zone of max(8, 50 // 16) = 8 dims, the last one ragged
    # (48, 49), must appear as one contiguous run
    for z0 in range(0, 50, 8):
        zone = np.arange(z0, min(z0 + 8, 50))
        pos = np.flatnonzero(np.isin(order, zone))
        assert pos.max() - pos.min() == len(zone) - 1
        np.testing.assert_array_equal(order[pos], zone)


def test_bond_exact_predicate_is_partial_gt_threshold(data):
    bond = PDXBond(32)
    partial = np.array([0.5, 1.5, 2.5], dtype=np.float32)
    np.testing.assert_array_equal(bond.prune_mask(partial, 3, 1.5), [False, False, True])


# ------------------------------------------------------- one predicate, any shape

@pytest.mark.parametrize("name", ["linear", "ads", "bsa", "bond"])
def test_prune_mask_on_trace_matrix_equals_row_calls(name, data):
    """The Δd=1 trace tests every dimension with one call on (D, n)
    cumulative partials and a (D, 1) count column; PDXearch calls the
    same predicate once per step. Both must give the same mask."""
    pruner = {
        "linear": lambda: Pruner(32),
        "ads": lambda: ADSampling(32, seed=2),
        "bsa": lambda: BSA(32).fit(data),
        "bond": lambda: PDXBond(32, order="means"),
    }[name]()
    tdata = pruner.transform_data(data)
    coll = build_pdx(tdata)
    ctx = pruner.prepare(data[0], coll)
    block = coll.blocks[1]
    cum = l2_cumulative(block.data, ctx.query, ctx.dim_order)  # (32, n) float32
    threshold = float(np.quantile(cum[-1], 0.1))  # a k-th best of the block
    mask = pruner.prune_mask(cum, np.arange(1, 33)[:, None], threshold)
    assert mask.shape == cum.shape
    rows = [pruner.prune_mask(cum[d - 1], d, threshold) for d in range(1, 33)]
    np.testing.assert_array_equal(mask, np.stack(rows))
    if name != "linear":
        assert mask.any() and not mask.all()


def test_prune_mask_row_and_matrix_agree_one_ulp_above_the_bound():
    """A float32 partial one ulp above ADSampling's float64 bound, where
    the bound rounds up to that partial in float32: the search's row call
    (a scalar count) and the trace's matrix call (a (D, 1) count column)
    must both keep it."""
    ads, d = ADSampling(32), 8
    ratio = ads._ratio[d - 1]
    threshold = next(
        t for t in 1.0 + np.arange(1, 1000) / 1024
        if float(np.float32(t * ratio)) > t * ratio
    )
    partial = np.float32(threshold * ratio)  # the bound rounded up
    cum = np.zeros((32, 1), dtype=np.float32)
    cum[d - 1] = partial
    row = ads.prune_mask(np.array([partial]), d, threshold)
    matrix = ads.prune_mask(cum, np.arange(1, 33)[:, None], threshold)
    assert not row[0]
    np.testing.assert_array_equal(matrix[d - 1], row)

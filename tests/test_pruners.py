"""Pruning predicates: math, masks, bounds, and dimension orderings."""
import tracemalloc

import numpy as np
import pytest

from repro.core.layout import build_pdx
from repro.core.pruners import ADSampling, BSA, PDXBond, Pruner
from repro.vecdata import generate, random_collection


@pytest.fixture(scope="module")
def data():
    return random_collection(600, 32, seed=0)


def test_linear_pruner_never_prunes(data):
    p = Pruner(32)
    ctx = p.prepare(data[0])
    mask = p.prune_mask(np.array([1e9, 0.0]), 10, 1.0, ctx)
    assert not mask.any()
    assert np.all(np.isinf(p.prune_bounds(ctx, 1.0)))


# ----------------------------------------------------------------- ADSampling

def test_ads_ratio_formula():
    ads = ADSampling(128, epsilon0=2.1)
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
    ctx = ads.prepare(data[0])
    assert not ads.prune_mask(np.full(5, 1e12), 16, float("inf"), ctx).any()


def test_ads_mask_matches_bounds(data):
    ads = ADSampling(32, seed=2)
    ctx = ads.prepare(data[0])
    thr = 123.0
    bounds = ads.prune_bounds(ctx, thr)
    partial = np.linspace(0, 300, 50).astype(np.float32)
    for d in (1, 7, 31, 32):
        mask = ads.prune_mask(partial, d, thr, ctx)
        np.testing.assert_array_equal(mask, partial > bounds[d - 1])


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


def test_bsa_mask_matches_bounds(data):
    bsa = BSA(32).fit(data)
    ctx = bsa.prepare(data[0])
    thr = 50.0
    bounds = bsa.prune_bounds(ctx, thr)
    partial = np.linspace(0, 100, 40).astype(np.float32)
    for d in (1, 16, 32):
        np.testing.assert_array_equal(
            bsa.prune_mask(partial, d, thr, ctx), partial > bounds[d - 1]
        )


def test_bsa_higher_multiplier_prunes_less(data):
    loose = BSA(32, multiplier=10.0).fit(data)
    tight = BSA(32, multiplier=0.5).fit(data)
    # Larger m => larger factor => looser bound at every dimension.
    assert np.all(loose._factor >= tight._factor - 1e-12)
    ctx_l, ctx_t = loose.prepare(data[0]), tight.prepare(data[0])
    partial = np.full(20, 45.0, dtype=np.float32)
    n_loose = loose.prune_mask(partial, 8, 50.0, ctx_l).sum()
    n_tight = tight.prune_mask(partial, 8, 50.0, ctx_t).sum()
    assert n_loose <= n_tight


# ------------------------------------------------------------------ PDX-BOND

@pytest.mark.parametrize("order", ["sequential", "decreasing", "means", "zones"])
def test_bond_order_is_permutation(order, data):
    coll = build_pdx(data)
    bond = PDXBond(32, order=order)
    ctx = bond.prepare(data[0], coll)
    np.testing.assert_array_equal(np.sort(ctx.dim_order), np.arange(32))


def test_bond_rejects_unknown_order():
    with pytest.raises(ValueError):
        PDXBond(8, order="bogus")


def test_bond_decreasing_order(data):
    bond = PDXBond(32, order="decreasing")
    ctx = bond.prepare(data[0])
    q = np.abs(data[0])
    assert np.all(np.diff(q[ctx.dim_order]) <= 1e-6)


def test_bond_means_order_ranks_by_gap(data):
    coll = build_pdx(data)
    bond = PDXBond(32, order="means")
    ctx = bond.prepare(data[0], coll)
    gap = np.abs(data[0].astype(np.float64) - coll.dim_means)
    assert np.all(np.diff(gap[ctx.dim_order]) <= 1e-6)


def test_bond_zones_are_contiguous_runs():
    ds = generate("glove50", sf=0.0005)
    coll = build_pdx(ds.data)
    bond = PDXBond(50, order="zones", zone_size=10)
    ctx = bond.prepare(ds.queries[0], coll)
    order = ctx.dim_order
    # every aligned zone of 10 dims must appear as one contiguous run
    for z0 in range(0, 50, 10):
        pos = np.flatnonzero(np.isin(order, np.arange(z0, z0 + 10)))
        assert pos.max() - pos.min() == 9
        np.testing.assert_array_equal(order[pos], np.arange(z0, z0 + 10))


def test_bond_exact_predicate_is_partial_gt_threshold(data):
    bond = PDXBond(32)
    ctx = bond.prepare(data[0], build_pdx(data))
    partial = np.array([0.5, 1.5, 2.5], dtype=np.float32)
    np.testing.assert_array_equal(
        bond.prune_mask(partial, 3, 1.5, ctx), [False, False, True]
    )
    np.testing.assert_allclose(bond.prune_bounds(ctx, 1.5), np.full(32, 1.5))


def test_bond_exactness_flags():
    assert PDXBond(8).exact and Pruner(8).exact
    assert not ADSampling(8).exact and not BSA(8).exact

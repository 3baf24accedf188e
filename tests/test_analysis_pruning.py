"""Δd=1 pruning-power traces (Table 2/6 harness) — the whole-matrix trace
must agree with a literal dimension-at-a-time simulation."""
import numpy as np
import pytest

from repro import vecdata
from repro.analysis.pruning import power_summary, pruning_power_table, pruning_power_trace
from repro.core.kernels import PDX_BLOCK_SIZE
from repro.core.layout import build_pdx
from repro.core.pruners import ADSampling, BSA, PDXBond, Pruner
from repro.core.topk import TopK


def _literal_trace(data, queries, pruner, k=10, block_size=PDX_BLOCK_SIZE):
    """Reference implementation: prune at every dimension, one at a time."""
    tdata = pruner.transform_data(data)
    coll = build_pdx(tdata, block_size=block_size)
    n, dim = tdata.shape
    powers = []
    for q in queries:
        ctx = pruner.prepare(q, coll)
        heap = TopK(k)
        scanned = 0
        for block in coll.blocks:
            threshold = heap.threshold
            dists = np.zeros(block.n, dtype=np.float64)
            alive = np.ones(block.n, dtype=bool)
            for step, d in enumerate(ctx.dim_order, start=1):
                diff = block.data[d].astype(np.float64) - float(ctx.query[d])
                dists[alive] += (diff * diff)[alive]
                scanned += int(alive.sum())
                if np.isfinite(threshold):
                    mask = pruner.prune_mask(
                        dists[alive].astype(np.float32), step, threshold
                    )
                    idx = np.flatnonzero(alive)
                    alive[idx[mask]] = False
            heap.update(block.ids[alive], dists[alive])
        powers.append(1.0 - scanned / (n * dim))
    return np.array(powers)


@pytest.mark.parametrize(
    "pruner_name", ["linear", "ads", "bsa", "bond_means", "bond_zones"]
)
def test_trace_matches_literal_simulation(pruner_name):
    ds = vecdata.generate("nytimes16", sf=0.0008, n_queries=5, seed=9)
    dim = ds.dim
    pruner = {
        "linear": lambda: Pruner(dim),
        "ads": lambda: ADSampling(dim, seed=0),
        "bsa": lambda: BSA(dim).fit(ds.data),
        "bond_means": lambda: PDXBond(dim, order="means"),
        "bond_zones": lambda: PDXBond(dim, order="zones"),
    }[pruner_name]()
    fast = pruning_power_trace(ds.data, ds.queries, pruner)
    slow = _literal_trace(ds.data, ds.queries, pruner)
    np.testing.assert_allclose(fast, slow, atol=0.02)


def test_linear_pruner_power_zero():
    ds = vecdata.generate("nytimes16", sf=0.0008, n_queries=3)
    p = pruning_power_trace(ds.data, ds.queries, Pruner(ds.dim))
    np.testing.assert_allclose(p, 0.0, atol=1e-12)


def test_powers_in_unit_interval():
    ds = vecdata.generate("glove50", sf=0.0008, n_queries=8)
    p = pruning_power_trace(ds.data, ds.queries, ADSampling(ds.dim, seed=1))
    assert np.all((p >= 0) & (p < 1))


def test_power_summary_ordering():
    s = power_summary(np.array([0.1, 0.5, 0.9, 0.7]))
    assert s["best"] >= s["p50"] >= s["p25"] >= s["worst"]
    assert s["best"] == pytest.approx(90.0)
    assert s["worst"] == pytest.approx(10.0)


def test_pruning_power_table_shape():
    datasets = {
        name: (
            (ds := vecdata.generate(name, sf=0.0008, n_queries=5)).data,
            ds.queries,
        )
        for name in ["nytimes16", "glove50"]
    }
    frame = pruning_power_table(
        datasets, lambda dim, data: ADSampling(dim, seed=0)
    )
    assert list(frame.index) == ["best", "p50", "p25", "worst"]
    assert set(frame.columns) == {"nytimes16", "glove50"}
    assert ((frame >= 0) & (frame <= 100)).all().all()


def test_skewed_prunes_better_than_low_dim_normal():
    """Table 2's qualitative claim: the low-D normal dataset (NYTimes/16)
    is the hardest to prune."""
    powers = {}
    for name in ["nytimes16", "msong420"]:
        ds = vecdata.generate(name, sf=0.0008, n_queries=8)
        powers[name] = np.median(
            pruning_power_trace(ds.data, ds.queries, ADSampling(ds.dim, seed=0))
        )
    assert powers["msong420"] > powers["nytimes16"]

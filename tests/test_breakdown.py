"""Table 7 harness: phase-timed IVF query execution."""
import numpy as np
import pytest

from repro import vecdata
from repro.analysis import breakdown
from repro.analysis.breakdown import PHASES, ivf_breakdown, tune_nprobe
from repro.core.pruners import PDXBond
from repro.core.trace import NO_TRACE
from repro.ivf.index import IVFIndex, IVFPDXSearcher, build_ivf


@pytest.fixture(scope="module")
def frame():
    return ivf_breakdown("glove200", sf=0.001, n_queries=8, target_recall=0.9)


def test_five_algorithms(frame):
    assert frame["algorithm"].tolist() == [
        "N-ary ADS",
        "PDX ADS",
        "N-ary BSA",
        "PDX BSA",
        "PDX BOND",
    ]


def test_phase_percentages_sum_to_100(frame):
    pct = frame[[f"{p}_pct" for p in PHASES]].sum(axis=1)
    np.testing.assert_allclose(pct, 100.0, atol=0.1)


def test_positive_query_times(frame):
    assert (frame["query_time_ms"] > 0).all()


def test_nprobe_recorded(frame):
    assert set(frame.attrs["nprobe"]) == {"ads", "bsa", "bond"}
    assert all(v >= 1 for v in frame.attrs["nprobe"].values())


def test_bond_query_prep_cheapest_at_high_dim():
    """PDX-BOND query preprocessing is 'almost free' (Table 7): an
    argsort of dimension gaps, vs a D×D projection for ADS/BSA. The gap
    shows at Table 7's dimensionality (D=1536), where the projection
    cost is quadratic in D."""
    import time

    from repro.core.pruners import ADSampling

    ds = vecdata.generate("openai1536", sf=0.0005, n_queries=1)
    ads = ADSampling(ds.dim, seed=0)
    bond = PDXBond(ds.dim, order="zones")
    index = build_ivf(ds.data, nlist=4, seed=0)
    s_ads = IVFPDXSearcher(index, ds.data, ads)
    s_bond = IVFPDXSearcher(index, ds.data, bond)
    q = ds.queries[0]

    def prep_time(searcher):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            searcher.pruner.prepare(q, searcher)
            best = min(best, time.perf_counter() - t0)
        return best

    assert prep_time(s_bond) < prep_time(s_ads)


def test_tune_nprobe_reaches_target():
    ds = vecdata.generate("glove50", sf=0.001, n_queries=10, seed=1)
    gt_ids, _ = vecdata.ground_truth(ds.data, ds.queries, 10)
    index = build_ivf(ds.data, seed=0)
    s = IVFPDXSearcher(index, ds.data, PDXBond(ds.dim, order="zones"))
    nprobe = tune_nprobe(s, ds.queries, gt_ids, 10, 0.9, max_nprobe=index.nlist)
    found = [s.search(q, 10, nprobe=nprobe)[0] for q in ds.queries]
    assert vecdata.recall_at_k(found, gt_ids) >= 0.9


def test_short_results_stay_ragged():
    """nprobe=1 on a bucket of 3 vectors returns 3 ids for k=10; recall
    counts the 7 missing ids as misses, so tuning moves on to nprobe=2."""
    ds = vecdata.generate("glove50", sf=0.001, n_queries=1, seed=1)
    x = ds.data
    buckets = [np.arange(3), np.arange(3, len(x))]
    centroids = np.stack([x[b].mean(axis=0) for b in buckets])
    index = IVFIndex(centroids=centroids, bucket_ids=buckets)
    s = IVFPDXSearcher(index, x, PDXBond(ds.dim, order="zones"))
    queries = centroids  # each query probes its own bucket first
    gt_ids, _ = vecdata.ground_truth(x, queries, 10)
    found = [s.search(q, 10, nprobe=1)[0] for q in queries]
    assert sorted(found[0].tolist()) == [0, 1, 2]
    assert len(found[1]) == 10
    assert vecdata.recall_at_k(found, gt_ids) <= 13 / 20
    assert tune_nprobe(s, queries, gt_ids, 10, 1.0, max_nprobe=4) == 2


class _StubSearcher:
    """Counts its calls and books a fixed per-pass time to each phase:
    ``distance`` costs 1, 5, 2 seconds in the three timed passes."""

    def __init__(self, n_queries):
        self.n_queries = n_queries
        self.untimed = 0
        self.timed = 0

    def search(self, q, k, *, nprobe, trace=NO_TRACE):
        if trace is NO_TRACE:
            self.untimed += 1
            return
        self.timed += 1
        if self.timed % self.n_queries == 0:  # last query of a pass
            timed_pass = self.timed // self.n_queries
            trace.seconds["distance"] = [1.0, 5.0, 2.0][timed_pass - 1]
            trace.seconds["bounds"] = 0.5


def test_run_timed_warms_then_takes_median_of_passes():
    queries = np.zeros((4, 3), dtype=np.float32)
    stub = _StubSearcher(len(queries))
    seconds = breakdown._run_timed(stub, queries, 10, 1)
    # One untimed warm-up pass, then TIMED_PASSES traced passes.
    assert stub.untimed == len(queries)
    assert stub.timed == breakdown.TIMED_PASSES * len(queries) == 3 * len(queries)
    assert seconds == {"distance": 2.0, "find_buckets": 0.0, "bounds": 0.5, "query_prep": 0.0}

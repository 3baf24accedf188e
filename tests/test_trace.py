"""Per-phase tracing of every searcher, and the traced benchmark's hooks."""
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import vecdata
from repro.core.layout import build_pdx
from repro.core.pdxearch import pdxearch
from repro.core.pruners import ADSampling, PDXBond
from repro.core.topk import TopK
from repro.core.trace import NO_TRACE, Trace
from repro.ivf.index import IVFNarySearcher, IVFPDXSearcher, build_ivf
from repro.search.exact import pdx_bond_search
from repro.search.horizontal import horizontal_pruned_search

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def searches():
    """name -> (search(query, trace) -> (ids, dists), phases it must time)."""
    ds = vecdata.generate("glove50", sf=0.002, n_queries=3, seed=5)
    ads = ADSampling(ds.dim, seed=0)
    ads_coll = build_pdx(ads.transform_data(ds.data))
    exact_coll = build_pdx(ds.data, block_size=500)
    index = build_ivf(ds.data, seed=0)
    ivf_pdx = IVFPDXSearcher(index, ds.data, ads)
    ivf_nary = IVFNarySearcher(index, ds.data, ads)
    bond = PDXBond(ds.dim, order="means")
    ids = np.arange(ds.n, dtype=np.int64)

    def horizontal(q, trace):
        heap = TopK(10)
        horizontal_pruned_search(
            ds.data, ids, bond.prepare(q, exact_coll), bond, heap, trace=trace
        )
        return heap.result()

    ivf = ["query_prep", "find_buckets", "distance"]
    cases = {
        "pdxearch": (
            lambda q, trace: pdxearch(ads_coll, q, 10, ads, trace=trace),
            ["query_prep", "distance", "bounds"],
        ),
        "pdx_bond_search": (
            lambda q, trace: pdx_bond_search(exact_coll, q, 10, trace=trace),
            ["query_prep", "distance", "bounds"],
        ),
        "ivf_pdx": (
            lambda q, trace: ivf_pdx.search(q, 10, nprobe=8, trace=trace),
            ivf + ["bounds"],
        ),
        "ivf_nary_pruned": (
            lambda q, trace: ivf_nary.search(q, 10, nprobe=8, trace=trace),
            ivf + ["bounds"],
        ),
        "ivf_nary_linear": (
            lambda q, trace: ivf_nary.search(q, 10, nprobe=8, pruned=False, trace=trace),
            ivf,
        ),
        "horizontal": (horizontal, ["distance", "bounds"]),
    }
    return ds, cases


@pytest.mark.parametrize(
    "name",
    ["pdxearch", "pdx_bond_search", "ivf_pdx", "ivf_nary_pruned", "ivf_nary_linear", "horizontal"],
)
def test_trace_times_phases_and_keeps_results(name, searches):
    ds, cases = searches
    search, phases = cases[name]
    trace = Trace()
    for q in ds.queries:
        ids, dists = search(q, trace)
        base_ids, base_dists = search(q, NO_TRACE)
        np.testing.assert_array_equal(ids, base_ids)
        np.testing.assert_array_equal(dists, base_dists)
    assert sorted(trace.seconds) == sorted(phases)
    assert all(trace.seconds[p] > 0 for p in phases)
    assert NO_TRACE.seconds == {}


def _run_in_perfbench(code: str, timeout: int) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_finds_every_entry_point():
    """The traced benchmark run wraps entry points by name; a rename
    would fail it with ``TraceError`` at install time."""
    _run_in_perfbench("import searchers, tracing; tracing.Tracer().install()", 120)


def test_benchmark_tracer_sees_every_entry_point_called():
    """Tiny ivf and exact workloads, built and searched under the traced
    benchmark's wrappers, call every entry point the run expects; a
    change to the call graph fails here, not at benchmark time."""
    _run_in_perfbench(textwrap.dedent("""
        from inputs import Workload, make_inputs
        import searchers, tracing

        tracer = tracing.Tracer()
        tracer.install()
        for w in [
            Workload("tiny-ivf", "glove50", "ivf", n=3000, nlist=16, nprobe=4),
            Workload("tiny-exact", "glove50", "exact", n=2000),
        ]:
            data, queries = make_inputs(w, 0)
            tracer.reset("setup")
            tracer.reset("query")
            tracer.attach("setup")
            built = searchers.build_inproc(w, data)
            for name, fn in built.fns.items():
                tracer.attach("query", name)
                for q in queries[:3]:
                    fn(q)
            tracer.detach()
            tracer.check_called(w.kind)
    """), 300)

"""Builds every searcher of a workload: in-process indexes and the Spark
operator. All calls go through module attributes, so the traced run's
wrappers (``tracing.py``) see them."""
from __future__ import annotations

import os
import subprocess
import time
from types import SimpleNamespace

import numpy as np

from repro import vecdata
from repro.core import pdxearch
from repro.core.kernels import l2_nary
from repro.core.pruners import BSA, ADSampling, PDXBond, Pruner
from repro.ivf import index as ivf_index
from repro.search import exact

from inputs import K, Workload

def build_inproc(w: Workload, data: np.ndarray) -> SimpleNamespace:
    """Every in-process searcher, ready to answer ``fn(query) -> (ids, dists)``.

    The names are shared by both kinds of workload (see NOTES.md).
    """
    dim = data.shape[1]
    if w.kind == "ivf":
        index = ivf_index.build_ivf(data, nlist=w.nlist)
        s = {
            "nary": ivf_index.IVFNarySearcher(index, data, Pruner(dim)),
            "ads": ivf_index.IVFPDXSearcher(index, data, ADSampling(dim)),
            "bsa": ivf_index.IVFPDXSearcher(index, data, BSA(dim)),
            "bond": ivf_index.IVFPDXSearcher(index, data, PDXBond(dim, order="zones")),
            "linear": ivf_index.IVFPDXSearcher(index, data, Pruner(dim)),
        }
        nprobe = w.nprobe
        fns = {
            "nary": lambda q: s["nary"].search(q, K, nprobe=nprobe, pruned=False),
            **{
                name: (lambda q, o=s[name]: o.search(q, K, nprobe=nprobe))
                for name in ("ads", "bsa", "bond", "linear")
            },
        }
        return SimpleNamespace(fns=fns, state=s, index=index)
    coll = exact.build_exact_collection(data)
    ads_p, bsa_p = ADSampling(dim), BSA(dim)
    ads_coll = exact.build_exact_collection(ads_p.transform_data(data))
    bsa_coll = exact.build_exact_collection(bsa_p.transform_data(data))
    fns = {
        "nary": lambda q: exact.brute_force_nary(data, q, K),
        "ads": lambda q: pdxearch.pdxearch(ads_coll, q, K, ads_p),
        "bsa": lambda q: pdxearch.pdxearch(bsa_coll, q, K, bsa_p),
        "bond": lambda q: exact.pdx_bond_search(coll, q, K),
        "linear": lambda q: pdxearch.pdx_linear_scan(coll, q, K),
    }
    state = [data, coll, ads_p, ads_coll, bsa_p, bsa_coll]
    return SimpleNamespace(fns=fns, state=state, index=None)


def index_bytes(root) -> int:
    """Bytes of the array buffers reachable from ``root``, each buffer once."""
    seen_obj: set[int] = set()
    buffers: dict[int, int] = {}
    stack = [root]
    while stack:
        o = stack.pop()
        if id(o) in seen_obj:
            continue
        seen_obj.add(id(o))
        if isinstance(o, np.ndarray):
            base = o
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif hasattr(o, "__dict__") and not callable(o):
            stack.extend(vars(o).values())
    return sum(buffers.values())


def probe_oracle_ids(index, data, queries, nprobe: int) -> list[np.ndarray]:
    """Ids in the buckets an IVF search probes, ranked as the searchers rank
    them (float32 N-ary distances to the raw-space centroids)."""
    out = []
    for q in queries:
        probe = np.argsort(l2_nary(index.centroids, q), kind="stable")[:nprobe]
        out.append(np.concatenate([index.bucket_ids[c] for c in probe]))
    return out


class SparkSide:
    """One local SparkSession and the PDX block table of one collection.

    Spark keeps its scratch files under ``workdir``; :meth:`stop` ends the
    JVM and waits for it.
    """

    def __init__(self, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        t0 = time.perf_counter()
        from pyspark.sql import SparkSession

        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", "8")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.local.dir", workdir)
            .config("spark.sql.warehouse.dir", os.path.join(workdir, "warehouse"))
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        self.session_s = time.perf_counter() - t0
        self._proc = getattr(self.spark.sparkContext._gateway, "proc", None)
        self.blocks = None

    def build(self, data: np.ndarray) -> dict:
        """Lift ``data`` and build its cached block table; returns timings."""
        from repro.spark import layout_ops

        sc = self.spark.sparkContext
        if self.blocks is not None:
            self.blocks.unpersist(blocking=True)
        t0 = time.perf_counter()
        df = vecdata.to_spark(self.spark, data)
        t1 = time.perf_counter()
        group = f"build-{t1}"
        sc.setJobGroup(group, "block build")
        blocks = layout_ops.vectors_to_blocks(df).cache()
        n_blocks = blocks.count()
        t2 = time.perf_counter()
        sc.setJobGroup("query", "knn")
        tracker = sc.statusTracker()
        tasks = [
            tracker.getStageInfo(sid).numTasks
            for jid in tracker.getJobIdsForGroup(group)
            for sid in tracker.getJobInfo(jid).stageIds
            if tracker.getStageInfo(sid) is not None
        ]
        self.blocks = blocks
        return {
            "lift_s": t1 - t0,
            "build_s": t2 - t1,
            "build_min_tasks": min(tasks) if tasks else 0,
            "n_blocks": n_blocks,
        }

    def knn(self, queries: np.ndarray, dim: int):
        from repro.spark.search_ops import knn

        return knn(self.blocks, queries, K, PDXBond(dim, order="means")).toPandas()

    def partitions(self) -> int:
        return self.blocks.rdd.getNumPartitions()

    def stop(self) -> None:
        self.spark.stop()
        from pyspark import SparkContext

        gw = SparkContext._gateway
        if gw is not None:
            gw.shutdown()
            SparkContext._gateway = None
            SparkContext._jvm = None
        if self._proc is not None:
            if self._proc.stdin:
                self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

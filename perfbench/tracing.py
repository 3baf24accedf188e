"""Traced run: spans around the public entry points of each layer.

The wrappers live here, in the benchmark, and replace the entry points
in every ``repro`` module that binds them (``from x import f`` makes a
binding per importing module) while a traced call runs; between traced
calls the original functions are bound again. ``repro.spark.*`` is left
alone: its closures are pickled to Spark's Python workers, which import
the unwrapped code. Each span adds its duration to its key and to its
parent's child time; a layer's self time is its spans' time minus
their children. Counters are recorded at the same boundaries; the time
they take is timed too, taken out of every layer's self time and
reported on its own.

Kernel calls that rank the IVF centroids (every kernel under
``_pdx_all_distances``, and ``l2_nary`` over an ``IVFNarySearcher``'s
``tcentroids``) are booked to the ``ivf`` layer as ``rank.<kernel>``,
so ``ivf.rank_ms`` covers the ranking and ``kernels.*`` the bucket
scans only.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: (layer, module, attribute) of every wrapped function.
FUNCTIONS = [
    ("kernels", "repro.core.kernels", "l2_accumulate"),
    ("kernels", "repro.core.kernels", "l2_pdx"),
    ("kernels", "repro.core.kernels", "l2_nary"),
    ("pruners", "repro.core.pruners", "random_orthogonal"),
    ("pdxearch", "repro.core.pdxearch", "search_blocks"),
    ("pdxearch", "repro.core.pdxearch", "pdxearch"),
    ("pdxearch", "repro.core.pdxearch", "pdx_linear_scan"),
    ("pdxearch", "repro.core.pdxearch", "_scan_block_full"),
    ("layout", "repro.core.layout", "build_pdx"),
    ("ivf", "repro.ivf.index", "build_ivf"),
    ("ivf", "repro.ivf.index", "_pdx_all_distances"),
    ("ivf", "repro.ivf.kmeans", "kmeans"),
    ("exact", "repro.search.exact", "brute_force_nary"),
    ("exact", "repro.search.exact", "pdx_bond_search"),
    ("exact", "repro.search.exact", "build_exact_collection"),
]
#: (layer, module, class, methods) of every wrapped method.
METHODS = [
    ("pruners", "repro.core.pruners", "Pruner", ("prepare", "prune_mask", "transform_data")),
    ("pruners", "repro.core.pruners", "ADSampling", ("prepare", "prune_mask", "transform_data")),
    ("pruners", "repro.core.pruners", "BSA", ("prepare", "prune_mask", "transform_data")),
    ("pruners", "repro.core.pruners", "PDXBond", ("prepare", "prune_mask")),
    ("topk", "repro.core.topk", "TopK", ("update",)),
    ("ivf", "repro.ivf.index", "IVFPDXSearcher", ("search",)),
    ("ivf", "repro.ivf.index", "IVFNarySearcher", ("search",)),
]
#: Keys each kind of workload must call; zero calls fails the run.
EXPECTED = {
    "both": [
        "l2_accumulate", "l2_nary", "search_blocks", "_scan_block_full",
        "build_pdx", "TopK.update", "ADSampling.prepare", "ADSampling.prune_mask",
        "BSA.prepare", "BSA.prune_mask", "PDXBond.prepare", "PDXBond.prune_mask",
        "ADSampling.transform_data", "BSA.transform_data", "random_orthogonal",
    ],
    "ivf": [
        "IVFPDXSearcher.search", "IVFNarySearcher.search", "build_ivf", "kmeans",
        "Pruner.prepare", "Pruner.prune_mask", "_pdx_all_distances",
        "rank.l2_accumulate", "rank.l2_nary",
    ],
    "exact": [
        "l2_pdx", "pdxearch", "pdx_linear_scan", "brute_force_nary",
        "pdx_bond_search", "build_exact_collection",
    ],
}
KERNELS = ("l2_accumulate", "l2_pdx", "l2_nary")


class TraceError(RuntimeError):
    """A wrapped entry point is missing or was never called."""


class Tracer:
    """Spans and counters of one traced run, keyed ``"phase:name"``.

    :meth:`attach` binds the wrappers and :meth:`detach` the original
    functions again, so untraced calls run the original code; ``phase``
    is ``"setup"`` or ``"query"``.
    """

    def __init__(self):
        self.phase = "query"
        self.searcher = ""
        self.centroids = None  # tcentroids of the IVFNarySearcher searching
        self.t = defaultdict(float)  # "phase:key" -> inclusive seconds
        self.self_t = defaultdict(float)  # "phase:layer" -> self seconds
        self.n = defaultdict(int)  # "phase:key" -> calls
        self.c = defaultdict(float)  # "phase:counter" -> count
        self.active = defaultdict(int)  # key -> open spans
        self._children: list[list[float]] = []
        self._bindings: list[tuple[object, str, object, object]] = []  # owner, name, fn, wrapper

    # -- spans -----------------------------------------------------------
    def span(self, layer: str, key: str, fn, *args, **kw):
        child = [0.0]
        self._children.append(child)
        self.active[key] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            dt = time.perf_counter() - t0
            self.active[key] -= 1
            self._children.pop()
            if self._children:
                self._children[-1][0] += dt
            p = self.phase
            self.t[f"{p}:{key}"] += dt
            self.n[f"{p}:{key}"] += 1
            self.self_t[f"{p}:{layer}"] += dt - child[0]
            if key == "_scan_block_full" and self.active["pdx_bond_search"]:
                self.c[f"{p}:bond_start_s"] += dt

    def add(self, counter: str, v: float) -> None:
        self.c[f"{self.phase}:{counter}"] += v

    def charge_hook(self, t0: float) -> None:
        """Books a counter hook started at ``t0`` as tracer time, not layer time."""
        dt = time.perf_counter() - t0
        self.c[f"{self.phase}:hook_s"] += dt
        if self._children:
            self._children[-1][0] += dt

    def ranking(self, key: str, args) -> bool:
        """Whether a kernel call ranks IVF centroids."""
        return bool(self.active["_pdx_all_distances"]) or (
            key == "l2_nary" and bool(args) and args[0] is self.centroids)

    def reset(self, phase: str) -> None:
        for d in (self.t, self.self_t, self.n, self.c):
            for key in [k for k in d if k.startswith(phase + ":")]:
                del d[key]

    # -- installing ------------------------------------------------------
    def _wrapper(self, layer: str, key: str, fn):
        tracer = self
        count = _COUNTS.get(key)
        pre = _PRE.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if key in KERNELS and tracer.ranking(key, args):
                return tracer.span("ivf", f"rank.{key}", fn, *args, **kw)
            t0 = time.perf_counter()
            if pre is not None:
                args = pre(tracer, args)
            if count is not None:
                count(tracer, *args, **kw)
            tracer.charge_hook(t0)
            return tracer.span(layer, key, fn, *args, **kw)

        return wrapper

    def install(self) -> None:
        """Wraps every entry point, bound only while attached; raises
        :class:`TraceError` if one is gone."""
        mods = [m for n, m in list(sys.modules.items())
                if n.startswith("repro.") and not n.startswith("repro.spark")]
        for layer, modname, attr in FUNCTIONS:
            fn = getattr(importlib.import_module(modname), attr, None)
            if not callable(fn):
                raise TraceError(f"entry point {modname}.{attr} is missing")
            w = self._wrapper(layer, attr, fn)
            hits = 0
            for m in mods:
                for owner in [m.__dict__] + [v for v in m.__dict__.values() if isinstance(v, dict)]:
                    for name, v in list(owner.items()):
                        if v is fn:
                            self._bindings.append((owner, name, fn, w))
                            hits += 1
            if not hits:
                raise TraceError(f"no binding of {modname}.{attr} found")
        for layer, modname, clsname, methods in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if not callable(fn):
                    raise TraceError(f"entry point {modname}.{clsname}.{meth} is missing")
                self._bindings.append((cls, meth, fn, self._wrapper(layer, f"{clsname}.{meth}", fn)))

    def _bind(self, wrapped: bool) -> None:
        for owner, name, fn, w in self._bindings:
            if isinstance(owner, dict):
                owner[name] = w if wrapped else fn
            else:
                setattr(owner, name, w if wrapped else fn)

    def attach(self, phase: str, searcher: str = "") -> None:
        """Binds the wrappers and traces what follows under ``phase``."""
        self.phase, self.searcher = phase, searcher
        self._bind(True)

    def detach(self) -> None:
        """Binds the original functions again."""
        self._bind(False)

    def check_called(self, kind: str) -> None:
        """Every entry point the workload kind should reach was called."""
        keys = EXPECTED["both"] + EXPECTED[kind]
        missing = [k for k in keys if not (self.n[f"query:{k}"] or self.n[f"setup:{k}"])]
        if missing:
            raise TraceError(f"entry points never called on an {kind!r} workload: {missing}")

    # -- metrics ---------------------------------------------------------
    def q(self, key: str) -> float:
        return self.t[f"query:{key}"]

    def metrics(self, n_queries: int, dim: int, pruned: tuple[str, ...]) -> dict:
        """Per-layer metrics per traced searcher call (``n_queries``)."""
        nq = max(1, n_queries)
        t, n, c = self.t, self.n, self.c
        kern_s = sum(self.q(k) for k in KERNELS)
        values = c["query:values"]
        prep = [k for k in t if k.startswith("query:") and k.endswith(".prepare")]
        pred = [k for k in t if k.startswith("query:") and k.endswith(".prune_mask")]
        sb_vals = sum(c[f"query:sb_values:{s}"] for s in pruned)
        sb_vecs = sum(c[f"query:sb_vectors:{s}"] for s in pruned)
        blocks = c["query:blocks"]
        ivf_calls = n["query:IVFPDXSearcher.search"]
        bond_calls = n["query:pdx_bond_search"]
        bench = self.q("bench")
        return {
            "kernels.accumulate_ms": (self.q("l2_accumulate") / nq * 1e3, "ms"),
            "kernels.pdx_ms": (self.q("l2_pdx") / nq * 1e3, "ms"),
            "kernels.nary_ms": (self.q("l2_nary") / nq * 1e3, "ms"),
            "kernels.values": (values / nq, "count"),
            "kernels.ns_per_value": (kern_s / values * 1e9 if values else 0.0, "ns"),
            "kernels.calls": (sum(n[f"query:{k}"] for k in KERNELS) / nq, "count"),
            "pruners.prepare_ms": (sum(t[k] for k in prep) / nq * 1e3, "ms"),
            "pruners.predicate_ms": (sum(t[k] for k in pred) / nq * 1e3, "ms"),
            "pruners.predicate_calls": (sum(n[k] for k in pred) / nq, "count"),
            "pruners.values_avoided_pct": (
                100.0 * (1.0 - sb_vals / (sb_vecs * dim)) if sb_vecs else 0.0, "%"),
            "pruners.transform_s": (
                self.t["setup:ADSampling.transform_data"] + self.t["setup:BSA.transform_data"]
                + self.t["setup:Pruner.transform_data"] + self.t["setup:random_orthogonal"], "s"),
            "pdxearch.self_ms": (self.self_t["query:pdxearch"] / nq * 1e3, "ms"),
            "pdxearch.blocks": (blocks / nq, "count"),
            "pdxearch.us_per_block": (
                self.q("search_blocks") / blocks * 1e6 if blocks else 0.0, "us"),
            "topk.update_ms": (self.q("TopK.update") / nq * 1e3, "ms"),
            "topk.merged": (c["query:merged"] / nq, "count"),
            "layout.build_s": (self.t["setup:build_pdx"], "s"),
            "ivf.rank_ms": (self.self_t["query:ivf"] / nq * 1e3, "ms"),
            "ivf.vectors_probed": (
                c["query:ivf_vectors"] / ivf_calls if ivf_calls else 0.0, "count"),
            "ivf.kmeans_s": (self.t["setup:kmeans"], "s"),
            "exact.bond_start_ms": (
                c["query:bond_start_s"] / bond_calls * 1e3 if bond_calls else 0.0, "ms"),
            "bench.unaccounted_pct": (
                100.0 * self.self_t["query:bench"] / bench if bench else 0.0, "%"),
            "bench.hook_pct": (100.0 * c["query:hook_s"] / bench if bench else 0.0, "%"),
        }


def _count_accumulate(tr: Tracer, block, query, dists, dim_idx, positions=None):
    v = len(dim_idx) * (len(positions) if positions is not None else block.shape[1])
    tr.add("values", v)
    if tr.active["search_blocks"]:
        tr.add(f"sb_values:{tr.searcher}", v)


def _count_blocks(tr: Tracer, blocks):
    in_ivf = tr.active["IVFPDXSearcher.search"] > 0
    for b in blocks:
        t0 = time.perf_counter()
        tr.add("blocks", 1)
        tr.add(f"sb_vectors:{tr.searcher}", b.n)
        if in_ivf:
            tr.add("ivf_vectors", b.n)
        tr.charge_hook(t0)
        yield b


def _note_centroids(tr: Tracer, args):
    tr.centroids = args[0].tcentroids
    return args


_COUNTS = {
    "l2_accumulate": _count_accumulate,
    "l2_pdx": lambda tr, stacked, query: tr.add("values", stacked.size),
    "l2_nary": lambda tr, data, query: tr.add("values", data.size),
    "TopK.update": lambda tr, heap, ids, dists: tr.add("merged", len(ids)),
}
_PRE = {
    "search_blocks": lambda tr, args: (_count_blocks(tr, args[0]),) + tuple(args[1:]),
    "IVFNarySearcher.search": _note_centroids,
}

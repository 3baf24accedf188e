"""Dimension-pruning algorithms plugged into PDXearch (§2.3, §5).

Each pruner implements a small protocol:

- ``transform_data(X)`` — collection preprocessing done once at build
  time (ADSampling's random rotation, BSA's PCA; identity for PDX-BOND).
- ``prepare(query, meta)`` — per-query work (transform the query,
  compute the query-aware dimension order; ``meta`` is read only by
  PDX-BOND). Returns a :class:`QueryContext`. This is the "query
  preprocessing" phase of the Table 7 breakdown.
- ``prune_mask(partial, nscanned, threshold)`` — the pruning predicate,
  each pruner's one definition of its bound: given partial squared
  distances after ``nscanned`` dimensions and the current k-th best
  distance, return a boolean mask shaped like ``partial`` (True =
  provably/probably out, stop scanning). ``nscanned`` broadcasts
  against ``partial``: PDXearch passes one block step (1-D partials, a
  scalar count), the Δd=1 pruning-power trace of Tables 2/6 passes
  every dimension at once ((D, n) cumulative partials, a (D, 1) count
  column), so the tables measure the predicate the search runs. A bound
  is cast to the partials' dtype before the comparison, so both calls
  compare in float32 and give the same mask.

All distances are *squared* L2. Transforms are orthogonal (possibly
after centering), so distances in transformed space equal distances in
the original space and survivors' full partial distance is their exact
distance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.projections import PCAProjection, random_orthogonal

#: ADSampling's ε₀, the authors' recommended recall/speed setting.
EPSILON0 = 2.1
#: BSA's recall-tuning multiplier m, set so its recall is close to
#: ADSampling's (paper §6.1).
BSA_MULTIPLIER = 3.0
#: Vectors sampled to calibrate BSA's remaining-distance profile.
BSA_SAMPLE = 512


class HasDimMeans(Protocol):
    """``prepare``'s metadata: anything with (D,) collection-level
    ``dim_means`` — a ``PDXCollection``, an IVF searcher, a namespace."""

    dim_means: np.ndarray


@dataclass
class QueryContext:
    """Per-query state shared by the search loop and the pruning predicate."""

    query: np.ndarray  # transformed query, (D,) float32
    # Permutation of 0…D-1; ``range(D)`` for storage order, so kernels
    # slice contiguous dimension runs instead of gathering them.
    dim_order: np.ndarray | range


class Pruner:
    """Base: a linear scan that never prunes (the PDX-LINEAR-SCAN baseline)."""

    def __init__(self, dim: int):
        self.dim = dim

    def transform_data(self, data: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(data, dtype=np.float32)

    def prepare(self, query: np.ndarray, meta: HasDimMeans | None = None) -> QueryContext:
        return QueryContext(
            query=np.ascontiguousarray(query, dtype=np.float32),
            dim_order=range(self.dim),
        )

    def prune_mask(
        self, partial: np.ndarray, nscanned: int | np.ndarray, threshold: float
    ) -> np.ndarray:
        return np.zeros(np.shape(partial), dtype=bool)


class ADSampling(Pruner):
    """ADSampling [19]: random orthogonal projection + hypothesis testing.

    After ``d`` of ``D`` dimensions of the rotated space, the partial
    squared distance of a vector at true squared distance ``t`` has mean
    ``t·d/D``. The test prunes when the partial exceeds
    ``r²·(d/D)·(1+ε₀/√d)²`` — i.e. when even an ε₀-generous estimate of
    the full distance exceeds the current k-th best ``r²``
    (ε₀ = :data:`EPSILON0`).
    """

    def __init__(self, dim: int, *, seed: int = 0):
        super().__init__(dim)
        self.rotation = random_orthogonal(dim, seed=seed)
        d = np.arange(1, dim + 1, dtype=np.float64)
        # ratio[d-1] multiplies the threshold at d scanned dimensions.
        self._ratio = (d / dim) * (1.0 + EPSILON0 / np.sqrt(d)) ** 2

    def transform_data(self, data: np.ndarray) -> np.ndarray:
        out = data.astype(np.float32) @ self.rotation.T
        return np.ascontiguousarray(out, dtype=np.float32)

    def prepare(self, query: np.ndarray, meta: HasDimMeans | None = None) -> QueryContext:
        q = (query.astype(np.float32) @ self.rotation.T).astype(np.float32)
        return QueryContext(query=q, dim_order=range(self.dim))

    def prune_mask(self, partial, nscanned, threshold):
        if not np.isfinite(threshold):
            return np.zeros(np.shape(partial), dtype=bool)
        return partial > np.asarray(threshold * self._ratio[nscanned - 1], dtype=partial.dtype)


class BSA(Pruner):
    """BSA_res [52] (simplified): PCA projection + learned error-quantile
    pruning.

    The collection is projected onto its principal axes (variance
    descending), concentrating distance energy in early dimensions. At
    fit time the *remaining-distance fraction profile* of near pairs is
    calibrated from the data: for sampled (vector, nearest-neighbour)
    pairs in PCA space, ``f[d] = rem_d / total`` — the share of the
    squared distance still missing after ``d`` dimensions. A true top-k
    member's partial distance satisfies ``partial_d = total·(1 − f[d])
    ≤ r²·(1 − f_lo[d])`` with ``f_lo[d] = clip(mean − m·std, 0, 1)`` a
    low quantile of the profile, so a vector is pruned once

        partial_d > r² · (1 − f_lo[d]).

    Because PCA front-loads energy, near pairs still have a sizeable
    remaining fraction at small d (``f_lo > 0``), so pruning starts
    earlier than with the raw exact bound (``partial > r²``).
    The multiplier ``m`` (:data:`BSA_MULTIPLIER`) trades recall for speed
    (paper §6.1: "m is set to achieve a recall similar to ADSampling").

    Substitution note (DESIGN.md §3): the original BSA learns per-
    dimension regression models for its error quantiles; we calibrate a
    per-dimension quantile profile from sampled NN pairs. Both are
    learned, data-dependent lower bounds on the full distance with a
    recall-tuning multiplier.
    """

    def __init__(self, dim: int):
        super().__init__(dim)
        self.pca: PCAProjection | None = None
        self._factor: np.ndarray | None = None  # (D,) threshold scalers

    def fit(self, data: np.ndarray, *, seed: int = 0) -> "BSA":
        self.pca = PCAProjection.fit(data, seed=seed)
        rng = np.random.default_rng(seed)
        idx = (
            rng.choice(len(data), BSA_SAMPLE, replace=False)
            if len(data) > BSA_SAMPLE
            else np.arange(len(data))
        )
        s = self.pca.transform(data[idx]).astype(np.float64)
        # Nearest neighbour of each sample point within the sample, by norm
        # expansion, so memory stays (sample, sample) at any D.
        norms = (s * s).sum(1)
        d2 = norms[:, None] - 2.0 * (s @ s.T) + norms[None, :]
        np.fill_diagonal(d2, np.inf)
        nn = np.argmin(d2, axis=1)
        diff2 = (s - s[nn]) ** 2  # (sample, D) per-dim contributions
        total = diff2.sum(axis=1, keepdims=True)
        total[total == 0] = 1.0
        # rem_frac[i, d] = fraction of pair i's distance after d dims.
        prefix = np.cumsum(diff2, axis=1) / total
        rem_frac = 1.0 - np.concatenate(
            [np.zeros((len(s), 1)), prefix], axis=1
        )  # (sample, D+1)
        f_lo = np.clip(
            rem_frac.mean(axis=0) - BSA_MULTIPLIER * rem_frac.std(axis=0), 0.0, 1.0
        )
        self._factor = 1.0 - f_lo[1 : self.dim + 1]
        return self

    def transform_data(self, data: np.ndarray) -> np.ndarray:
        if self.pca is None:
            self.fit(data)
        return self.pca.transform(data)

    def prepare(self, query: np.ndarray, meta: HasDimMeans | None = None) -> QueryContext:
        assert self.pca is not None, "BSA.fit/transform_data must run first"
        q = self.pca.transform(query[None, :])[0]
        return QueryContext(query=q, dim_order=range(self.dim))

    def prune_mask(self, partial, nscanned, threshold):
        if not np.isfinite(threshold):
            return np.zeros(np.shape(partial), dtype=bool)
        return partial > np.asarray(threshold * self._factor[nscanned - 1], dtype=partial.dtype)


class PDXBond(Pruner):
    """PDX-BOND (§5): exact pruning on raw vectors, query-aware dim order.

    The lower bound is the partial distance itself (monotone in the
    number of scanned dimensions), so pruning never loses a true
    neighbour — PDX-BOND is exact. Dimensions are visited in an order
    chosen per query from the collection's ``meta.dim_means``:

    - ``means`` (default) — the paper's "distance to means": largest
      |q_d − mean_d| first;
    - ``zones`` — the paper's "dimension zones": consecutive runs of
      ``max(8, D // 16)`` dims ranked by their mean distance-to-means,
      dims sequential inside a zone (trades pruning power for sequential
      access; the IVF searchers use it).
    """

    def __init__(self, dim: int, *, order: str = "means"):
        super().__init__(dim)
        if order not in {"means", "zones"}:
            raise ValueError(f"unknown order {order!r}")
        self.order = order

    def prepare(self, query: np.ndarray, meta: HasDimMeans | None = None) -> QueryContext:
        q = np.ascontiguousarray(query, dtype=np.float32)
        d = self.dim
        gap = np.abs(q.astype(np.float64) - meta.dim_means.astype(np.float64))
        if self.order == "means":
            idx = np.argsort(-gap, kind="stable")
        else:  # zones
            z = max(8, d // 16)
            nz = (d + z - 1) // z
            pad = nz * z - d
            padded = np.concatenate([gap, np.zeros(pad)])
            counts = np.full(nz, z, dtype=np.float64)
            if pad:
                counts[-1] = z - pad
            scores = padded.reshape(nz, z).sum(axis=1) / counts
            zone_rank = np.argsort(-scores, kind="stable")
            idx = (zone_rank[:, None] * z + np.arange(z)[None, :]).ravel()
            idx = idx[idx < d]  # drop padding slots of the last zone
        return QueryContext(query=q, dim_order=idx.astype(np.int64))

    def prune_mask(self, partial, nscanned, threshold):
        if not np.isfinite(threshold):
            return np.zeros(np.shape(partial), dtype=bool)
        # The partial distance is itself a lower bound (exact pruning).
        return partial > threshold

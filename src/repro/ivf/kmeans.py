"""Lloyd's k-means — the IVF clustering substrate (§2.1).

The paper's IVF indexes come from FAISS ("non-optimized Lloyd
algorithm"); we implement Lloyd's from scratch: seeding at k random
rows of distinct index (duplicate rows may still seed equal centroids),
nearest-centroid assignment in chunks of :data:`ASSIGN_CHUNK` rows,
mean update, and empty clusters reseeded farthest-first to distinct
rows. Deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np


#: Rows assigned at a time, so the (rows, k) float64 distance matrix stays
#: a few MB: at 50 k rows and k = 158, one 63 MB matrix per call took 165 ms
#: and 4096-row chunks take 53 ms (4-core VM).
ASSIGN_CHUNK = 4096
#: Lloyd iterations at most (fewer once an assignment repeats).
ITERS = 8


def assign(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid id for every row of ``data`` (squared L2).

    ‖x−c‖² = ‖x‖² − 2x·c + ‖c‖², and ‖x‖² is constant per row, so each
    chunk scores x·(−2c) + ‖c‖²; scaling by −2 is exact, so this is the
    same IEEE arithmetic as ‖c‖² − 2(x·c).
    """
    c64 = centroids.astype(np.float64)
    c_norms = (c64 * c64).sum(axis=1)
    neg2_ct = -2.0 * c64.T
    out = np.empty(len(data), dtype=np.int64)
    for s in range(0, len(data), ASSIGN_CHUNK):
        d2 = data[s : s + ASSIGN_CHUNK].astype(np.float64) @ neg2_ct
        d2 += c_norms
        out[s : s + ASSIGN_CHUNK] = np.argmin(d2, axis=1)
    return out


def kmeans(data: np.ndarray, k: int, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Run Lloyd's algorithm for at most :data:`ITERS` iterations; returns
    ``(centroids (k, D), assignment (N,))``."""
    n = len(data)
    if k > n:
        raise ValueError(f"k={k} > n={n}")
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(n, k, replace=False)].astype(np.float64)
    labels = assign(data, centroids)
    for _ in range(ITERS):
        counts = np.bincount(labels, minlength=k)
        for c in np.flatnonzero(counts):
            centroids[c] = data[labels == c].mean(axis=0)
        if not counts.all():
            # Reseed the empty clusters farthest-first: each to the point
            # farthest from its own centroid and from every point picked
            # so far, so equal rows are not picked twice while others are left.
            d = data.astype(np.float64)
            far = ((d - centroids[labels]) ** 2).sum(axis=1)
            for c in np.flatnonzero(counts == 0):
                pick = np.argmax(far)
                centroids[c] = d[pick]
                far = np.minimum(far, ((d - d[pick]) ** 2).sum(axis=1))
        new_labels = assign(data, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids.astype(np.float32), labels


"""Lloyd's k-means — the IVF clustering substrate (§2.1).

The paper's IVF indexes come from FAISS ("non-optimized Lloyd
algorithm"); we implement Lloyd's from scratch: seeding at k random
rows of distinct index (duplicate rows may still seed equal centroids),
chunked nearest-centroid assignment, mean update, and empty clusters
reseeded farthest-first to distinct rows. Deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np


#: Rows assigned at a time, bounding the (rows, k) distance matrix.
ASSIGN_CHUNK = 65536


def assign(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid id for every row of ``data`` (squared L2)."""
    c64 = centroids.astype(np.float64)
    c_norms = (c64 * c64).sum(axis=1)
    out = np.empty(len(data), dtype=np.int64)
    for s in range(0, len(data), ASSIGN_CHUNK):
        x = data[s : s + ASSIGN_CHUNK].astype(np.float64)
        # ||x-c||² = ||x||² − 2x·c + ||c||²; ||x||² constant per row.
        d2 = c_norms[None, :] - 2.0 * (x @ c64.T)
        out[s : s + ASSIGN_CHUNK] = np.argmin(d2, axis=1)
    return out


def kmeans(
    data: np.ndarray, k: int, *, iters: int = 10, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Run Lloyd's algorithm; returns ``(centroids (k, D), assignment (N,))``."""
    n = len(data)
    if k > n:
        raise ValueError(f"k={k} > n={n}")
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(n, k, replace=False)].astype(np.float64)
    labels = assign(data, centroids)
    for _ in range(iters):
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


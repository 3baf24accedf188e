"""Lloyd's k-means substrate."""
import numpy as np
import pytest

from repro.ivf import kmeans as kmeans_mod
from repro.ivf.kmeans import assign, kmeans
from repro.vecdata import random_collection


def test_assign_matches_naive():
    data = random_collection(200, 8, seed=0)
    cents = random_collection(5, 8, seed=1)
    got = assign(data, cents)
    naive = np.argmin(
        ((data[:, None, :].astype(np.float64) - cents[None]) ** 2).sum(-1), axis=1
    )
    np.testing.assert_array_equal(got, naive)


def test_assign_chunked_consistent(monkeypatch):
    data = random_collection(500, 6, seed=2)
    cents = random_collection(7, 6, seed=3)
    whole = assign(data, cents)
    monkeypatch.setattr(kmeans_mod, "ASSIGN_CHUNK", 64)
    np.testing.assert_array_equal(assign(data, cents), whole)


@pytest.mark.parametrize("chunk", [None, 1, 7, 4096])
def test_assign_equals_unchunked_formula(monkeypatch, chunk):
    # 4097 rows: the default chunk leaves a ragged last chunk of one row.
    # Labels match one unchunked argmin of ‖c‖² − 2·(x·cᵀ) bit for bit.
    data = random_collection(4097, 12, seed=20)
    cents = random_collection(33, 12, seed=21)
    c64 = cents.astype(np.float64)
    d2 = (c64 * c64).sum(axis=1)[None, :] - 2.0 * (data.astype(np.float64) @ c64.T)
    expected = np.argmin(d2, axis=1)
    if chunk is not None:
        monkeypatch.setattr(kmeans_mod, "ASSIGN_CHUNK", chunk)
    np.testing.assert_array_equal(assign(data, cents), expected)


def test_kmeans_deterministic():
    data = random_collection(300, 4, seed=4)
    c1, l1 = kmeans(data, 6, seed=5)
    c2, l2 = kmeans(data, 6, seed=5)
    np.testing.assert_array_equal(c1, c2)
    np.testing.assert_array_equal(l1, l2)


def test_kmeans_shapes_and_coverage():
    data = random_collection(400, 5, seed=6)
    cents, labels = kmeans(data, 10, seed=7)
    assert cents.shape == (10, 5)
    assert labels.shape == (400,)
    assert labels.min() >= 0 and labels.max() < 10


def test_kmeans_separates_obvious_clusters():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((100, 3)).astype(np.float32)
    b = rng.standard_normal((100, 3)).astype(np.float32) + 50
    data = np.vstack([a, b])
    _, labels = kmeans(data, 2, seed=9)
    assert len(set(labels[:100].tolist())) == 1
    assert len(set(labels[100:].tolist())) == 1
    assert labels[0] != labels[150]


def test_kmeans_reduces_inertia():
    data = random_collection(500, 8, seed=10)
    c0 = data[np.random.default_rng(11).choice(500, 8, replace=False)]
    inertia0 = ((data - c0[assign(data, c0)]) ** 2).sum()
    cents, labels = kmeans(data, 8, seed=11)
    inertia = ((data - cents[labels]) ** 2).sum()
    assert inertia <= inertia0 * 1.01


def test_kmeans_k_too_large():
    data = random_collection(5, 3, seed=12)
    with pytest.raises(ValueError):
        kmeans(data, 10)


def test_kmeans_k_equals_n():
    data = random_collection(6, 3, seed=13)
    cents, labels = kmeans(data, 6, seed=14)
    # every point its own cluster (up to permutation)
    assert len(set(labels.tolist())) == 6


def test_kmeans_reseeds_empty_clusters_to_distinct_points():
    # 64 distinct points, each repeated 5 times: seeding can pick equal
    # rows, so clusters go empty together in one iteration. Each must
    # get a point of its own, not all the same farthest point.
    points = np.arange(64, dtype=np.float32)[:, None] * np.ones((1, 2), np.float32)
    x = np.repeat(points, 5, axis=0)
    for seed in range(20):
        cents, labels = kmeans(x, 48, seed=seed)
        assert len(np.unique(cents, axis=0)) == 48, seed
        assert np.bincount(labels, minlength=48).min() > 0, seed

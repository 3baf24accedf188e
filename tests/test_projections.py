"""Random-orthogonal and PCA transforms: the ADSampling/BSA substrate."""
import numpy as np
import pytest

from repro.core import projections
from repro.core.projections import PCAProjection, random_orthogonal
from repro.vecdata import random_collection


@pytest.mark.parametrize("dim", [8, 50, 200])
def test_random_orthogonal_is_orthogonal(dim):
    o = random_orthogonal(dim, seed=1)
    np.testing.assert_allclose(o @ o.T, np.eye(dim), atol=1e-4)
    np.testing.assert_allclose(o.T @ o, np.eye(dim), atol=1e-4)


def test_random_orthogonal_deterministic():
    np.testing.assert_array_equal(
        random_orthogonal(16, seed=9), random_orthogonal(16, seed=9)
    )
    assert not np.array_equal(random_orthogonal(16, seed=9), random_orthogonal(16, seed=10))


@pytest.mark.parametrize("dim", [8, 64])
def test_rotation_preserves_distances(dim):
    o = random_orthogonal(dim, seed=2)
    x = random_collection(50, dim, seed=3)
    y = x @ o.T
    dx = ((x[:25] - x[25:]) ** 2).sum(axis=1)
    dy = ((y[:25] - y[25:]) ** 2).sum(axis=1)
    np.testing.assert_allclose(dx, dy, rtol=1e-3)


def test_pca_components_orthonormal():
    x = random_collection(500, 20, seed=4)
    p = PCAProjection.fit(x)
    np.testing.assert_allclose(p.components @ p.components.T, np.eye(20), atol=1e-3)


def test_pca_preserves_pairwise_distances():
    x = random_collection(100, 16, seed=5)
    p = PCAProjection.fit(x)
    y = p.transform(x)
    dx = ((x[:50].astype(np.float64) - x[50:]) ** 2).sum(axis=1)
    dy = ((y[:50].astype(np.float64) - y[50:]) ** 2).sum(axis=1)
    np.testing.assert_allclose(dx, dy, rtol=1e-3)


def test_pca_concentrates_variance_in_early_dims():
    # Anisotropic data: PCA space variance must be descending and front-loaded.
    rng = np.random.default_rng(6)
    x = (rng.standard_normal((1000, 12)) * np.linspace(5, 0.1, 12)).astype(np.float32)
    p = PCAProjection.fit(x)
    y = p.transform(x)
    var = y.var(axis=0)
    assert var[0] > var[-1] * 10
    assert np.all(np.diff(var) <= 1e-6)


def test_pca_sampled_fit_close_to_full_fit(monkeypatch):
    # Fit on every row, the transformed variances descend; fit on a
    # 2000-row sample, they stay close to the full fit's.
    x = random_collection(5000, 8, seed=8)
    monkeypatch.setattr(projections, "PCA_SAMPLE", len(x))
    full = PCAProjection.fit(x).transform(x).astype(np.float64).var(axis=0, ddof=1)
    monkeypatch.setattr(projections, "PCA_SAMPLE", 2000)
    sub = PCAProjection.fit(x).transform(x).astype(np.float64).var(axis=0, ddof=1)
    assert np.all(np.diff(full) <= 1e-6)
    np.testing.assert_allclose(sub, full, rtol=0.2)


def test_pca_transform_single_vector_shape():
    x = random_collection(300, 9, seed=9)
    p = PCAProjection.fit(x)
    v = p.transform(x[0])
    assert v.shape == (9,)


def test_pca_thin_svd_equals_full_svd():
    # More rows than D: the thin SVD's Vt is already (D, D).
    x = random_collection(600, 24, seed=10)
    p = PCAProjection.fit(x)
    xc = x.astype(np.float64) - x.astype(np.float64).mean(axis=0)
    _, s, vt = np.linalg.svd(xc, full_matrices=True)
    np.testing.assert_allclose(p.components, vt.astype(np.float32), rtol=0, atol=1e-6)
    y = p.transform(x).astype(np.float64)
    np.testing.assert_allclose(y.var(axis=0, ddof=1), s**2 / (len(x) - 1), rtol=1e-5)


def test_pca_fewer_rows_than_dims_keeps_full_basis():
    x = random_collection(10, 30, seed=11)
    p = PCAProjection.fit(x)
    assert p.components.shape == (30, 30)
    np.testing.assert_allclose(p.components @ p.components.T, np.eye(30), atol=1e-5)
    # 10 rows span at most 10 axes: the data has no extent along the rest.
    np.testing.assert_allclose(p.transform(x)[:, 10:], 0.0, atol=1e-5)

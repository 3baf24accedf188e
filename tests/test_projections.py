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


def _signed(axes):
    """Rows flipped so that each row's largest-magnitude entry is positive."""
    peak = np.abs(axes).argmax(axis=1)
    return axes * np.sign(axes[np.arange(len(axes)), peak])[:, None]


def test_pca_basis_equals_full_svd():
    # More rows than D: the principal axes are the rows of the SVD's Vt,
    # whose signs LAPACK leaves arbitrary, so both go through one sign rule.
    x = random_collection(600, 24, seed=10)
    p = PCAProjection.fit(x)
    xc = x.astype(np.float64) - x.astype(np.float64).mean(axis=0)
    _, s, vt = np.linalg.svd(xc, full_matrices=True)
    np.testing.assert_allclose(
        _signed(p.components.astype(np.float64)), _signed(vt), rtol=1e-5, atol=1e-6
    )
    y = p.transform(x).astype(np.float64)
    np.testing.assert_allclose(y.var(axis=0, ddof=1), s**2 / (len(x) - 1), rtol=1e-5)


def test_pca_sign_rule():
    # Each axis's largest-magnitude coordinate is positive, whatever sign
    # the eigensolver returned it with.
    x = random_collection(300, 16, seed=12)
    c = PCAProjection.fit(x).components
    np.testing.assert_array_equal(_signed(c), c)


def test_pca_fit_repeats_exactly():
    # Sampled fit (more rows than PCA_SAMPLE): same seed, same basis, bit for bit.
    x = random_collection(projections.PCA_SAMPLE + 500, 16, seed=13)
    a, b = PCAProjection.fit(x, seed=3), PCAProjection.fit(x, seed=3)
    np.testing.assert_array_equal(a.components, b.components)
    np.testing.assert_array_equal(a.mean, b.mean)


def test_pca_large_common_offset():
    # A 1e4 offset on every coordinate: the fit centres before forming the
    # scatter matrix, so distances are kept and variances still descend.
    rng = np.random.default_rng(14)
    x = (rng.standard_normal((800, 12)) * np.linspace(5, 0.1, 12) + 1e4).astype(np.float32)
    p = PCAProjection.fit(x)
    y = p.transform(x).astype(np.float64)
    dx = ((x[:400].astype(np.float64) - x[400:]) ** 2).sum(axis=1)
    dy = ((y[:400] - y[400:]) ** 2).sum(axis=1)
    np.testing.assert_allclose(dy, dx, rtol=1e-3)
    var = y.var(axis=0)
    assert np.all(np.diff(var) <= 1e-6)
    assert var[0] > var[-1] * 100


def test_pca_rank_deficient_sample_keeps_full_basis():
    # Rank 5 in D = 24: 60 rows, more than D, of which 20 repeat earlier rows.
    rng = np.random.default_rng(15)
    base = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 24))
    x = np.vstack([base, base[:20]]).astype(np.float32)
    p = PCAProjection.fit(x)
    assert p.components.shape == (24, 24)
    np.testing.assert_allclose(p.components @ p.components.T, np.eye(24), atol=1e-5)
    y = p.transform(x)
    np.testing.assert_allclose(y[:, 5:], 0.0, atol=1e-4)
    assert np.all(np.abs(y[:, :5]).max(axis=0) > 0.1)


def test_pca_fewer_rows_than_dims_keeps_full_basis():
    x = random_collection(10, 30, seed=11)
    p = PCAProjection.fit(x)
    assert p.components.shape == (30, 30)
    np.testing.assert_allclose(p.components @ p.components.T, np.eye(30), atol=1e-5)
    # 10 rows span at most 10 axes: the data has no extent along the rest.
    np.testing.assert_allclose(p.transform(x)[:, 10:], 0.0, atol=1e-5)

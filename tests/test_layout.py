"""PDX layout construction: round-trips, raggedness, metadata."""
import warnings

import numpy as np
import pytest

from repro.core import layout
from repro.vecdata import random_collection


def _to_rows(coll):
    """Invert ``build_pdx``: the (N, D) rows and the ids, in block order."""
    back = np.hstack([b.data for b in coll.blocks]).T
    return back, np.concatenate([b.ids for b in coll.blocks])


@pytest.mark.parametrize("n,block", [(64, 64), (130, 64), (1000, 64), (37, 16), (512, 128)])
def test_build_roundtrip(n, block):
    data = random_collection(n, 24, seed=n)
    coll = layout.build_pdx(data, block_size=block)
    back, ids = _to_rows(coll)
    np.testing.assert_array_equal(back, data)
    np.testing.assert_array_equal(ids, np.arange(n))
    assert sum(b.n for b in coll.blocks) == n


def test_block_shapes_and_contiguity():
    data = random_collection(130, 10, seed=0)
    coll = layout.build_pdx(data, block_size=64)
    assert [b.n for b in coll.blocks] == [64, 64, 2]
    for b in coll.blocks:
        assert b.data.shape[0] == 10
        assert b.data.flags.c_contiguous and b.data.flags.owndata
        assert b.data.dtype == np.float32
    # D = 1 and n = 1: the transposed rows are already contiguous, and the
    # block must still not share the caller's buffer.
    for x in (np.arange(5, dtype=np.float32)[:, None], np.ones((1, 7), np.float32)):
        b = layout.build_pdx(x).blocks[0]
        assert b.data.flags.owndata and not np.shares_memory(b.data, x)


def test_block_sizes_given_in_turn():
    data = random_collection(100, 3, seed=0)
    coll = layout.build_pdx(data, ids=np.arange(100) + 7, block_size=[10, 30, 60])
    assert [b.n for b in coll.blocks] == [10, 30, 60]
    back, ids = _to_rows(coll)
    np.testing.assert_array_equal(back, data)
    np.testing.assert_array_equal(ids, np.arange(100) + 7)
    with pytest.raises(ValueError, match="sum to 99"):
        layout.build_pdx(data, block_size=[10, 89])


def test_dimension_major_within_block():
    data = random_collection(64, 5, seed=1)
    b = layout.build_pdx(data).blocks[0]
    # data[d, i] must equal vector i's dimension d
    np.testing.assert_allclose(b.data[3], data[:, 3], rtol=1e-6)


def test_custom_ids_preserved():
    data = random_collection(70, 4, seed=2)
    ids = np.arange(1000, 1070)
    coll = layout.build_pdx(data, ids=ids)
    _, back_ids = _to_rows(coll)
    np.testing.assert_array_equal(back_ids, ids)


def test_bad_ids_rejected():
    data = random_collection(10, 4, seed=3)
    with pytest.raises(ValueError):
        layout.build_pdx(data, ids=np.arange(9))


def test_block_means_metadata():
    data = random_collection(64, 8, seed=4)
    b = layout.build_pdx(data).blocks[0]
    np.testing.assert_allclose(b.means, data.mean(axis=0), rtol=1e-4, atol=1e-5)


def test_collection_dim_means():
    data = random_collection(200, 8, seed=5)
    coll = layout.build_pdx(data)
    want = data.mean(axis=0, dtype=np.float64).astype(np.float32)
    np.testing.assert_array_equal(coll.dim_means, want)


def test_block_norms_are_squared_norms():
    data = random_collection(130, 24, seed=9)
    coll = layout.build_pdx(data, block_size=64)
    norms = np.concatenate([b.norms for b in coll.blocks])
    assert norms.dtype == np.float64
    np.testing.assert_allclose(norms, (data.astype(np.float64) ** 2).sum(axis=1), rtol=1e-12)


@pytest.mark.parametrize("block", [64, [0]])
def test_empty_collection_builds_without_warnings(block):
    """An empty IVF bucket: zero dimension means and no NaN warning; an
    explicit empty block has empty norms."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coll = layout.build_pdx(np.empty((0, 6), dtype=np.float32), block_size=block)
    assert sum(b.n for b in coll.blocks) == 0 and coll.dim == 6
    np.testing.assert_array_equal(coll.dim_means, np.zeros(6, dtype=np.float32))
    for b in coll.blocks:
        assert b.data.shape == (6, 0) and b.norms.shape == (0,)


@pytest.mark.parametrize("block", [16, 64, 256])
def test_stack_unstack_roundtrip(block):
    data = random_collection(block * 4, 12, seed=6)
    st = layout.stack_pdx(data, block)
    assert st.shape == (4, 12, block)
    assert st.flags.c_contiguous
    np.testing.assert_array_equal(st, data.reshape(4, block, 12).transpose(0, 2, 1))


def test_stack_rejects_ragged():
    data = random_collection(100, 12, seed=7)
    with pytest.raises(ValueError):
        layout.stack_pdx(data, 64)


def test_to_dsm():
    data = random_collection(50, 6, seed=8)
    dm = layout.to_dsm(data)
    assert dm.shape == (6, 50) and dm.flags.c_contiguous
    np.testing.assert_array_equal(dm.T, data)

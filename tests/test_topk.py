"""TopK accumulator semantics (the KNN candidate heap)."""
import numpy as np
import pytest

from repro.core.topk import TopK, smallest


def test_threshold_inf_until_k_seen():
    h = TopK(3)
    assert h.threshold == float("inf")
    h.update(np.array([1, 2]), np.array([0.5, 0.2]))
    assert h.threshold == float("inf")
    h.update(np.array([3]), np.array([0.9]))
    assert h.threshold == 0.9


def test_threshold_tightens():
    h = TopK(2)
    h.update(np.array([1, 2]), np.array([5.0, 9.0]))
    assert h.threshold == 9.0
    h.update(np.array([3]), np.array([1.0]))
    assert h.threshold == 5.0


def test_result_sorted_and_bounded():
    h = TopK(4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        h.update(np.arange(20), rng.random(20) * 100)
    ids, dists = h.result()
    assert len(ids) == 4
    assert np.all(np.diff(dists) >= 0)


@pytest.mark.parametrize("k", [1, 5, 17])
def test_matches_argsort_reference(k):
    rng = np.random.default_rng(k)
    dists = rng.random(200)
    ids = rng.permutation(200).astype(np.int64)
    h = TopK(k)
    for s in range(0, 200, 33):  # batched updates
        h.update(ids[s : s + 33], dists[s : s + 33])
    got_ids, got_d = h.result()
    order = np.lexsort((ids, dists))[:k]
    np.testing.assert_array_equal(got_ids, ids[order])
    np.testing.assert_allclose(got_d, dists[order])


def test_tie_broken_by_id():
    h = TopK(2)
    h.update(np.array([9, 3, 5]), np.array([1.0, 1.0, 1.0]))
    ids, _ = h.result()
    np.testing.assert_array_equal(ids, [3, 5])


def test_empty_update_noop():
    h = TopK(2)
    h.update(np.empty(0, dtype=np.int64), np.empty(0))
    assert h.threshold == float("inf")
    assert len(h.result()[0]) == 0


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        TopK(0)


def test_smallest_k_zero_is_empty():
    ids, dists = smallest(np.arange(5), np.ones(5), 0)
    assert len(ids) == len(dists) == 0


def test_fewer_than_k_results():
    h = TopK(10)
    h.update(np.array([1, 2]), np.array([3.0, 1.0]))
    ids, dists = h.result()
    np.testing.assert_array_equal(ids, [2, 1])
    np.testing.assert_allclose(dists, [1.0, 3.0])


def test_smallest_rejects_negative_k():
    dists = np.random.default_rng(0).random(100)
    with pytest.raises(ValueError):
        smallest(np.arange(100), dists, -1)


def test_update_into_empty_heap_selects_from_the_batch():
    """A first update selects like ``smallest`` and keeps its own copy:
    later writes to the caller's arrays do not reach the heap."""
    rng = np.random.default_rng(3)
    ids, dists = rng.permutation(50).astype(np.int64), rng.random(50)
    dists[7] = dists[3]  # a tie, decided by id
    h = TopK(5)
    h.update(ids, dists)
    want_ids, want_d = smallest(ids, dists, 5)
    ids[:], dists[:] = -1, -1.0
    got_ids, got_d = h.result()
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_d, want_d)
    assert h.threshold == want_d[-1]

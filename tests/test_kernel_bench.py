"""Table 4/5 harness plumbing (tiny sweep so tests stay fast)."""
import numpy as np
import pytest

from repro.analysis.kernel_bench import (
    BLOCK_SIZES,
    aggregate_table4,
    best_time,
    kernel_speedups,
    table5_blocksize,
)


def test_best_time_positive():
    assert best_time(lambda: sum(range(100)), repeat=2) > 0


@pytest.mark.parametrize("metric", ["l2", "l1", "ip"])
def test_kernel_speedups_rows(metric):
    per = kernel_speedups(metric, dims=[8, 16], sizes=[1024], repeat=1)
    assert len(per) == 2
    assert (per["speedup"] > 0).all()
    assert set(per["metric"]) == {metric}


def test_skips_oversized_combos():
    per = kernel_speedups("l2", dims=[8, 4096], sizes=[1 << 20], repeat=1)
    assert 4096 not in set(per["dim"])  # 2^32 elements combo skipped


def test_aggregate_table4_buckets():
    per = kernel_speedups("l2", dims=[8, 16, 64], sizes=[1024], repeat=1)
    agg = aggregate_table4(per)
    assert list(agg.columns) == ["D=8", "D=16,32", "D>32", "All"]
    assert np.isfinite(agg.loc["l2"]).all()


def test_table5_runs():
    t5 = table5_blocksize(dims=[16], sizes=[1024], repeat=1)
    assert t5["block_size"].tolist() == list(BLOCK_SIZES)
    assert (t5["speedup"] > 0).all()

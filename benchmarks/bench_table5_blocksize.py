"""Table 5 benchmark — L2 PDX kernel at each block size (vs one N-ary
reference entry). ``jobs/table5_blocksize.py`` prints the speedup table."""
import numpy as np
import pytest

from repro.analysis.kernel_bench import BLOCK_SIZES
from repro.core.kernels import l2_nary, l2_pdx
from repro.core.layout import stack_pdx
from repro.vecdata import random_collection

N, DIM = 16384, 128


@pytest.fixture(scope="module")
def data():
    d = random_collection(N, DIM, seed=3)
    q = np.random.default_rng(2).standard_normal(DIM).astype(np.float32)
    return d, q


def test_nary_reference(benchmark, data):
    d, q = data
    benchmark(l2_nary, d, q)


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_pdx_blocksize(benchmark, data, block):
    d, q = data
    stacked = stack_pdx(d, block)
    benchmark(l2_pdx, stacked, q)

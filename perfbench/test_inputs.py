"""The benchmark's inputs depend on the seed only, not on the process.

Run from the repository root: ``python3 -m pytest perfbench/test_inputs.py``.
"""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def _digest(workload: str, seed: int, hashseed: str) -> str:
    code = (
        "import hashlib, sys; sys.path[:0] = sys.argv[1:3]; import inputs; "
        f"arrays = inputs.make_inputs(inputs.WORKLOADS[{workload!r}], {seed}); "
        "print(hashlib.sha256(b''.join(a.tobytes() for a in arrays)).hexdigest())"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), HERE],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return out.stdout.strip()


@pytest.mark.parametrize("workload", ["ivf-glove50", "exact-gist960"])
def test_inputs_identical_across_hash_seeds(workload):
    a = _digest(workload, 3, "0")
    assert len(a) == 64
    assert a == _digest(workload, 3, "12345")
    assert a != _digest(workload, 4, "0")

"""The benchmark suites under ``benchmarks/`` run once, untimed.

``pytest tests/`` does not collect ``benchmarks/``, so without this a
renamed or removed keyword would break a benchmark and no test would
fail. The suites run in a subprocess, with their own Spark session of
a 2 GB driver, because they need their own ``conftest.py`` and fixtures.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_suites_run():
    env = dict(os.environ, SPARK_DRIVER_MEM="2g", PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYSPARK_SUBMIT_ARGS", None)  # rebuilt by the root conftest from SPARK_DRIVER_MEM
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cavity_grover import _blas

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Imports the package in a fresh interpreter, runs the package's own dense
# exponential, and reports the environment it leaves and the threads the
# process holds. scipy stays unimported: it bundles a second OpenBLAS, which
# would load after the pin is lifted and start threads of its own.
PROBE = """
import json, os
import cavity_grover, numpy
cavity_grover.dynamics.expm(numpy.ones((36, 36)) * 0.01j)
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"var": os.environ.get("OPENBLAS_NUM_THREADS"), "tasks": tasks}))
"""


def _probe(**env_vars: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _blas.THREAD_VARS}
    env.update(env_vars, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_blas_loads_single_threaded_and_environment_is_restored():
    seen = _probe()
    assert seen["var"] is None
    if seen["tasks"] is None:
        pytest.skip("thread count needs /proc/self/task")
    assert seen["tasks"] == 1


@pytest.mark.parametrize("name", _blas.THREAD_VARS)
def test_explicit_thread_count_is_kept(name):
    seen = _probe(**{name: "2"})
    assert seen["var"] == ("2" if name == "OPENBLAS_NUM_THREADS" else None)
    # OpenBLAS starts worker threads only where there is a second CPU.
    if seen["tasks"] is not None and len(os.sched_getaffinity(0)) >= 2:
        assert seen["tasks"] > 1

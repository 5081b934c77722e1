"""Load numpy's OpenBLAS single-threaded unless the environment chooses a count.

The program's dense matrices are 18 * (photon_cutoff + 1) wide, 36 at the
default cutoff. At that size OpenBLAS worker threads buy nothing and cost a
hand-off on every call; when the other vCPU is busy the hand-off waits for
it. On 2 vCPUs with a second process running, the 48 ``expm`` calls of an
``oracle-sweep`` pass took 16x longer with the default two threads than
with one, and how much longer depended on the other process's load.

OpenBLAS reads its thread count once, when the library is loaded, so this
module must run before anything imports numpy. It sets
``OPENBLAS_NUM_THREADS=1`` only while numpy loads and removes it afterwards,
so child processes see the environment they were given. An explicit
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``
wins, and a process that loaded numpy before this package keeps its count.
The package needs numpy alone at run time; scipy, which bundles its own
OpenBLAS, is used only by the tests, as a reference.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if not any(os.environ.get(name) for name in THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

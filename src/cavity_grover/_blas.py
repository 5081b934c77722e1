"""Load numpy's OpenBLAS single-threaded unless the environment chooses a count.

No propagated block is wider than 4 (``evolve`` keeps to the reachable
sector), and an ``oracle-sweep`` benchmark pass makes 8 ``expm`` calls on
(3, <=4, <=4) stacks. At that size OpenBLAS threads buy nothing and cost a
hand-off on every call, which waits when the other vCPU is busy. With
36-wide matrices and a second process on 2 vCPUs, the 48 ``expm`` calls of
a pass once took 16x longer with two threads than with one, varying with load.

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

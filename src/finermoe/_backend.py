"""The active matmul kernel module, read by ``numerics.matmul``.

There is one backend, the NumPy kernels of ``_kernels_py``.
"""

from finermoe import _kernels_py

active = _kernels_py


def backend_name() -> str:
    return active.BACKEND

"""Pure-NumPy matrix-multiply kernels, the library's one kernel backend.

Each entry writes ``a @ b`` into ``out``. Accumulation runs over the
inner index in ascending order, one rounded multiply and one rounded add
per term, so every output element has a fixed reduction order and the
result depends on nothing but the inputs. The loops are sequential.
"""

import numpy as np

BACKEND = "python"


def matmul_f32(a, b, out):
    acc = np.zeros(out.shape, dtype=np.float32)
    for p in range(a.shape[1]):
        acc += a[:, p, None] * b[None, p, :]
    np.copyto(out, acc)


def matmul_f64(a, b, out):
    acc = np.zeros(out.shape, dtype=np.float64)
    for p in range(a.shape[1]):
        acc += a[:, p, None] * b[None, p, :]
    np.copyto(out, acc)

"""Pure-NumPy matrix-multiply kernels, the library's one kernel backend.

Each entry writes ``a @ b`` into ``out``. Every output element is the sum
over the inner index in ascending order, starting from +0.0, with one
rounded multiply and one rounded add per term, so every output element
has a fixed reduction order and the result depends on nothing but the
inputs. The loops are sequential.

Two schedules give the same bits:

- Small right operands (``K * m <= _TILE`` and ``m >= 2``) take ``r`` rows
  of ``a`` at a time: one ufunc call writes the K x r x m block of
  products, and ``np.add.reduce`` over axis 0 sums it. NumPy sums
  pairwise only along the fast memory axis; axis 0 of a block whose last
  axis has length >= 2 is summed in sequence. That is two ufunc calls per
  ``r`` rows, where the rank-1 loop below makes two per inner index, which
  is what dominates for expert batches of a few tokens.
- Everything else runs the rank-1 update loop over the inner index.
"""

import numpy as np

BACKEND = "python"

# Elements in one block of products: 1 MB at f64, so it stays in cache.
_TILE = 1 << 17


def _matmul(a, b, out):
    n, K = a.shape
    m = b.shape[1]
    if m >= 2 and 0 < K * m <= _TILE:
        r = _TILE // (K * m)
        terms = np.empty((K, min(r, n), m), dtype=out.dtype)
        for i in range(0, n, r):
            block = terms[:, : min(r, n - i)]
            np.multiply(a[i : i + r].T[:, :, None], b[:, None, :], out=block)
            np.add.reduce(block, axis=0, out=out[i : i + r], initial=0.0)
        return
    out.fill(0)
    for p in range(K):
        out += a[:, p, None] * b[None, p, :]


matmul_f32 = _matmul
matmul_f64 = _matmul

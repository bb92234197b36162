"""Pure-NumPy matrix-multiply kernels: the fallback when the C kernels of
``_kernels_c`` cannot be built, and their reference in the tests.

Each entry writes ``a @ b`` into ``out``. Every output element is the sum
over the inner index in ascending order, starting from +0.0, with one
rounded multiply and one rounded add per term, so every output element
has a fixed reduction order and the result depends on nothing but the
inputs. The loops are sequential.

Two schedules give the same bits:

- The blocked schedule (cache blocking over the inner index, after Goto
  and van de Geijn, ACM TOMS 2008) takes ``kc = min(K, _TILE // m)``
  inner indices and ``r`` rows of ``a`` at a time, so a block holds at
  most ``_TILE`` products. One ufunc call writes the kc x r x m block of
  products and ``np.add.reduce`` over axis 0 sums it from +0.0. NumPy sums
  pairwise only along the fast memory axis; axis 0 of a block whose last
  axis has length >= 2 is summed in sequence. For every chunk after the
  first, the running output S is first added into the chunk's first term
  t, so the reduce computes +0.0 + (S + t) + ... That is the rank-1
  loop's S + t with the operands swapped, which rounds the same. A sum
  that starts at +0.0 never rounds to -0.0, so neither S nor S + t is
  -0.0, and adding S + t to +0.0 changes no bit. When ``K * m <= _TILE``
  there is one chunk. That is two or three ufunc calls per chunk of ``r``
  rows, where the rank-1 loop makes two per inner index, which is what
  dominates for expert batches of a few tokens and for one-token products
  with a long inner index.
- The rank-1 update loop over the inner index runs for one column (a
  1 x 1 block would be summed pairwise) and for rows wider than
  ``_TILE // 16`` columns, where a chunk would be under 16 inner indices
  and the loop measured faster (the reference-dims shared expert's
  8 x 1536 @ 1536 x 8960 products).
"""

import numpy as np

BACKEND = "python"

# Elements in one block of products: 1 MB at f64, so it stays in cache.
_TILE = 1 << 17


def _matmul(a, b, out):
    n, K = a.shape
    m = b.shape[1]
    kc = _TILE // m
    if m < 2 or kc < 16:
        out.fill(0)
        for p in range(K):
            out += a[:, p, None] * b[None, p, :]
        return
    kc = min(K, kc)
    r = _TILE // (kc * m)
    terms = np.empty((kc, min(r, n), m), dtype=out.dtype)
    for i in range(0, n, r):
        o = out[i : i + r]
        for p in range(0, K, kc):
            block = terms[: min(kc, K - p), : len(o)]
            np.multiply(a[i : i + r, p : p + kc].T[:, :, None], b[p : p + kc, None, :], out=block)
            if p:
                np.add(block[0], o, out=block[0])
            np.add.reduce(block, axis=0, out=o, initial=0.0)


matmul_f32 = _matmul
matmul_f64 = _matmul

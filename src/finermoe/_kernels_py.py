"""Pure-NumPy matrix-multiply kernels: the fallback when the C kernels of
``_kernels_c`` cannot be built, and their reference in the tests.

``matmul_f32(a, b, out, offsets=None)`` and ``matmul_f64`` write into
``out`` one of three products:

- plain: ``a @ b``;
- grouped rows, for a stack ``b`` of N matrices: rows
  ``[offsets[k], offsets[k + 1])`` of ``out`` are those rows of ``a``
  times ``b[k]``;
- grouped inner index, for a stack ``out`` of N matrices: ``out[k]`` is
  ``a[:, offsets[k]:offsets[k + 1]] @ b[offsets[k]:offsets[k + 1]]``,
  zero for an empty segment.

``a``, ``b`` and each matrix of a stack may be C-contiguous or the
transpose of a C-contiguous array (a no-copy ``.T`` view); ``check``
refuses anything else before a kernel reads or writes, for both modules.
Every output element is the sum over the inner index in ascending order,
starting from +0.0, with one rounded multiply and one rounded add per
term, so every output element has a fixed reduction order and the result
depends on nothing but the inputs. The loops are sequential; grouped
products run one segment at a time, transposed operands are copied to
row-major first.

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
  1 x 1 block would be summed pairwise), for rows wider than
  ``_TILE // 16`` columns, where a chunk would be under 16 inner indices
  and the loop measured faster (the reference-dims shared expert's
  8 x 1536 @ 1536 x 8960 products), and for an empty inner index.
"""

import numpy as np

BACKEND = "python"

# Elements in one block of products: 1 MB at f64, so it stays in cache.
_TILE = 1 << 17


def _contiguous_or_transposed(x) -> bool:
    flags = x.flags
    return flags.c_contiguous or flags.f_contiguous


def _mismatch(a, b, out) -> ValueError:
    return ValueError(f"kernel shapes {a.shape} @ {b.shape} -> {out.shape} do not match")


def check(dtype, a, b, out, offsets=None) -> None:
    """Raise ValueError unless an entry can take these operands: one dtype,
    ``out`` C-contiguous and writeable, shapes that match, and every matrix
    operand C-contiguous or the transpose of a C-contiguous array. A
    grouped product (a stack ``b`` or ``out`` of N matrices) needs an
    int64 ``offsets`` of N+1 entries rising from 0 to the length of the
    axis it splits; a plain one needs none."""
    if not a.dtype == b.dtype == out.dtype == dtype:
        raise ValueError(f"kernel operands must all be {dtype}, got {a.dtype}, {b.dtype}, {out.dtype}")
    flags = out.flags
    if not (flags.c_contiguous and flags.writeable):
        raise ValueError("kernel out must be a writeable C-contiguous array")
    # The product of each segment: a (or its rows or columns) @ y -> o.
    if offsets is None:
        stack, y, o = None, b, out
    elif b.ndim == 3 and len(b):
        stack, y, o = b, b[0], out
    elif out.ndim == 3 and len(out):
        stack, y, o = out, b, out[0]
    else:
        raise _mismatch(a, b, out)
    if not (a.ndim == y.ndim == o.ndim == 2 and a.shape[1] == y.shape[0] and o.shape == (a.shape[0], y.shape[1])):
        raise _mismatch(a, b, out)
    if not (_contiguous_or_transposed(a) and _contiguous_or_transposed(y)):
        raise ValueError("kernel operands must be C-contiguous arrays or transposes of them")
    if stack is None:
        return
    if stack is b and b.strides[0] % b.itemsize:
        raise ValueError("kernel stack stride must be a whole number of elements")
    n = len(stack)
    if not (
        isinstance(offsets, np.ndarray) and offsets.dtype == np.int64 and offsets.shape == (n + 1,)
        and offsets.flags.c_contiguous
    ):
        raise ValueError(f"kernel offsets must be a contiguous int64 array of {n + 1} entries")
    split = a.shape[0] if stack is b else a.shape[1]
    if offsets[0] != 0 or offsets[-1] != split or (offsets[1:] < offsets[:-1]).any():
        raise ValueError(f"kernel offsets must rise from 0 to {split}")


def _matmul(a, b, out):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    n, K = a.shape
    m = b.shape[1]
    kc = _TILE // m
    if m < 2 or kc < 16 or K == 0:
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


def _entry(dtype):
    def matmul(a, b, out, offsets=None):
        check(dtype, a, b, out, offsets)
        if offsets is None:
            _matmul(a, b, out)
            return
        off = offsets.tolist()
        for k, (s, e) in enumerate(zip(off, off[1:])):
            if b.ndim == 2:
                _matmul(a[:, s:e], b[s:e], out[k])
            elif s < e:
                _matmul(a[s:e], b[k], out[s:e])

    return matmul


matmul_f32 = _entry(np.dtype(np.float32))
matmul_f64 = _entry(np.dtype(np.float64))

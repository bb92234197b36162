"""Pure-NumPy kernels: the fallback when the C kernels of ``_kernels_c``
cannot be built, and their reference in the tests. There are three kinds:
matrix products, SplitMix64 uniform draws and the two passes of
train-demo's clipped SGD step.

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
transpose of a C-contiguous array (a no-copy ``.T`` view), and a stack
may be strided by whole elements, as ``MoEModel.over`` lays one out.
``out`` must not overlap ``a`` or ``b``. ``check`` refuses anything else
before a kernel reads or writes, for both modules.
Every output element is the sum over the inner index in ascending order,
starting from +0.0, with one rounded multiply and one rounded add per
term, so every output element has a fixed reduction order and the result
depends on nothing but the inputs. The one schedule is the rank-1 update
loop: ``out`` starts at +0.0 and takes ``a[:, p] * b[p, :]`` for p = 0, 1,
... in order. Grouped products run one segment at a time, and a
transposed ``b`` is copied to row-major first. The module is the
reference the C kernels are tested against, and their fallback: at
infer-fine's dims a forward takes about 120 ms, against about 3 ms with
the C kernels.

``uniform_f64(seed, counter, out)`` writes the uniform doubles in [0, 1)
of draws counter + 1 .. counter + len(out) of seed's SplitMix64 stream
(Steele, Lea & Flood, OOPSLA 2014) into a float64 ``out``: draw i is
``(mix(seed + i * GOLDEN) >> 11) * 2**-53``, modulo 2**64. Integer mixing
is exact, so the C entry gives the same bits, about 7x faster
(``BENCH_c_draws.json``).

``sum_squares_f32(flat, sizes)`` and ``sub_scaled_f32(params, grads,
scale)`` are the two passes of train-demo's clipped SGD step, over a
model's or its gradients' one flat float32 array. The first returns
``sq``, which starts at 0.0 and takes
``sq += float((a.astype(np.float64) ** 2).sum())`` per tensor ``a``, the
consecutive runs of ``sizes`` values that make up ``flat``, in order;
NumPy's reduction adds its pairwise sum of the exact squares to the
identity 0.0 (Higham, SIAM J. Sci. Comput. 14(4), 1993), an order the C
entry rebuilds. The second does ``params -= scale * grads``, which NumPy
computes in float32 with ``float32(scale)`` for a Python float ``scale``,
and in float64, rounded to float32 once, for an ``np.float64``.
``check_sub_scaled`` tells the C entry which, by
``np.result_type(scale, np.float32)``. So both entries give the same bits
in either module.
"""

import numpy as np

BACKEND = "python"


def threads() -> int:
    """The threads a product runs on: this module's run on the caller's."""
    return 1


def _contiguous_or_transposed(x) -> bool:
    flags = x.flags
    return flags.c_contiguous or flags.f_contiguous


def _mismatch(a, b, out) -> ValueError:
    return ValueError(f"kernel shapes {a.shape} @ {b.shape} -> {out.shape} do not match")


def check(dtype, a, b, out, offsets=None) -> None:
    """Raise ValueError unless an entry can take these operands: one dtype,
    shapes that match, every matrix operand C-contiguous or the transpose
    of a C-contiguous array, and a writeable ``out`` apart from them, a
    C-contiguous matrix or a stack of disjoint ones. A grouped product (a
    stack ``b`` or ``out`` of N matrices, strided by whole elements) needs
    an int64 ``offsets`` of N+1 entries rising from 0 to the length of the
    axis it splits; a plain one needs none."""
    if not a.dtype == b.dtype == out.dtype == dtype:
        raise ValueError(f"kernel operands must all be {dtype}, got {a.dtype}, {b.dtype}, {out.dtype}")
    # The product of each segment: a (or its rows or columns) @ y -> o.
    if offsets is None:
        stack, y, o = None, b, out
    elif b.ndim == 3 and len(b):
        stack, y, o = b, b[0], out
    elif out.ndim == 3 and len(out):
        stack, y, o = out, b, out[0]
    else:
        raise _mismatch(a, b, out)
    if not (out.flags.writeable and o.flags.c_contiguous):
        raise ValueError("kernel out must be a writeable C-contiguous array or a stack of them")
    if np.may_share_memory(out, a) or np.may_share_memory(out, b):
        raise ValueError("kernel out must not share memory with an operand")
    if not (a.ndim == y.ndim == o.ndim == 2 and a.shape[1] == y.shape[0] and o.shape == (a.shape[0], y.shape[1])):
        raise _mismatch(a, b, out)
    if not (_contiguous_or_transposed(a) and _contiguous_or_transposed(y)):
        raise ValueError("kernel operands must be C-contiguous arrays or transposes of them")
    if stack is None:
        return
    if stack.strides[0] % stack.itemsize:
        raise ValueError("kernel stack stride must be a whole number of elements")
    if stack is out and len(out) > 1 and abs(out.strides[0]) < o.nbytes:
        raise ValueError("kernel out stack's matrices must not overlap")
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
    b = np.ascontiguousarray(b)
    out.fill(0)
    for p in range(a.shape[1]):
        out += a[:, p, None] * b[None, p, :]


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


GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array ``z``."""
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def splitmix64(seed, counter, n: int) -> np.ndarray:
    """Draws counter + 1 .. counter + n of seed's stream, as uint64."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z += np.uint64(counter)
    z *= GOLDEN
    z += np.uint64(seed)
    return mix(z)


def check_draws(out) -> None:
    """Raise ValueError unless ``out`` is a writeable C-contiguous 1-D float64 array."""
    flags = out.flags
    if not (out.dtype == np.float64 and out.ndim == 1 and flags.c_contiguous and flags.writeable):
        raise ValueError("uniform draws need a writeable C-contiguous 1-D float64 out")


def uniform_f64(seed, counter, out) -> None:
    check_draws(out)
    z = splitmix64(seed, counter, len(out))
    z >>= np.uint64(11)
    np.multiply(z, 2.0**-53, out=out)  # below 2**53, so converted exactly


def _contiguous_f32(a) -> bool:
    return isinstance(a, np.ndarray) and a.dtype == np.float32 and a.flags.c_contiguous


def check_sum_squares(flat, sizes) -> np.ndarray:
    """Raise ValueError unless ``flat`` is a C-contiguous 1-D float32 array
    and ``sizes`` a 1-D sequence of integers of at least 0 that add up to
    its length. Return ``sizes`` as a contiguous int64 array."""
    if not (_contiguous_f32(flat) and flat.ndim == 1):
        raise ValueError("a sum of squares needs a C-contiguous 1-D float32 array")
    counts = np.asarray(sizes)
    integral = counts.ndim == 1 and (counts.dtype.kind in "iu" or counts.size == 0)
    if not (integral and min(counts.tolist(), default=0) >= 0 and sum(counts.tolist()) == flat.size):
        raise ValueError(f"a sum of squares needs tensor sizes of at least 0 adding up to {flat.size}")
    return counts.astype(np.int64)


def sum_squares_f32(flat, sizes) -> float:
    sizes = check_sum_squares(flat, sizes)
    sq = 0.0
    for a in np.split(flat, np.cumsum(sizes)[:-1]):
        sq += float((a.astype(np.float64) ** 2).sum())
    return sq


def check_sub_scaled(params, grads, scale) -> bool:
    """Raise ValueError unless ``sub_scaled_f32`` can take these operands:
    C-contiguous float32 arrays of one shape that do not overlap, the
    params writeable, and a Python or NumPy float ``scale`` that NumPy
    multiplies a float32 array by in float32 or float64. Return whether
    that is float64."""
    wide = np.result_type(scale, np.float32) if isinstance(scale, (float, np.floating)) else None
    if wide not in (np.float32, np.float64):
        raise ValueError(f"an SGD update needs a float32 or float64 scale, got {type(scale).__name__}")
    if not (_contiguous_f32(params) and _contiguous_f32(grads) and params.flags.writeable):
        raise ValueError("an SGD update needs C-contiguous float32 arrays, its params writeable")
    if params.shape != grads.shape or np.may_share_memory(params, grads):
        raise ValueError(
            f"an SGD update needs grads of its params' shape {params.shape} apart from them, got {grads.shape}"
        )
    return wide == np.float64


def sub_scaled_f32(params, grads, scale) -> None:
    check_sub_scaled(params, grads, scale)
    params -= scale * grads

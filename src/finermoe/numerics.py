"""Dense numeric core: the matmul operand, matmul, SiLU, softmax, and a
seeded RNG.

Design constraints that everything downstream leans on:

* float32 storage by default; float64 matrices are supported end-to-end
  for verification runs. A product runs in the one dtype of its operands
  and refuses a mixed pair, so a call runs in its model's dtype.
* Every matmul accumulates each dot product in ascending inner-index
  order, one rounded multiply and one rounded add per term, so results
  are bit-identical from run to run. It runs in the active kernel module
  of ``_backend``: the C kernels of ``_kernels_c``, or the NumPy kernels
  of ``_kernels_py`` when those could not be built. Both give the same
  bits. Transposed (``Matrix.T``) and grouped (``Grouped``) operands go
  through the same ``matmul`` entry, without copies.
* The RNG is SplitMix64, a counter-based 64-bit generator with published
  test vectors; identical seeds give identical integer streams on every
  platform. The integer stream and its uniform doubles run in the active
  kernel module too: the C entry of ``_kernels.c``, or the NumPy entry,
  which gives the same bits. Box-Muller's ``log`` and ``cos`` are NumPy's
  under either, so normal draws also depend on how NumPy rounds them,
  which can change with the CPU features NumPy dispatches on.
* ``sum_squares`` and ``sub_scaled``, the two passes of train-demo's
  clipped SGD step, run in the active kernel module as well, with the bits
  of NumPy's per-tensor loops: its pairwise summation order and its
  promotion of the step's scale.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from finermoe import _backend
from finermoe._kernels_py import GOLDEN, mix

_DTYPES = (np.float32, np.float64)
_MASK64 = (1 << 64) - 1


def get_num_threads() -> int:
    """Threads the matmul kernels use: always 1, they are single-threaded."""
    return 1


class Matrix:
    """A matmul operand: a C-contiguous 2-D f32/f64 NumPy array ``a``, or,
    through ``.T``, its transposed view.

    It holds nothing beyond what a product reads: the parameter registry
    and all elementwise work use plain ndarrays. All matrix products go
    through :func:`matmul` to keep reductions reproducible.
    """

    __slots__ = ("a",)

    @classmethod
    def wrap(cls, arr: np.ndarray) -> "Matrix":
        """Adopt an existing 2-D C-contiguous f32/f64 array without copying."""
        m = cls.__new__(cls)
        if arr.ndim != 2 or not arr.flags.c_contiguous or arr.dtype not in _DTYPES:
            raise ValueError("wrap() needs a C-contiguous 2-D f32/f64 array")
        m.a = arr
        return m

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def dtype(self):
        return self.a.dtype

    @property
    def shape(self):
        return self.a.shape

    def astype(self, dtype) -> "Matrix":
        return Matrix.wrap(np.ascontiguousarray(self.a, dtype=dtype))

    @property
    def T(self) -> "Matrix":
        """The transpose as a no-copy view of ``a``, for use as a matmul operand."""
        m = Matrix.__new__(Matrix)
        m.a = self.a.T
        return m

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.a.dtype})"


class Grouped:
    """An operand of a grouped product, one product per expert (MegaBlocks,
    Gale et al., arXiv:2211.15841), split by a dispatch plan's N+1
    ``offsets``; expert k owns pairs [offsets[k], offsets[k+1]).

    * A 3-D ``a`` of N x rows x cols holds one matrix per expert and is a
      right operand: ``matmul(x, g)`` multiplies rows [offsets[k],
      offsets[k+1]) of x by ``a[k]``. ``g.T`` transposes each matrix
      without copying.
    * A 2-D ``a`` of rows x n_pairs has its columns split and is a left
      operand: ``matmul(g, y)`` is the Grouped stack of
      ``a[:, offsets[k]:offsets[k+1]] @ y[offsets[k]:offsets[k+1]]``,
      zero for an expert with no pair.

    ``rows`` and ``cols`` are those of the matrix each product reads, so
    2 * rows * cols * cols-of-the-other counts a grouped product's FLOPs.
    """

    __slots__ = ("a", "offsets")

    def __init__(self, a: np.ndarray, offsets: np.ndarray):
        self.a = a
        self.offsets = offsets

    @property
    def rows(self) -> int:
        return self.a.shape[-2]

    @property
    def cols(self) -> int:
        return self.a.shape[-1]

    @property
    def shape(self):
        return self.a.shape[-2:]

    @property
    def dtype(self):
        return self.a.dtype

    @property
    def T(self) -> "Grouped":
        return Grouped(self.a.transpose(0, 2, 1), self.offsets)


class _FlopCounter:
    def __init__(self):
        self.flops = 0


_flop_counter: _FlopCounter | None = None


@contextmanager
def count_flops():
    """Tally matmul FLOPs (2 per multiply-add) executed inside the block."""
    global _flop_counter
    prev = _flop_counter
    _flop_counter = counter = _FlopCounter()
    try:
        yield counter
    finally:
        _flop_counter = prev


def matmul(a: Matrix | Grouped, b: Matrix | Grouped) -> Matrix | Grouped:
    """Matrix product with a fixed ascending-index reduction order.

    Either operand may be a ``.T`` view. A Grouped right operand gives the
    L x cols Matrix of each row segment times its expert's matrix; a
    Grouped left operand gives the Grouped stack of per-expert products
    (see ``Grouped``). It runs in its operands' one dtype, f32 or f64; the
    kernel entry refuses a mixed pair with ValueError before any write.
    """
    if a.cols != b.rows:
        raise ValueError(
            f"matmul dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}"
        )
    dtype = a.dtype
    kernel = _backend.active.matmul_f64 if dtype == np.float64 else _backend.active.matmul_f32
    if isinstance(a, Grouped):
        out = np.empty((len(a.offsets) - 1, a.rows, b.cols), dtype=dtype)
        kernel(a.a, b.a, out, a.offsets)
        result = Grouped(out, a.offsets)
    else:
        out = np.empty((a.rows, b.cols), dtype=dtype)
        kernel(a.a, b.a, out, b.offsets if isinstance(b, Grouped) else None)
        result = Matrix.wrap(out)
    # Counted once the kernel has returned, so a refused product adds none.
    if _flop_counter is not None:
        _flop_counter.flops += 2 * a.rows * a.cols * b.cols
    return result


def sum_squares(arrays) -> float:
    """The squared global norm of a list of float32 arrays, from the active
    kernel module: from 0.0, per array in list order,
    ``sq += float((a.astype(np.float64) ** 2).sum())``, with the bits of
    NumPy's pairwise summation."""
    return _backend.active.sum_squares_f32(arrays)


def sub_scaled(params, grads, scale) -> None:
    """``p -= scale * g`` in place for each pair of float32 arrays, in list
    order, from the active kernel module, with the bits of NumPy's
    promotion: in float32 for a Python float ``scale``, in float64 and
    rounded to float32 for an ``np.float64``."""
    _backend.active.sub_scaled_f32(params, grads, scale)


def sigmoid(x):
    """Numerically safe logistic function; the exponent never overflows.

    With z = exp(-|x|) <= 1, this is 1 / (1 + z) where x >= 0 and
    z / (1 + z) elsewhere: one exp and one divide per element, with no
    select, whose numerator max(z, x >= 0) is exactly 1 or z.
    """
    x = np.asarray(x)
    z = np.exp(np.minimum(x, -x))
    return np.maximum(z, x >= 0) / (z + 1)


def silu(x):
    """x * sigmoid(x), elementwise; silu(0) = 0, silu(x) -> x for large x."""
    x_arr = np.asarray(x)
    out = x_arr * sigmoid(x_arr)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax; rows are positive and sum to 1 within 1e-6."""
    v = np.asarray(v)
    if v.size == 0:
        raise ValueError("softmax of empty input")
    if not np.isfinite(v).all():
        raise ValueError("softmax input must be finite")
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


class Rng:
    """SplitMix64 stream: output i is mix(seed + i * golden_gamma).

    Counter-based, so draws vectorize and the stream depends only on the
    64-bit seed. Not shareable across threads; clone sub-streams with
    :meth:`child` instead.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & _MASK64)
        # A Python int, advanced modulo 2^64 as one: it wraps without an
        # overflow warning, also when a caller set it as an np.uint64.
        self.counter = 0

    def uniform(self, n: int) -> np.ndarray:
        """n float64 samples in [0, 1) with 53-bit resolution:
        (draw >> 11) * 2^-53, from the active kernel module."""
        out = np.empty(n)
        _backend.active.uniform_f64(self.seed, self.counter, out)
        self.counter = (int(self.counter) + n) & _MASK64
        return out

    def normal(self, n: int, std: float = 1.0) -> np.ndarray:
        """n float64 N(0, std^2) samples via Box-Muller (cosine branch)."""
        # std * sqrt(-2 log(u1)) * cos(2 pi u2), one rounded operation at a
        # time in that order, in place: the pinned draws keep their bits.
        u = self.uniform(2 * n)
        u1, u2 = u[:n], u[n:]
        u1 += 2.0**-53  # (0, 1]; (k + 1) * 2^-53 exactly
        np.log(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)
        u1 *= std
        u2 *= 2.0 * np.pi
        np.cos(u2, out=u2)
        return u1 * u2  # a new array, so the 2n-element buffer is freed

    def matrix(self, rows: int, cols: int, std: float = 1.0, dtype=np.float32) -> Matrix:
        vals = self.normal(rows * cols, std=std)
        return Matrix.wrap(np.ascontiguousarray(vals.reshape(rows, cols), dtype=dtype))

    def child(self, stream: int) -> "Rng":
        """Independent sub-stream keyed by a small integer tag."""
        with np.errstate(over="ignore"):
            tag = mix(np.array([np.uint64((stream + 1) & _MASK64) * GOLDEN]))
            return Rng(int(mix(self.seed ^ tag)[0]))

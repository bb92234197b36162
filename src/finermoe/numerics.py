"""Dense numeric core: matrices, matmul, SiLU, softmax, and a seeded RNG.

Design constraints that everything downstream leans on:

* float32 storage by default; float64 matrices are supported end-to-end
  for verification runs.
* Every matmul accumulates each dot product in ascending inner-index
  order, one rounded multiply and one rounded add per term, so results
  are bit-identical from run to run. It runs in the active kernel module
  of ``_backend``: the C kernels of ``_kernels_c``, or the NumPy kernels
  of ``_kernels_py`` when those could not be built. Both give the same
  bits.
* The RNG is SplitMix64, a counter-based 64-bit generator with published
  test vectors; identical seeds give identical streams on every platform.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from finermoe import _backend

_DTYPES = (np.float32, np.float64)


def get_num_threads() -> int:
    """Threads the matmul kernels use: always 1, they are single-threaded."""
    return 1


class Matrix:
    """2-D row-major float matrix backed by a contiguous NumPy array.

    The only numeric container used by the library. ``a`` exposes the
    underlying array for elementwise work; all matrix products must go
    through :func:`matmul` to keep reductions reproducible.
    """

    __slots__ = ("a",)

    def __init__(self, data, dtype=None):
        arr = np.array(data, dtype=dtype, order="C", copy=True)
        if arr.dtype not in _DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim != 2:
            raise ValueError(f"Matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"Matrix dims must be positive, got shape {arr.shape}")
        self.a = arr

    @classmethod
    def wrap(cls, arr: np.ndarray) -> "Matrix":
        """Adopt an existing 2-D C-contiguous f32/f64 array without copying."""
        m = cls.__new__(cls)
        if arr.ndim != 2 or not arr.flags.c_contiguous or arr.dtype not in _DTYPES:
            raise ValueError("wrap() needs a C-contiguous 2-D f32/f64 array")
        m.a = arr
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int, dtype=np.float32) -> "Matrix":
        return cls.wrap(np.zeros((rows, cols), dtype=dtype))

    @classmethod
    def identity(cls, n: int, dtype=np.float32) -> "Matrix":
        return cls.wrap(np.eye(n, dtype=dtype))

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

    def copy(self) -> "Matrix":
        return Matrix.wrap(self.a.copy())

    def transpose(self) -> "Matrix":
        return Matrix.wrap(np.ascontiguousarray(self.a.T))

    def tobytes(self) -> bytes:
        return self.a.tobytes()

    def allfinite(self) -> bool:
        return bool(np.isfinite(self.a).all())

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.a.dtype == other.a.dtype
            and self.a.shape == other.a.shape
            and self.a.tobytes() == other.a.tobytes()
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.a.dtype})"


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


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product with a fixed ascending-index reduction order.

    Output dtype is f64 iff either input is f64.
    """
    if a.cols != b.rows:
        raise ValueError(
            f"matmul dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}"
        )
    if _flop_counter is not None:
        _flop_counter.flops += 2 * a.rows * a.cols * b.cols
    if a.dtype == np.float64 or b.dtype == np.float64:
        aa = a.a if a.dtype == np.float64 else a.a.astype(np.float64)
        bb = b.a if b.dtype == np.float64 else b.a.astype(np.float64)
        out = np.empty((a.rows, b.cols), dtype=np.float64)
        _backend.active.matmul_f64(aa, bb, out)
    else:
        out = np.empty((a.rows, b.cols), dtype=np.float32)
        _backend.active.matmul_f32(a.a, b.a, out)
    return Matrix.wrap(out)


def sigmoid(x):
    """Numerically safe logistic function; the exponent never overflows."""
    x = np.asarray(x)
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


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


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (Steele, Lea & Flood 2014)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class Rng:
    """SplitMix64 stream: output i is mix(seed + i * golden_gamma).

    Counter-based, so draws vectorize and the stream depends only on the
    64-bit seed. Not shareable across threads; clone sub-streams with
    :meth:`child` instead.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = np.uint64(0)

    def _raw(self, n: int) -> np.ndarray:
        idx = self.counter + np.arange(1, n + 1, dtype=np.uint64)
        self.counter += np.uint64(n)
        with np.errstate(over="ignore"):
            return _mix(self.seed + idx * _GOLDEN)

    def uniform(self, n: int) -> np.ndarray:
        """n float64 samples in [0, 1) with 53-bit resolution."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal(self, n: int, std: float = 1.0) -> np.ndarray:
        """n float64 N(0, std^2) samples via Box-Muller (cosine branch)."""
        u = self._raw(2 * n)
        u1 = ((u[:n] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53  # (0, 1]
        u2 = (u[n:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return std * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def matrix(self, rows: int, cols: int, std: float = 1.0, dtype=np.float32) -> Matrix:
        vals = self.normal(rows * cols, std=std)
        return Matrix.wrap(np.ascontiguousarray(vals.reshape(rows, cols), dtype=dtype))

    def child(self, stream: int) -> "Rng":
        """Independent sub-stream keyed by a small integer tag."""
        with np.errstate(over="ignore"):
            tag = _mix(np.uint64((stream + 1) & 0xFFFFFFFFFFFFFFFF) * _GOLDEN)
            return Rng(int(_mix(self.seed ^ tag)))

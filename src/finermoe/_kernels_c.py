"""Plain-C kernels (``_kernels.c``), built on first import.

The entries have the signature, the checks and the bits of
``_kernels_py``'s. ``uniform_f64(seed, counter, out)`` writes SplitMix64
uniform draws into ``out``. ``sum_squares_f32(flat, sizes)`` returns the
squared global norm of a model's flat float32 gradient, summed per tensor
of ``sizes`` values in NumPy's pairwise order, and
``sub_scaled_f32(params, grads, scale)`` does ``params -= scale * grads``
in place on a flat pair with NumPy's promotion of ``scale``: one call
each per train-demo step, where NumPy makes a pass or two per tensor.
``matmul_f32(a, b, out, offsets=None)`` writes a plain, grouped-rows or
grouped-inner-index product into ``out``, summing every output element
over the inner index in ascending order from +0.0, each element whole on
one thread. A transposed operand reaches the C loop as swapped strides
and a stacked ``b`` or ``out`` as a per-matrix stride, so none is copied
here. (A NaN result is NaN in both, but its sign and payload may differ:
IEEE 754 leaves open which operand's NaN an add returns.)

The library holds each matmul inner loop three times on x86-64, for
AVX-512F, AVX2 and baseline SSE2, and the dynamic loader keeps the widest
the CPU supports when the library loads. ``BACKEND`` names that variant, e.g.
``"c (avx512f)"``. Under AVX-512F, every product runs on a register tile
that keeps an 8-row, 2-vector block of ``out`` in registers, walking
``b`` in blocks of rows and carrying the running sums in ``out`` from
block to block. A plain product of more than 8 rows reads each block from
a copy packed into a 512 KB buffer, which its tiles read again. Every
other product reads ``b`` in place, 32 rows at a time, as a copy would be
read only once: plain products of at most 8 rows, one-row products
included, and every grouped segment. In place, cli-ref's 8-row
shared-expert products took 4.7-5.3 ms against 7.5-8.1 packed
(``BENCH_stream_rows.json``), and a train-coarse step's grouped products
ran 1.2-1.6 times as fast as on the loop (``BENCH_grouped_tile.json``).
A transposed ``b`` is first gathered into row-major panels. The columns
past the last multiple of the tile's width run on the i-p-j loop, as do
all products on other hosts. All variants, the tile included, give the
same bits, NaN aside as above.

A product of 2**19 multiply-adds or more is split over a pool of
``threads()`` threads, one per CPU the process could run on when the
library loaded, the calling thread included: a plain product by columns,
in whole tile widths, and a grouped one by runs of segments. Each output
element is still summed whole by one thread, so the split changes no bit.
ctypes releases the GIL for the call; a second Python thread that calls
while the pool is busy runs its product on its own thread. On cli-ref's
mapped shared expert, ``8 x 1536 @ 1536 x 8960`` took 2.5-3.0 ms on two
threads against 4.5-5.2 on one (``BENCH_threads.json``).

Loading the library fixes glibc's mmap threshold at 32 MiB and its trim
threshold at 64 MiB for the whole process, so NumPy's temporaries under
32 MiB are reused from the heap rather than mapped and faulted in afresh
on every call (see ``_kernels.c``); ``_kernels_py`` leaves them alone.

Importing this module compiles ``_kernels.c`` with gcc into this package's
``__pycache__`` directory, unless a library built from the same source
with the same flags is already there. The file is named after a digest of
the source and the flags, followed by a digest of the library's own
bytes, which is checked before the library is loaded, so a damaged file is
built again instead of loaded. Each build goes to a temporary directory and
is renamed into place, so a process never loads a half-written file; a
build then removes every other ``_kernels-*.so`` there, left by an earlier
source or damaged. When there is no gcc, the build fails or the cache
cannot be written, the import raises ``OSError`` and ``_backend`` falls
back to ``_kernels_py``.
"""

import ctypes
import os
import shutil
import subprocess
import tempfile
import zlib
from pathlib import Path

import numpy as np

from finermoe._kernels_py import check, check_draws, check_sub_scaled, check_sum_squares

_SRC = Path(__file__).with_name("_kernels.c")
_CACHE = _SRC.parent / "__pycache__"
# -ffp-contract=off keeps multiplies and adds separately rounded. No
# -ffast-math, which reorders sums. No -march=native: a library built for
# one host's CPU stops with SIGILL on an older CPU that shares the
# checkout, where the source's target_clones give one library that picks
# its vector width on each host when it loads.
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC", "-pthread")


def _digest(data: bytes) -> str:
    # CRC-32 catches accidental damage and edits; it is not a defence
    # against a forged file, which a writable cache cannot exclude anyway.
    # zlib is already loaded by NumPy, where hashlib would map OpenSSL.
    return f"{zlib.crc32(data):08x}"


def _library() -> Path:
    """The cached library whose bytes match the digest in its name, or a new build."""
    key = _digest(_SRC.read_bytes() + "\0".join(_FLAGS).encode())
    for path in _CACHE.glob(f"_kernels-{key}-*.so"):
        if path.stem.rsplit("-", 1)[1] == _digest(path.read_bytes()):
            return path
    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError("gcc not found on PATH")
    _CACHE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=_CACHE) as tmp:
        built = Path(tmp) / "lib.so"
        proc = subprocess.run([gcc, *_FLAGS, "-o", str(built), str(_SRC)], capture_output=True, text=True)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or [""]
            first_error = next((line for line in lines if "error" in line), lines[-1])
            raise OSError(f"gcc exited {proc.returncode}: {first_error}")
        path = _CACHE / f"_kernels-{key}-{_digest(built.read_bytes())}.so"
        os.replace(built, path)
    for stale in _CACHE.glob("_kernels-*.so"):
        if stale != path:
            stale.unlink(missing_ok=True)
    return path


_ptr, _long = ctypes.c_void_p, ctypes.c_long


def _load(path) -> ctypes.CDLL:
    """The kernel library at ``path``, with its entries' C types declared."""
    lib = ctypes.CDLL(str(path))
    for fn in (lib.gemm_f32, lib.gemm_f64):
        fn.argtypes = (
            _ptr, _long, _long,  # a and its strides
            _ptr, _long, _long, _long,  # b, its strides and its stack stride
            _ptr, _long,  # out and its stack stride
            _ptr, _long, ctypes.c_int,  # offsets, segments, inner-index mode
            _long, _long, _long,  # n, k, m
        )
        fn.restype = ctypes.c_int
    lib.gemm_isa.argtypes = ()
    lib.gemm_isa.restype = ctypes.c_char_p
    lib.gemm_threads.argtypes = ()
    lib.gemm_threads.restype = ctypes.c_int
    lib.uniform_f64.argtypes = (ctypes.c_uint64, ctypes.c_uint64, _ptr, _long)
    lib.uniform_f64.restype = None
    lib.sum_squares_f32.argtypes = (_ptr, _ptr, _long)
    lib.sum_squares_f32.restype = ctypes.c_double
    lib.sub_scaled_f32.argtypes = (_ptr, _ptr, _long, ctypes.c_double, ctypes.c_int)
    lib.sub_scaled_f32.restype = None
    return lib


def _strides(x):
    """Element strides (row, column) of a checked matrix operand."""
    return (x.shape[1], 1) if x.flags.c_contiguous else (1, x.shape[0])


def _entry(fn, dtype):
    def matmul(a, b, out, offsets=None):
        check(dtype, a, b, out, offsets)
        ars, acs = _strides(a)
        n, k = a.shape
        off, nseg, bks, oks, inner = None, 1, 0, 0, 0
        if offsets is None:
            brs, bcs = _strides(b)
        elif b.ndim == 3:
            brs, bcs = _strides(b[0])
            off, nseg, bks = offsets.ctypes.data, len(b), b.strides[0] // b.itemsize
        else:
            brs, bcs = _strides(b)
            off, nseg, oks, inner = offsets.ctypes.data, len(out), out.strides[0] // out.itemsize, 1
        m = out.shape[-1]
        if fn(a.ctypes.data, ars, acs, b.ctypes.data, brs, bcs, bks, out.ctypes.data, oks, off, nseg, inner, n, k, m):
            raise MemoryError("no memory for the kernel's packing buffer")

    return matmul


def _draws(fn):
    def uniform_f64(seed, counter, out):
        check_draws(out)
        fn(int(seed), int(counter), out.ctypes.data, len(out))

    return uniform_f64


def _sum_squares(fn):
    def sum_squares_f32(flat, sizes):
        sizes = check_sum_squares(flat, sizes)
        return fn(flat.ctypes.data, sizes.ctypes.data, len(sizes))

    return sum_squares_f32


def _sub_scaled(fn):
    def sub_scaled_f32(params, grads, scale):
        wide = check_sub_scaled(params, grads, scale)
        fn(params.ctypes.data, grads.ctypes.data, params.size, float(scale), wide)

    return sub_scaled_f32


_lib = _load(_library())
BACKEND = f"c ({_lib.gemm_isa().decode()})"
threads = _lib.gemm_threads
matmul_f32 = _entry(_lib.gemm_f32, np.dtype(np.float32))
matmul_f64 = _entry(_lib.gemm_f64, np.dtype(np.float64))
uniform_f64 = _draws(_lib.uniform_f64)
sum_squares_f32 = _sum_squares(_lib.sum_squares_f32)
sub_scaled_f32 = _sub_scaled(_lib.sub_scaled_f32)

"""Plain-C matrix-multiply kernels (``_matmul.c``), built on first import.

The entries have the signature and the bits of ``_kernels_py``'s: each
writes ``a @ b`` into ``out``, summing every output element over the inner
index in ascending order from +0.0, on one thread. (A NaN result is NaN in
both, but its sign and payload may differ: IEEE 754 leaves open which
operand's NaN an add returns.)

Importing this module compiles ``_matmul.c`` with gcc into this package's
``__pycache__`` directory, unless a library built from the same source
with the same flags is already there. The file is named after a digest of
the source and the flags, followed by a digest of the library's own
bytes, which is checked before the library is loaded, so a damaged file is
built again instead of loaded. Each build goes to a temporary directory and
is renamed into place, so a process never loads a half-written file. When
there is no gcc, the build fails or the cache cannot be written, the
import raises ``OSError`` and ``_backend`` falls back to ``_kernels_py``.
"""

import ctypes
import os
import shutil
import subprocess
import tempfile
import zlib
from pathlib import Path

import numpy as np

BACKEND = "c"

_SRC = Path(__file__).with_name("_matmul.c")
_CACHE = _SRC.parent / "__pycache__"
# -ffp-contract=off keeps multiplies and adds separately rounded. No
# -ffast-math, which reorders sums, and no -march=native, so that a cached
# library runs on every host that shares the checkout.
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def _digest(data: bytes) -> str:
    # CRC-32 catches accidental damage and edits; it is not a defence
    # against a forged file, which a writable cache cannot exclude anyway.
    # zlib is already loaded by NumPy, where hashlib would map OpenSSL.
    return f"{zlib.crc32(data):08x}"


def _library() -> Path:
    """The cached library whose bytes match the digest in its name, or a new build."""
    key = _digest(_SRC.read_bytes() + "\0".join(_FLAGS).encode())
    for path in _CACHE.glob(f"_matmul-{key}-*.so"):
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
        path = _CACHE / f"_matmul-{key}-{_digest(built.read_bytes())}.so"
        os.replace(built, path)
    return path


_lib = ctypes.CDLL(str(_library()))
_f32, _f64 = _lib.matmul_f32, _lib.matmul_f64
for _fn in (_f32, _f64):
    _fn.argtypes = (ctypes.c_void_p,) * 3 + (ctypes.c_long,) * 3
    _fn.restype = None
_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)


def _call(fn, dtype, a, b, out):
    n, k = a.shape
    m = b.shape[1]
    if b.shape[0] != k or out.shape != (n, m):
        raise ValueError(f"kernel shapes {a.shape} @ {b.shape} -> {out.shape} do not match")
    if not (
        a.dtype == b.dtype == out.dtype == dtype
        and a.flags.c_contiguous
        and b.flags.c_contiguous
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError(f"kernel operands must be C-contiguous {dtype} arrays, out writeable")
    fn(a.ctypes.data, b.ctypes.data, out.ctypes.data, n, k, m)


def matmul_f32(a, b, out):
    _call(_f32, _F32, a, b, out)


def matmul_f64(a, b, out):
    _call(_f64, _F64, a, b, out)

"""The active kernel module, read by ``numerics``: its matrix products
(``matmul``), its uniform draws (``Rng.uniform``) and its SGD step
(``sum_squares`` and ``sub_scaled``).

Two kernel modules give the same bits: ``_kernels_c``, the plain-C
kernels built with gcc on first import, and ``_kernels_py``, the NumPy
kernels. The C module is active when it built and loaded; otherwise the
NumPy module is, and ``backend_name`` says why.
"""

from finermoe import _kernels_py

try:
    from finermoe import _kernels_c as active
except OSError as exc:
    active = _kernels_py
    _fallback = f" ({exc})"
else:
    _fallback = ""


def backend_name() -> str:
    """``"c (<variant>)"``, naming the vector ISA the C kernels run, e.g.
    ``"c (avx512f)"``; or ``"python (<why the C kernels are not active>)"``."""
    return active.BACKEND + _fallback

"""SwiGLU expert forward, for the full-size shared expert and the
finer-grained sparse experts.

Per row: y_inner = (x W1) * silu(x Wg), y = y_inner W2. No bias terms;
the activation is fixed to SiLU.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from finermoe.numerics import Grouped, Matrix, matmul, silu


@dataclass
class DenseFfnWeights:
    """Pretrained dense FFN: W1, Wg of shape h x H; W2 of shape H x h."""

    w1: Matrix
    wg: Matrix
    w2: Matrix

    def __post_init__(self):
        h, H = self.w1.shape
        if self.wg.shape != (h, H) or self.w2.shape != (H, h):
            raise ValueError(
                f"inconsistent FFN shapes: w1 {self.w1.shape}, wg {self.wg.shape}, "
                f"w2 {self.w2.shape}"
            )

    @property
    def h(self) -> int:
        return self.w1.rows

    @property
    def H(self) -> int:
        return self.w1.cols

    def astype(self, dtype) -> "DenseFfnWeights":
        return DenseFfnWeights(self.w1.astype(dtype), self.wg.astype(dtype), self.w2.astype(dtype))

    def copy(self) -> "DenseFfnWeights":
        return DenseFfnWeights(self.w1.copy(), self.wg.copy(), self.w2.copy())


@dataclass
class ExpertWeights:
    """One sparse expert: W1, Wg of shape h x H_e; W2 of shape H_e x h_e.

    Models store their experts in an ExpertStack, whose ``[k]`` returns one
    of these wrapping slice k of the stacks without copying, and whose
    ``grouped(offsets)`` returns one of Grouped operands: all experts at
    once, each on its own rows.
    """

    w1: Matrix
    wg: Matrix
    w2: Matrix

    def __post_init__(self):
        h, H_e = self.w1.shape
        if self.wg.shape != (h, H_e) or self.w2.rows != H_e:
            raise ValueError(
                f"inconsistent expert shapes: w1 {self.w1.shape}, wg {self.wg.shape}, "
                f"w2 {self.w2.shape}"
            )


@dataclass(eq=False)
class ExpertStack(Sequence):
    """All N sparse experts of a layer as three arrays: w1, wg of shape
    N x h x H_e and w2 of shape N x H_e x h_e. Each expert's slice ``w1[k]``
    etc. is C-contiguous; the stacks themselves are C-contiguous, or, in a
    model ``read_model`` maps, views strided by one expert's w1+wg+w2.

    ``stack[k]`` is expert k as an ExpertWeights of views, so writing
    through it writes the stack; ``len(stack)`` is N.
    """

    w1: np.ndarray
    wg: np.ndarray
    w2: np.ndarray

    @classmethod
    def zeros(cls, n: int, h: int, H_e: int, h_e: int, dtype=np.float32) -> "ExpertStack":
        return cls(
            np.zeros((n, h, H_e), dtype), np.zeros((n, h, H_e), dtype), np.zeros((n, H_e, h_e), dtype)
        )

    def __len__(self) -> int:
        return self.w1.shape[0]

    def __getitem__(self, k: int) -> ExpertWeights:
        return ExpertWeights(Matrix.wrap(self.w1[k]), Matrix.wrap(self.wg[k]), Matrix.wrap(self.w2[k]))

    def grouped(self, offsets: np.ndarray) -> ExpertWeights:
        """Every expert as one ExpertWeights of Grouped views of the stacks:
        ``swiglu`` of expert-major rows split by ``offsets`` then runs each
        expert on its own rows, three grouped products in all."""
        return ExpertWeights(*(Grouped(w, offsets) for w in (self.w1, self.wg, self.w2)))

    def astype(self, dtype) -> "ExpertStack":
        return ExpertStack(*(np.ascontiguousarray(a, dtype=dtype) for a in (self.w1, self.wg, self.w2)))


@dataclass
class SwiGLUTape:
    """One SwiGLU forward, kept so the backward pass need not rerun it:
    up = x W1, gate = x Wg, inner = up * silu(gate), out = inner W2. For
    grouped experts each holds every (token, expert) pair's row,
    expert-major."""

    up: np.ndarray
    gate: np.ndarray
    inner: Matrix
    out: Matrix


def swiglu(x: Matrix, w: ExpertWeights | DenseFfnWeights) -> SwiGLUTape:
    """SwiGLU forward of a token batch with its intermediates; with
    ``ExpertStack.grouped`` weights, of every expert's batch at once."""
    if x.cols != w.w1.rows:
        raise ValueError(f"input width {x.cols} does not match expert input dim {w.w1.rows}")
    up = matmul(x, w.w1).a
    gate = matmul(x, w.wg).a
    inner = Matrix.wrap(up * silu(gate))
    return SwiGLUTape(up, gate, inner, matmul(inner, w.w2))


def expert_forward(x: Matrix, w: ExpertWeights | DenseFfnWeights) -> Matrix:
    """SwiGLU forward of a token batch; output is L x h_e (L x h for a dense FFN)."""
    return swiglu(x, w).out


def shared_forward(x: Matrix, w: DenseFfnWeights) -> SwiGLUTape:
    """Full-size SwiGLU forward; identical computation at (H, h). The
    output is ``.out``, the rest is the tape ``backward`` reads."""
    return swiglu(x, w)

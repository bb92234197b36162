"""SwiGLU expert forward, for the full-size shared expert and the
finer-grained sparse experts.

Per row: y_inner = (x W1) * silu(x Wg), y = y_inner W2. No bias terms;
the activation is fixed to SiLU. ``swiglu`` takes the three weights as
operands: a dense FFN's matrices, one expert's slices of an
``ExpertStack``, or the stacks' ``Grouped`` views for all experts at once.
"""

from __future__ import annotations

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

    @classmethod
    def over(cls, h: int, H: int, flat: np.ndarray) -> "DenseFfnWeights":
        """w1, wg and w2 as views of the consecutive thirds of ``flat``, a
        C-contiguous array of 3 * h * H values."""
        w1, wg, w2 = flat.reshape(3, h * H)
        return cls(Matrix.wrap(w1.reshape(h, H)), Matrix.wrap(wg.reshape(h, H)), Matrix.wrap(w2.reshape(H, h)))

    def astype(self, dtype) -> "DenseFfnWeights":
        return DenseFfnWeights(self.w1.astype(dtype), self.wg.astype(dtype), self.w2.astype(dtype))


@dataclass(eq=False)
class ExpertStack:
    """All N sparse experts of a layer, as ``MoEModel.over`` lays them out:
    ``block`` is N x (2*h*H_e + H_e*h_e), row k holding expert k's w1, wg
    and w2 one after another, and ``w1``, ``wg`` of shape N x h x H_e and
    ``w2`` of shape N x H_e x h_e are strided views of it, one row apart.
    Expert k is ``w1[k]``, ``wg[k]`` and ``w2[k]``, each C-contiguous, so
    ``Matrix.wrap`` adopts it without copying and writing through it
    writes the block.
    """

    block: np.ndarray
    w1: np.ndarray
    wg: np.ndarray
    w2: np.ndarray

    def grouped(self, offsets: np.ndarray) -> tuple[Grouped, Grouped, Grouped]:
        """w1, wg and w2 as Grouped operands split by ``offsets``: ``swiglu``
        of expert-major rows with them runs each expert on its own rows,
        three grouped products in all."""
        return tuple(Grouped(a, offsets) for a in (self.w1, self.wg, self.w2))


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


def swiglu(x: Matrix, w1: Matrix | Grouped, wg: Matrix | Grouped, w2: Matrix | Grouped) -> SwiGLUTape:
    """SwiGLU forward of a token batch with its intermediates: one expert's
    or a dense FFN's matrices, or, with ``ExpertStack.grouped`` operands,
    every expert's batch at once."""
    if x.cols != w1.rows:
        raise ValueError(f"input width {x.cols} does not match expert input dim {w1.rows}")
    up = matmul(x, w1).a
    gate = matmul(x, wg).a
    inner = Matrix.wrap(up * silu(gate))
    return SwiGLUTape(up, gate, inner, matmul(inner, w2))


def shared_forward(x: Matrix, w: DenseFfnWeights) -> SwiGLUTape:
    """Full-size SwiGLU forward; identical computation at (H, h). The
    output is ``.out``, the rest is the tape ``backward`` reads."""
    return swiglu(x, w.w1, w.wg, w.w2)

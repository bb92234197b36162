"""Builds a MoE layer from a pretrained dense FFN.

The shared expert is a verbatim copy. Sparse expert k takes a contiguous
column block of W1/Wg (intermediate slice i) and the matching row block of
W2 restricted to the column block of its output slice j, where

    i = (k mod (G_I*R_I)) mod G_I        j = k // (R_O * G_I * R_I)

Granularity splits the FFN; expansion replicates slices, so the same
mechanism covers plain replication (G_I=G_O=1), intermediate splitting
(R_I=R_O=1), and everything between. Routers are seeded
small-normal (std 0.02) so initial scores are near-uniform. Drop-upcycling
(Nakamura et al., ICLR 2025) re-draws part of each expert of any of these.
"""

from __future__ import annotations

import numpy as np

from finermoe.config import ConfigError, FineRConfig, derive, expert_component, validate
from finermoe.analysis import cost_report
from finermoe.experts import DenseFfnWeights
from finermoe.moe_layer import MoEModel, named_parameters
from finermoe.numerics import Rng

ROUTER_INIT_STD = 0.02

# Child-stream tags so each weight group draws from an independent stream,
# even when a donor and its upcycled model share one seed.
_STREAM_ROUTER = 0
_STREAM_ROUTER_CC = 1
_STREAM_DENSE_W1 = 8
_STREAM_DENSE_WG = 9
_STREAM_DENSE_W2 = 10
_STREAM_EXPERT_BASE = 16


def expert_slice_indices(cfg: FineRConfig) -> tuple[np.ndarray, np.ndarray]:
    """The dense-FFN slices of every expert: for k = 0..N-1, its
    intermediate slice i[k] in [0, G_I) and output slice j[k] in [0, G_O)."""
    k = np.arange(derive(cfg).N)
    return k % (cfg.G_I * cfg.R_I) % cfg.G_I, expert_component(cfg, k)


def upcycle(dense: DenseFfnWeights, cfg: FineRConfig, seed: int) -> MoEModel:
    """Slice/replicate the dense FFN into a full MoE model in the dense
    FFN's dtype, laid out by ``MoEModel.over`` and filled in place, each
    expert stack by one broadcast copy from a view of the dense matrix.
    The routers are drawn in f32 and then cast, so an f64 donor's routers
    are an f32 donor's, widened."""
    validate(cfg)
    dims = derive(cfg)
    if (dense.h, dense.H) != (cfg.h, cfg.H):
        raise ConfigError(f"dense FFN dims {(dense.h, dense.H)} do not match config {(cfg.h, cfg.H)}")
    rng = Rng(seed)
    dtype = dense.w1.dtype
    model = MoEModel.over(cfg, np.empty(cost_report(cfg).total_params, dtype))
    # Expert k = (j * R_O * R_I + r) * G_I + i takes slices (i, j) for each
    # r (expert_slice_indices), so each stack, split into G_O x R x G_I, is
    # one broadcast copy from a view of the dense matrix that puts the
    # slices on leading axes.
    ex, R = model.experts, cfg.R_O * cfg.R_I
    for stack, w in ((ex.w1, dense.w1), (ex.wg, dense.wg)):
        stack.reshape(cfg.G_O, R, cfg.G_I, cfg.h, -1)[...] = w.a.reshape(cfg.h, cfg.G_I, -1).transpose(1, 0, 2)
    w2 = dense.w2.a.reshape(cfg.G_I, dims.H_e, cfg.G_O, -1).transpose(2, 0, 1, 3)
    ex.w2.reshape(cfg.G_O, R, cfg.G_I, dims.H_e, -1)[...] = w2[:, None]
    model.router.a[...] = rng.child(_STREAM_ROUTER).matrix(cfg.h, dims.N, std=ROUTER_INIT_STD).a
    if model.router_cc is not None:
        model.router_cc.a[...] = rng.child(_STREAM_ROUTER_CC).matrix(cfg.h, dims.n_groups, std=ROUTER_INIT_STD).a
    if model.shared is not None:  # a verbatim copy
        for (_, w), (_, d) in zip(named_parameters(model.shared), named_parameters(dense)):
            w[...] = d
    if model.concat_proj is not None:
        model.concat_proj.a[...] = np.eye(cfg.h)
    return model


def drop_upcycle(dense: DenseFfnWeights, cfg: FineRConfig, drop_ratio: float, seed: int) -> MoEModel:
    """``upcycle(dense, cfg, seed)`` with partial re-initialization: in each
    expert an independently seeded random subset (fraction drop_ratio, per
    entry) of every weight matrix is re-drawn from a zero-mean normal
    matching that matrix's empirical std. A replication config (G_I = G_O
    = R_O = 1) makes every expert a copy of the dense FFN before the
    re-draw, as in Drop-Upcycling; at drop_ratio 0 the bytes are those of
    ``upcycle``.
    """
    if not 0.0 <= drop_ratio <= 1.0:
        raise ValueError(f"drop_ratio must be in [0, 1], got {drop_ratio}")
    model = upcycle(dense, cfg, seed)
    rng = Rng(seed)
    stacks = (model.experts.w1, model.experts.wg, model.experts.w2)
    for k in range(model.dims.N):
        for m_idx, stack in enumerate(stacks):
            child = rng.child(_STREAM_EXPERT_BASE + 3 * k + m_idx)
            mat = stack[k]
            mask = child.uniform(mat.size) < drop_ratio
            if not mask.any():
                continue
            std = float(mat.astype(np.float64).std())
            redrawn = child.normal(mat.size, std=std)
            mat.ravel()[mask] = redrawn[mask].astype(mat.dtype)
    return model


def random_dense(h: int, H: int, seed: int, std: float = 0.05) -> DenseFfnWeights:
    """Seeded random dense FFN (test fixtures and CLI synthesis)."""
    rng = Rng(seed)
    return DenseFfnWeights(
        w1=rng.child(_STREAM_DENSE_W1).matrix(h, H, std=std),
        wg=rng.child(_STREAM_DENSE_WG).matrix(h, H, std=std),
        w2=rng.child(_STREAM_DENSE_W2).matrix(H, h, std=std),
    )

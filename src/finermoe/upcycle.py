"""Builds a MoE layer from a pretrained dense FFN.

The shared expert is a verbatim copy. Sparse expert k takes a contiguous
column block of W1/Wg (intermediate slice i) and the matching row block of
W2 restricted to the column block of its output slice j, where

    i = (k mod (G_I*R_I)) mod G_I        j = k // (R_O * G_I * R_I)

Granularity splits the FFN; expansion replicates slices, so the same
mechanism covers plain replication (G_I=G_O=1), intermediate splitting
(R_I=R_O=1), and everything between. Routers are seeded
small-normal (std 0.02) so initial scores are near-uniform.
"""

from __future__ import annotations

import numpy as np

from finermoe.config import FineRConfig, derive, expert_component, validate
from finermoe.experts import DenseFfnWeights, ExpertStack
from finermoe.moe_layer import MoEModel
from finermoe.numerics import Matrix, Rng

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
    """Slice/replicate the dense FFN into a full MoE model. Each expert
    stack is one gather from a view of the dense matrix that puts the
    slices on a leading axis, so the stacks are C-contiguous, own their
    storage and keep the dense dtype."""
    validate(cfg)
    dims = derive(cfg)
    if (dense.h, dense.H) != (cfg.h, cfg.H):
        raise ValueError(
            f"dense FFN dims {(dense.h, dense.H)} do not match config {(cfg.h, cfg.H)}"
        )
    rng = Rng(seed)
    i, j = expert_slice_indices(cfg)
    # Views with the slices on leading axes: W1/Wg as G_I column blocks
    # (G_I x h x H_e), W2 as G_I x G_O blocks (G_I x G_O x H_e x h_e).
    w1, wg = (w.a.reshape(cfg.h, cfg.G_I, dims.H_e).transpose(1, 0, 2) for w in (dense.w1, dense.wg))
    w2 = dense.w2.a.reshape(cfg.G_I, dims.H_e, cfg.G_O, dims.h_e).transpose(0, 2, 1, 3)
    experts = ExpertStack(w1[i], wg[i], w2[i, j])
    router = rng.child(_STREAM_ROUTER).matrix(cfg.h, dims.N, std=ROUTER_INIT_STD)
    router_cc = None
    if cfg.router_mode == "separate":
        router_cc = rng.child(_STREAM_ROUTER_CC).matrix(cfg.h, dims.n_groups, std=ROUTER_INIT_STD)
    model = MoEModel(
        cfg=cfg,
        shared=dense.copy() if cfg.share_expert else None,
        experts=experts,
        router=router,
        router_cc=router_cc,
        concat_proj=Matrix.identity(cfg.h) if cfg.concat_proj else None,
    )
    model.validate()
    return model


def drop_upcycle(
    dense: DenseFfnWeights,
    n_experts: int,
    drop_ratio: float,
    n_active: int,
    seed: int,
) -> MoEModel:
    """Replication upcycling with partial re-initialization: each expert is
    a copy of the dense FFN in which an independently seeded random subset
    (fraction drop_ratio, per entry) of every weight matrix is re-drawn
    from a zero-mean normal matching that matrix's empirical std. The dense
    FFN is also kept verbatim as the shared expert.
    """
    if not 0.0 <= drop_ratio <= 1.0:
        raise ValueError(f"drop_ratio must be in [0, 1], got {drop_ratio}")
    cfg = FineRConfig(h=dense.h, H=dense.H, G_I=1, R_I=n_experts, G_O=1, R_O=1, T_I=n_active)
    model = upcycle(dense, cfg, seed)
    rng = Rng(seed)
    stacks = (model.experts.w1, model.experts.wg, model.experts.w2)
    for k in range(n_experts):
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

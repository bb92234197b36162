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

from dataclasses import dataclass

import numpy as np

from finermoe.config import FineRConfig, derive, expert_component, validate
from finermoe.experts import DenseFfnWeights, ExpertStack
from finermoe.moe_layer import MoEModel
from finermoe.numerics import Matrix, Rng
from finermoe.router import RouterState

ROUTER_INIT_STD = 0.02

# Child-stream tags so each weight group draws from an independent stream,
# even when a donor and its upcycled model share one seed.
_STREAM_ROUTER = 0
_STREAM_ROUTER_CC = 1
_STREAM_DENSE_W1 = 8
_STREAM_DENSE_WG = 9
_STREAM_DENSE_W2 = 10
_STREAM_EXPERT_BASE = 16


@dataclass(frozen=True)
class SliceAssignment:
    """Which dense-FFN slices expert k is built from."""

    k: int
    i_slice: int  # intermediate slice, in [0, G_I)
    j_slice: int  # output slice, in [0, G_O)


def expert_slice_indices(k: int, cfg: FineRConfig) -> SliceAssignment:
    dims = derive(cfg)
    if not 0 <= k < dims.N:
        raise ValueError(f"expert index {k} out of range [0, {dims.N})")
    i = (k % (cfg.G_I * cfg.R_I)) % cfg.G_I
    j = expert_component(cfg, k)
    return SliceAssignment(k=k, i_slice=i, j_slice=j)


def upcycle(dense: DenseFfnWeights, cfg: FineRConfig, seed: int) -> MoEModel:
    """Slice/replicate the dense FFN into a full MoE model."""
    validate(cfg)
    dims = derive(cfg)
    if (dense.h, dense.H) != (cfg.h, cfg.H):
        raise ValueError(
            f"dense FFN dims {(dense.h, dense.H)} do not match config {(cfg.h, cfg.H)}"
        )
    rng = Rng(seed)
    experts = ExpertStack.zeros(dims.N, cfg.h, dims.H_e, dims.h_e, dense.w1.dtype)
    for k in range(dims.N):
        a = expert_slice_indices(k, cfg)
        c0, c1 = a.i_slice * dims.H_e, (a.i_slice + 1) * dims.H_e
        o0, o1 = a.j_slice * dims.h_e, (a.j_slice + 1) * dims.h_e
        experts.w1[k] = dense.w1.a[:, c0:c1]
        experts.wg[k] = dense.wg.a[:, c0:c1]
        experts.w2[k] = dense.w2.a[c0:c1, o0:o1]
    router = RouterState(
        rng.child(_STREAM_ROUTER).matrix(cfg.h, dims.N, std=ROUTER_INIT_STD)
    )
    router_cc = None
    if cfg.router_mode == "separate":
        router_cc = RouterState(
            rng.child(_STREAM_ROUTER_CC).matrix(cfg.h, dims.n_groups, std=ROUTER_INIT_STD)
        )
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
    for k, ex in enumerate(model.experts):
        for m_idx, mat in enumerate((ex.w1, ex.wg, ex.w2)):
            child = rng.child(_STREAM_EXPERT_BASE + 3 * k + m_idx)
            n = mat.a.size
            mask = child.uniform(n) < drop_ratio
            if not mask.any():
                continue
            std = float(mat.a.astype(np.float64).std())
            redrawn = child.normal(n, std=std)
            flat = mat.a.ravel()
            flat[mask] = redrawn[mask].astype(mat.dtype)
    return model


def random_dense(h: int, H: int, seed: int, std: float = 0.05) -> DenseFfnWeights:
    """Seeded random dense FFN (test fixtures and CLI synthesis)."""
    rng = Rng(seed)
    return DenseFfnWeights(
        w1=rng.child(_STREAM_DENSE_W1).matrix(h, H, std=std),
        wg=rng.child(_STREAM_DENSE_WG).matrix(h, H, std=std),
        w2=rng.child(_STREAM_DENSE_W2).matrix(H, h, std=std),
    )

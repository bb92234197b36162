"""Model analysis: expert similarity, routing-load statistics, and
parameter and FLOP accounting. Timing lives in perfbench/, not here."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from finermoe.config import FineRConfig, derive
from finermoe.moe_layer import MoEModel
from finermoe.router import RoutingDecision


@dataclass
class SimilarityReport:
    mean: float
    n_pairs: int
    per_pair: np.ndarray  # pairs (i, j), i < j, in row-major order


def expert_similarity(model: MoEModel) -> SimilarityReport:
    """Mean pairwise cosine similarity over all unordered expert pairs.

    Each expert is flattened to one vector (w1, wg, w2 concatenated);
    shapes are uniform within a model, so the pairing is well-defined.
    One square root of the norm product per pair makes identical experts
    score exactly 1.0 and negated ones exactly -1.0.
    """
    stack = model.experts
    n = len(stack)
    if n < 2:
        raise ValueError(f"similarity needs at least 2 experts, got {n}")
    vecs = np.concatenate(
        [a.reshape(n, -1) for a in (stack.w1, stack.wg, stack.w2)], axis=1
    ).astype(np.float64)
    ss = (vecs * vecs).sum(axis=1)
    sims = []
    for i in range(n - 1):
        cross = (vecs[i] * vecs[i + 1 :]).sum(axis=1)
        sims.append(cross / np.sqrt(ss[i] * ss[i + 1 :]))
    per_pair = np.concatenate(sims)
    assert per_pair.shape[0] == n * (n - 1) // 2
    return SimilarityReport(
        mean=float(per_pair.mean()),
        n_pairs=per_pair.shape[0],
        per_pair=per_pair,
    )


@dataclass
class LoadReport:
    counts: np.ndarray  # activations per expert over the stream
    f: np.ndarray  # load factors, mean 1 under perfect balance
    max_f: float  # imbalance ratio (max load over the ideal load of 1)
    n_tokens: int


def route_stats(decisions: RoutingDecision | Iterable[RoutingDecision], cfg: FineRConfig) -> LoadReport:
    """Aggregate per-expert activation counts over a stream of decisions."""
    if isinstance(decisions, RoutingDecision):
        decisions = [decisions]
    dims = derive(cfg)
    counts = np.zeros(dims.N, dtype=np.int64)
    n_tokens = 0
    for d in decisions:
        counts += np.bincount(d.indices.ravel(), minlength=dims.N)
        n_tokens += d.n_tokens
    if n_tokens < 1:
        raise ValueError("route_stats needs at least one token")
    f = (counts * dims.N).astype(np.float64) / (dims.n_active * n_tokens)
    return LoadReport(counts=counts, f=f, max_f=float(f.max()), n_tokens=n_tokens)


# Reference dense model for full-model scaling (Qwen2.5-1.5B): 28 layers of
# h=1536, H=8960 around a 151936-token embedding, 1.5437B parameters total.
# Upcycled checkpoints untie the output embedding, so the non-FFN constant
# is total - FFN blocks + one extra vocab*h output matrix.
REF_LAYERS = 28
REF_DENSE_TOTAL = 1_543_714_304
REF_VOCAB = 151_936


def non_ffn_params(h: int = 1536, H: int = 8960) -> int:
    return REF_DENSE_TOTAL - REF_LAYERS * 3 * h * H + REF_VOCAB * h


@dataclass
class CostReport:
    total_params: int  # one layer's worth
    activated_params: int  # touched per token
    flops_sparse: int  # per token; includes the concat projection if present
    flops_shared: int  # per token
    flops_router: int  # per token

    @property
    def flops_per_token(self) -> int:
        return self.flops_sparse + self.flops_shared + self.flops_router


def cost_report(cfg: FineRConfig) -> CostReport:
    """Parameter and FLOP accounting for one layer; FLOPs count 2 per
    weight entry touched by a matmul (elementwise work excluded)."""
    dims = derive(cfg)
    per_expert = 2 * cfg.h * dims.H_e + dims.H_e * dims.h_e
    shared = 3 * cfg.h * cfg.H if cfg.share_expert else 0
    router = cfg.h * dims.N + (cfg.h * dims.n_groups if cfg.router_mode == "separate" else 0)
    proj = cfg.h * cfg.h if cfg.concat_proj else 0

    total = shared + dims.N * per_expert + router + proj
    activated = shared + dims.n_active * per_expert + router + proj

    return CostReport(
        total_params=total,
        activated_params=activated,
        flops_sparse=2 * (dims.n_active * per_expert + proj),
        flops_shared=2 * shared,
        flops_router=2 * router,
    )


def scaled_params(cfg: FineRConfig) -> tuple[int, int]:
    """(total, activated) parameters of a full model built from cfg: per-layer
    costs times REF_LAYERS plus the documented non-FFN constant."""
    non_ffn = non_ffn_params(cfg.h, cfg.H)
    rep = cost_report(cfg)
    return (
        REF_LAYERS * rep.total_params + non_ffn,
        REF_LAYERS * rep.activated_params + non_ffn,
    )


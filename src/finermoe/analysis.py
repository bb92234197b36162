"""Model analysis: expert similarity, routing-load statistics, and
parameter and FLOP accounting. Timing lives in perfbench/, not here."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from finermoe.config import FineRConfig, derive
from finermoe.router import RoutingDecision

if TYPE_CHECKING:  # moe_layer lays a model out by cost_report
    from finermoe.moe_layer import MoEModel


@dataclass
class SimilarityReport:
    mean: float
    n_pairs: int
    pairs: tuple[np.ndarray, np.ndarray]  # experts (i, j) of each pair: np.triu_indices(N, 1)
    per_pair: np.ndarray  # cosine of pair p, experts (pairs[0][p], pairs[1][p])


def expert_similarity(model: MoEModel) -> SimilarityReport:
    """Mean pairwise cosine similarity over all unordered expert pairs.

    Each expert is one vector, its row of the experts' block (w1, wg and
    w2 one after another); shapes are uniform within a model, so the
    pairing is well-defined. One square root of the norm product per pair
    makes identical experts score exactly 1.0 and negated ones exactly
    -1.0. An expert whose norm is zero or not finite has no cosine, so it
    raises ValueError naming the first such expert.
    """
    n = len(model.experts.block)
    if n < 2:
        raise ValueError(f"similarity needs at least 2 experts, got {n}")
    vecs = model.experts.block.astype(np.float64)
    ss = (vecs * vecs).sum(axis=1)
    bad = np.flatnonzero(~(np.isfinite(ss) & (ss > 0)))
    if bad.size:
        raise ValueError(f"expert {bad[0]} has a zero or non-finite norm, so no cosine similarity")
    i, j = np.triu_indices(n, 1)
    cross = np.array([(vecs[a] * vecs[b]).sum() for a, b in zip(i, j)])
    per_pair = cross / np.sqrt(ss[i] * ss[j])
    return SimilarityReport(
        mean=float(per_pair.mean()),
        n_pairs=per_pair.shape[0],
        pairs=(i, j),
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


def non_ffn_params(h: int, H: int) -> int:
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


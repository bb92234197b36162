"""Bi-level routing, for the single router and the two-router variant.

One score vector per token drives both sparsity levels: a per-group
top-T_I mask picks which experts contribute to each group's weighted sum,
and per-component candidate selection (argmax over each component's R_O
group-score sums) picks which group's vector fills each concatenation
slot. The two masks are ANDed; exactly G_O*T_I experts survive per token.
``route_separate`` runs the same body with the candidate scores read from
a second router instead of the group sums.

All ties (group top-k, candidate argmax, final top-k) break to the lowest
index, which makes routing deterministic. Candidate sums are accumulated
in float64 so the argmax is stable against f32 summation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from finermoe.config import FineRConfig, derive
from finermoe.numerics import Matrix, matmul, softmax


@dataclass
class RoutingDecision:
    """Everything the routing pass decided for a batch of L tokens.

    indices holds each token's activated expert ids in ascending order;
    probs holds the (unrenormalized) scores at those positions, which are
    the weights used by the sparse weighted sum.
    """

    score: np.ndarray  # L x N
    group_score: np.ndarray  # L x n_groups x group_size (view of score)
    sum_mask: np.ndarray  # bool, L x n_groups x group_size
    cc_score: np.ndarray  # L x G_O x R_O, float64 group sums
    cc_act: np.ndarray  # L x G_O, selected candidate per component
    final_mask: np.ndarray  # bool, L x N
    indices: np.ndarray  # L x n_active, ascending expert ids
    probs: np.ndarray  # L x n_active, scores aligned with indices

    @property
    def n_tokens(self) -> int:
        return self.score.shape[0]

    @property
    def n_experts(self) -> int:
        return self.score.shape[1]


def score(x: Matrix, router: Matrix) -> np.ndarray:
    """Per-token softmax over the router logits of x @ router, as an L x N
    array: one per expert, or one per group for a separate-mode candidate
    router."""
    return softmax(matmul(x, router).a, axis=1)


def _top_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest entries along the last axis.

    Stable argsort of the negated values breaks ties toward lower indices.
    """
    order = np.argsort(-values, axis=-1, kind="stable")
    mask = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


def _route(score_arr: np.ndarray, cc_arr: np.ndarray | None, cfg: FineRConfig, name: str) -> RoutingDecision:
    """The routing body of both modes: the candidate scores are ``cc_arr``
    or, if it is None, the group sums of ``score_arr``, named ``name``."""
    dims = derive(cfg)
    L, N = score_arr.shape
    if N != dims.N:
        raise ValueError(f"{name} width {N} does not match expert count {dims.N}")
    if cc_arr is not None and cc_arr.shape != (L, dims.n_groups):
        raise ValueError(
            f"score_cc must be L x n_groups = {L}x{dims.n_groups}, got {cc_arr.shape}"
        )

    group_score = score_arr.reshape(L, dims.n_groups, dims.group_size)
    sum_mask = _top_k_mask(group_score, cfg.T_I)

    if cc_arr is None:
        cc_arr = group_score.astype(np.float64).sum(axis=-1)
    cc_score = cc_arr.astype(np.float64, copy=False).reshape(L, cfg.G_O, cfg.R_O)
    cc_act = np.argmax(cc_score, axis=-1)

    # Broadcast candidate selection over every expert of the chosen group.
    cc_mask_groups = np.zeros((L, cfg.G_O, cfg.R_O), dtype=bool)
    np.put_along_axis(cc_mask_groups, cc_act[:, :, None], True, axis=-1)
    cc_mask = np.repeat(
        cc_mask_groups.reshape(L, dims.n_groups, 1), dims.group_size, axis=2
    )

    final_mask = (sum_mask & cc_mask).reshape(L, dims.N)

    # Exactly n_active positions survive the AND, so the final top-k is the
    # surviving set itself; emit it in ascending expert order.
    survivors = final_mask.sum(axis=1)
    if not np.all(survivors == dims.n_active):
        raise AssertionError(
            f"routing produced {survivors.min()}..{survivors.max()} survivors per "
            f"token, expected exactly {dims.n_active}"
        )
    _, cols = np.nonzero(final_mask)
    indices = cols.reshape(L, dims.n_active)
    probs = np.take_along_axis(score_arr, indices, axis=1)

    return RoutingDecision(
        score=score_arr,
        group_score=group_score,
        sum_mask=sum_mask,
        cc_score=cc_score,
        cc_act=cc_act,
        final_mask=final_mask,
        indices=indices,
        probs=probs,
    )


def route(score_arr: np.ndarray, cfg: FineRConfig) -> RoutingDecision:
    """Run the single-router mechanism on an L x N score array: each
    component's candidate scores are its R_O groups' score sums."""
    return _route(score_arr, None, cfg, "score")


def route_separate(score_sum: np.ndarray, score_cc: np.ndarray, cfg: FineRConfig) -> RoutingDecision:
    """Two-router variant: expert activation and candidate selection read
    different score vectors, so the selected group's experts can carry low
    sum-router scores (the conflict this library's single-router design
    avoids). The candidate scores are score_cc, L x n_groups, and probs are
    taken from score_sum; everything else is ``route``'s body.
    """
    return _route(score_sum, score_cc, cfg, "score_sum")

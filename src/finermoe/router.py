"""Bi-level routing, for the single router and the two-router variant.

One score vector per token drives both sparsity levels, decided in order.
Each component first selects one of its R_O candidate groups (argmax of
the groups' score sums): the sparse concatenation. Then the top T_I
experts inside that group alone are activated: the sparse weighted sum.
So exactly G_O*T_I experts run per token. ``route_separate`` runs the
same body with the candidate scores read from a second router instead of
the group sums.

All ties (candidate argmax, top-T_I within a group) break to the lowest
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
    """What the routing pass decided for a batch of L tokens.

    cc_act holds each component's selected candidate; indices holds each
    token's activated expert ids in ascending order, T_I per component in
    component order; probs holds the (unrenormalized) scores at those
    positions, which are the weights used by the sparse weighted sum.
    """

    score: np.ndarray  # L x N
    cc_score: np.ndarray  # L x G_O x R_O, float64 candidate scores
    cc_act: np.ndarray  # L x G_O, selected candidate per component
    indices: np.ndarray  # L x n_active, ascending expert ids
    probs: np.ndarray  # L x n_active, scores aligned with indices

    @property
    def n_tokens(self) -> int:
        return self.score.shape[0]

    @property
    def n_experts(self) -> int:
        return self.score.shape[1]

    @property
    def final_mask(self) -> np.ndarray:
        """Bool L x N, True at each token's activated experts (built from indices)."""
        mask = np.zeros(self.score.shape, dtype=bool)
        np.put_along_axis(mask, self.indices, True, axis=1)
        return mask


def score(x: Matrix, router: Matrix) -> np.ndarray:
    """Per-token softmax over the router logits of x @ router, as an L x N
    array: one per expert, or one per group for a separate-mode candidate
    router."""
    return softmax(matmul(x, router).a, axis=1)


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

    groups = score_arr.reshape(L, dims.n_groups, dims.group_size)
    if cc_arr is None:
        cc_arr = groups.astype(np.float64).sum(axis=-1)
    cc_score = cc_arr.astype(np.float64, copy=False).reshape(L, cfg.G_O, cfg.R_O)
    cc_act = np.argmax(cc_score, axis=-1)

    # Each component's selected group, then that group's top T_I members
    # in ascending order.
    rows = np.arange(L)[:, None]
    selected = np.arange(cfg.G_O) * cfg.R_O + cc_act
    top = np.sort(np.argsort(-groups[rows, selected], axis=-1, kind="stable")[..., : cfg.T_I], axis=-1)
    indices = (selected[:, :, None] * dims.group_size + top).reshape(L, dims.n_active)
    probs = score_arr[rows, indices]

    return RoutingDecision(score=score_arr, cc_score=cc_score, cc_act=cc_act, indices=indices, probs=probs)


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

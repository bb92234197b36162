"""Brute-force references used as ground truth by the test suites.

Deliberately written with plain loops, full sorts, and a different
reduction order than the production path. Shares only the numeric
primitives (Matrix, silu) with the rest of the library, never the routing
or dispatch code it is checking.
"""

from __future__ import annotations

import numpy as np

from finermoe.config import FineRConfig, derive
from finermoe.experts import DenseFfnWeights
from finermoe.numerics import Matrix, silu
from finermoe.router import RoutingDecision


def dense_ffn_forward(x: Matrix, dense: DenseFfnWeights) -> Matrix:
    """Reference SwiGLU FFN forward.

    Loops column-by-column per token and accumulates every dot product in
    float64 (the production path batches rows and accumulates in the
    storage dtype), then rounds once back to the input dtype.
    """
    if x.cols != dense.h:
        raise ValueError(f"input width {x.cols} does not match FFN dim {dense.h}")
    w1 = dense.w1.a.astype(np.float64)
    wg = dense.wg.a.astype(np.float64)
    w2 = dense.w2.a.astype(np.float64)
    out = np.empty((x.rows, dense.h), dtype=np.float64)
    for t in range(x.rows):
        row = x.a[t].astype(np.float64)
        up = np.array([np.dot(row, w1[:, j]) for j in range(dense.H)])
        gate = np.array([np.dot(row, wg[:, j]) for j in range(dense.H)])
        inner = up * silu(gate)
        out[t] = [np.dot(inner, w2[:, j]) for j in range(dense.h)]
    return Matrix.wrap(np.ascontiguousarray(out, dtype=x.dtype))


def route_reference(arr: np.ndarray, cfg: FineRConfig) -> RoutingDecision:
    """Re-derivation of the routing decision by naive per-token enumeration.

    Independent of the router's candidate-first order: every group's
    winners come from a full sort, candidate selection from a linear scan
    over each component's group sums, and the selected groups' winners are
    collected and checked to number exactly n_active.
    """
    return _enumerate_routes(arr, None, cfg)


def route_separate_reference(score_sum: np.ndarray, score_cc: np.ndarray, cfg: FineRConfig) -> RoutingDecision:
    """``route_reference`` for the two-router variant: the candidate scan
    reads score_cc (L x n_groups) instead of the group sums."""
    return _enumerate_routes(score_sum, score_cc, cfg)


def _enumerate_routes(arr: np.ndarray, cc: np.ndarray | None, cfg: FineRConfig) -> RoutingDecision:
    dims = derive(cfg)
    L, N = arr.shape
    if N != dims.N:
        raise ValueError(f"score width {N} does not match expert count {dims.N}")

    cc_score = np.zeros((L, cfg.G_O, cfg.R_O), dtype=np.float64)
    cc_act = np.zeros((L, cfg.G_O), dtype=np.int64)
    indices = np.zeros((L, dims.n_active), dtype=np.int64)
    probs = np.zeros((L, dims.n_active), dtype=arr.dtype)

    for t in range(L):
        # Per-group winners: sort by (-score, index) so equal scores keep
        # the lower index first.
        winners: list[set] = []
        for g in range(dims.n_groups):
            members = [(float(arr[t, g * dims.group_size + m]), m) for m in range(dims.group_size)]
            ranked = sorted(members, key=lambda sm: (-sm[0], sm[1]))
            winners.append({m for _, m in ranked[: cfg.T_I]})

        # Per-component best candidate by linear scan of the candidate scores.
        for i in range(cfg.G_O):
            best_j, best_sum = 0, None
            for j in range(cfg.R_O):
                g = i * cfg.R_O + j
                if cc is None:
                    s = 0.0
                    for m in range(dims.group_size):
                        s += float(arr[t, g * dims.group_size + m])
                else:
                    s = float(cc[t, g])
                cc_score[t, i, j] = s
                if best_sum is None or s > best_sum:
                    best_j, best_sum = j, s
            cc_act[t, i] = best_j

        # Intersection, then verify the survivor count.
        activated = []
        for i in range(cfg.G_O):
            g = i * cfg.R_O + int(cc_act[t, i])
            activated.extend(g * dims.group_size + m for m in winners[g])
        if len(activated) != dims.n_active:
            raise AssertionError(
                f"token {t}: {len(activated)} survivors, expected {dims.n_active}"
            )
        activated.sort()
        indices[t] = activated
        probs[t] = [arr[t, k] for k in activated]

    return RoutingDecision(score=arr, cc_score=cc_score, cc_act=cc_act, indices=indices, probs=probs)

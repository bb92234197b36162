import time

import numpy as np
import pytest

from finermoe.analysis import (
    cost_report,
    expert_similarity,
    non_ffn_params,
    route_stats,
    scaled_params,
)
from finermoe.config import FineRConfig, baseline_preset, derive, with_updates
from finermoe.moe_layer import MoEModel, decide, sparse_experts_forward
from finermoe.numerics import Matrix, Rng, count_flops
from finermoe.router import RoutingDecision, route, score
from finermoe.upcycle import random_dense, upcycle

BASE_FULL = baseline_preset("FineRMoE-base")  # h=1536, H=8960

# (G_I, G_O) -> published full-model total params in billions at R_I=1, R_O=2.
PARAM_TABLE_B = {
    (2, 2): 5.63, (4, 2): 5.63, (4, 4): 8.72, (8, 2): 5.63, (8, 4): 8.72,
    (16, 2): 5.64, (16, 4): 8.72, (16, 8): 14.90, (32, 2): 5.64, (32, 4): 8.74,
    (32, 8): 14.92, (64, 2): 5.65, (64, 4): 8.76, (64, 8): 14.97,
}


def _two_expert_model(u: np.ndarray, v: np.ndarray) -> MoEModel:
    """A 2-expert model whose flattened experts are exactly u and v
    (each of length 2 * h * H_e + H_e * h_e at h=2, H_e=h_e=2: 12)."""
    model = MoEModel.zeros(FineRConfig(h=2, H=4, G_I=2, R_I=1, G_O=1, R_O=1, T_I=1))
    for k, w in enumerate((u, v)):
        model.experts.w1[k].flat = w[0:4]
        model.experts.wg[k].flat = w[4:8]
        model.experts.w2[k].flat = w[8:12]
    return model


class TestCosine:
    """The pairwise cosine inside expert_similarity, on one pair."""

    def test_self_similarity_is_exactly_one(self):
        v = Rng(1).normal(12).astype(np.float32)
        rep = expert_similarity(_two_expert_model(v, v))
        assert rep.n_pairs == 1
        assert rep.mean == 1.0

    def test_orthogonal_vectors(self):
        u, v = np.zeros(12), np.zeros(12)
        u[0], v[11] = 1.0, 1.0
        assert expert_similarity(_two_expert_model(u, v)).mean == 0.0


class TestExpertSimilarity:
    def test_replicated_experts_mean_exactly_one(self):
        cfg = baseline_preset("C32A2", h=16, H=32)
        model = upcycle(random_dense(16, 32, 3), cfg, 3)
        rep = expert_similarity(model)
        assert rep.mean == 1.0
        assert rep.n_pairs == 32 * 31 // 2

    def test_negated_expert_gives_exactly_minus_one(self):
        cfg = FineRConfig(h=16, H=32, G_I=2, R_I=1, G_O=1, R_O=1, T_I=1)
        model = upcycle(random_dense(16, 32, 7), cfg, 7)
        for a in (model.experts.w1, model.experts.wg, model.experts.w2):
            a[1] = -a[0]
        rep = expert_similarity(model)
        assert rep.n_pairs == 1
        assert rep.mean == -1.0

    def test_one_hot_experts_mean_zero(self):
        cfg = FineRConfig(h=2, H=8, G_I=4, R_I=1, G_O=1, R_O=1, T_I=1)
        pos = np.zeros((4, 2, 2), dtype=np.float32)
        for k in range(4):
            pos[k, k % 2, (k // 2) % 2] = 1.0
        model = MoEModel.zeros(cfg)
        model.experts.w1[:] = pos
        rep = expert_similarity(model)
        assert rep.mean == 0.0

    def test_a_zero_or_non_finite_expert_is_refused_by_name(self):
        cfg = baseline_preset("C32A2", h=16, H=32)
        with pytest.raises(ValueError, match="expert 0 has a zero or non-finite norm"):
            expert_similarity(MoEModel.zeros(cfg))
        model = upcycle(random_dense(16, 32, 8), cfg, 8)
        for bad in (0.0, np.nan, np.inf):
            model.experts.block[5] = bad
            with pytest.raises(ValueError, match="expert 5 has a zero or non-finite norm"):
                expert_similarity(model)


    def test_disjoint_slices_of_random_ffn_are_near_orthogonal(self):
        cfg = baseline_preset("S16A4", h=32, H=1024)
        model = upcycle(random_dense(32, 1024, 5), cfg, 5)
        rep = expert_similarity(model)
        assert abs(rep.mean) < 0.05
        assert rep.per_pair.shape == (16 * 15 // 2,)

    def test_needs_two_experts(self):
        cfg = FineRConfig(h=8, H=8)
        model = upcycle(random_dense(8, 8, 6), cfg, 6)
        with pytest.raises(ValueError, match="at least 2"):
            expert_similarity(model)


class TestRouteStats:
    def test_balanced_synthetic_counts(self):
        cfg = FineRConfig(h=8, H=16, G_I=4, R_I=1, G_O=2, R_O=1, T_I=1)
        dims = derive(cfg)
        s = np.full((4, dims.N), 1.0 / dims.N)
        idx = np.array([[t % 4, 4 + t % 4] for t in range(4)])
        d = RoutingDecision(
            score=s, cc_score=None, cc_act=None, indices=idx,
            probs=np.take_along_axis(s, idx, axis=1),
        )
        rep = route_stats(d, cfg)
        assert (rep.f == 1.0).all()
        assert rep.max_f == 1.0
        assert rep.counts.sum() == 4 * dims.n_active

    def test_all_to_one_routing(self):
        cfg = FineRConfig(h=8, H=16, G_I=8, R_I=1, G_O=1, R_O=1, T_I=2)
        dims = derive(cfg)
        s = np.full((6, dims.N), 1.0 / dims.N)
        idx = np.tile(np.array([[0, 1]]), (6, 1))
        d = RoutingDecision(
            score=s, cc_score=None, cc_act=None, indices=idx,
            probs=np.take_along_axis(s, idx, axis=1),
        )
        rep = route_stats(d, cfg)
        assert rep.f[0] == dims.N / dims.n_active

    def test_small_init_router_near_uniform_load(self):
        # Tie-broken near-uniform routing is index- and norm-biased; assert
        # only the loose band the seeded fixture lands in.
        cfg = baseline_preset("FineRMoE-base", h=256, H=512)
        model = upcycle(random_dense(256, 512, 0), cfg, 0)
        x = Rng(8).matrix(4096, 256)
        d = route(score(x, model.router), cfg)
        rep = route_stats(d, cfg)
        assert rep.counts.sum() == 4096 * 2
        assert 0.5 <= rep.max_f <= 2.0

    def test_stream_aggregation(self):
        cfg = FineRConfig(h=8, H=16, G_I=4, R_I=1, G_O=1, R_O=1, T_I=1)
        model = upcycle(random_dense(8, 16, 9), cfg, 9)
        parts = [route(score(Rng(s).matrix(32, 8), model.router), cfg) for s in (1, 2, 3)]
        whole = route_stats(parts, cfg)
        assert whole.n_tokens == 96
        assert whole.counts.sum() == 96


class TestCostReport:
    def test_degenerate_single_expert(self):
        rep = cost_report(FineRConfig(h=8, H=16))
        assert rep.activated_params == rep.total_params

    def test_doubling_r_o_doubles_sparse_params_only(self):
        cfg1 = FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=1, T_I=1)
        cfg2 = with_updates(cfg1, R_O=2)
        r1, r2 = cost_report(cfg1), cost_report(cfg2)
        d1 = derive(cfg1)
        per_expert = 2 * 16 * d1.H_e + d1.H_e * d1.h_e
        sparse1 = d1.N * per_expert
        # Expert params double; the only other growth is the wider router.
        assert (r2.total_params - r1.total_params) == sparse1 + 16 * d1.N
        assert r2.flops_sparse == r1.flops_sparse

    def test_activation_ratio_monotone_in_expansion(self):
        base = FineRConfig(h=32, H=64, G_I=4, R_I=1, G_O=2, R_O=1, T_I=1)
        for field in ("R_O", "R_I"):
            ratios = []
            for v in (1, 2, 4):
                rep = cost_report(with_updates(base, **{field: v}))
                ratios.append(rep.activated_params / rep.total_params)
            assert ratios[0] > ratios[1] > ratios[2], field

    def test_full_scale_base_matches_published_sizes(self):
        total, activated = scaled_params(BASE_FULL)
        assert abs(total - 5.64e9) / 5.64e9 < 0.02
        assert abs(activated - 1.85e9) / 1.85e9 < 0.02

    def test_full_scale_totals_across_grid(self):
        for (g_i, g_o), want_b in PARAM_TABLE_B.items():
            cfg = FineRConfig(h=1536, H=8960, G_I=g_i, R_I=1, G_O=g_o, R_O=2, T_I=1)
            total, _ = scaled_params(cfg)
            assert abs(total - want_b * 1e9) / (want_b * 1e9) < 0.02, (g_i, g_o)

    def test_non_ffn_constant_definition(self):
        # dense total - FFN stack + untied output embedding
        assert non_ffn_params(1536, 8960) == 1_543_714_304 - 28 * 3 * 1536 * 8960 + 151_936 * 1536


def _sparse_path_seconds(x: Matrix, models: dict, reps: int) -> dict:
    """Best-of-reps wall time of sparse_experts_forward alone (dispatch plan
    and experts; no router, no shared expert) for each model, after one
    warm-up call each. The models take turns, one rep each, so a change in
    host speed during the measurement reaches all of them alike. Timing
    noise is one-sided, so the minimum is the least-noisy estimate."""
    decisions = {key: decide(x, m) for key, m in models.items()}
    for key, m in models.items():
        sparse_experts_forward(x, m, decisions[key])
    best = dict.fromkeys(models, float("inf"))
    for _ in range(reps):
        for key, m in models.items():
            t0 = time.perf_counter()
            sparse_experts_forward(x, m, decisions[key])
            best[key] = min(best[key], time.perf_counter() - t0)
    return best


class TestTiming:
    def test_sparse_wall_time_scales_with_activation_count(self):
        # Doubling T_I at fixed expert size doubles the sparse path's work
        # exactly: its counted FLOPs are x2 and x4 of T_I=1's. Its wall
        # time must grow with T_I, and by no more than 30% over the work
        # (superlinear growth). It may grow by less: every call reads all
        # 8 experts' 3 MB of weights, more than L2 holds, and plans the
        # dispatch, costs that do not depend on T_I and that a faster
        # kernel leaves as a larger share. One remeasure absorbs
        # machine-load blips.
        base = FineRConfig(h=512, H=512, G_I=8, R_I=1, G_O=1, R_O=1, T_I=1)
        x = Rng(10).matrix(256, 512)
        models = {
            t_i: upcycle(random_dense(512, 512, 11), with_updates(base, T_I=t_i), 11)
            for t_i in (1, 2, 4)
        }
        flops = {}
        for t_i, model in models.items():
            decision = decide(x, model)
            with count_flops() as counter:
                sparse_experts_forward(x, model, decision)
            flops[t_i] = counter.flops
        assert flops[1] > 0 and all(flops[t] == t * flops[1] for t in (2, 4)), flops
        for attempt in range(2):
            times = _sparse_path_seconds(x, models, reps=7)
            in_band = times[1] < times[2] < times[4] and all(times[t] / times[1] / t <= 1.3 for t in (2, 4))
            if in_band:
                break
        assert in_band, times

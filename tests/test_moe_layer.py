import numpy as np
import pytest

from finermoe.config import FineRConfig, baseline_preset, derive, preset_names, with_updates
from finermoe.experts import ExpertStack, shared_forward, swiglu
from finermoe.moe_layer import (
    MoEModel,
    build_dispatch_plan,
    forward,
    forward_forced,
    named_parameters,
    sparse_experts_forward,
)
from finermoe.numerics import Matrix, Rng, softmax
from finermoe.router import route, score
from finermoe.upcycle import random_dense, upcycle

TOY = FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1)


def _model(cfg=TOY, seed=0):
    return upcycle(random_dense(cfg.h, cfg.H, seed), cfg, seed)


def _decision(x, model):
    return route(score(x, model.router), model.cfg)


def _expert(model, k):
    """Expert k's w1, wg and w2: no-copy views of the model's stacks."""
    return (Matrix.wrap(s[k]) for s in (model.experts.w1, model.experts.wg, model.experts.w2))


class TestDispatchPlan:
    def test_single_token(self):
        model = _model()
        x = Rng(1).matrix(1, TOY.h)
        d = _decision(x, model)
        plan = build_dispatch_plan(d)
        assert plan.n_pairs == model.dims.n_active
        assert sorted(plan.tokens_by_expert.tolist()) == [0] * model.dims.n_active

    def test_inverse_composes_to_identity(self):
        model = _model(seed=3)
        x = Rng(2).matrix(9, TOY.h)
        plan = build_dispatch_plan(_decision(x, model))
        assert np.array_equal(plan.inverse[plan.perm], np.arange(plan.n_pairs))
        assert np.array_equal(plan.perm[plan.inverse], np.arange(plan.n_pairs))
        assert plan.n_pairs == 9 * model.dims.n_active

    def test_shared_expert_batch_keeps_token_order(self):
        # Two tokens forced onto the same experts: group top-k and candidate
        # argmax see identical score rows, so both tokens pick expert set {0, ...}.
        cfg = with_updates(TOY, T_I=2)
        dims = derive(cfg)
        s = np.zeros((2, dims.N), dtype=np.float32)
        s[:, 5] = 0.5
        s[:, 6] = 0.4
        d = route(s, cfg)
        plan = build_dispatch_plan(d)
        for k in (5, 6):
            assert plan.tokens_by_expert[plan.offsets[k] : plan.offsets[k + 1]].tolist() == [0, 1]

    def test_permutation_round_trips_payload(self):
        model = _model(seed=4)
        x = Rng(5).matrix(7, TOY.h)
        plan = build_dispatch_plan(_decision(x, model))
        payload = Rng(6).matrix(plan.n_pairs, 3).a
        assert np.array_equal(payload[plan.perm][plan.inverse], payload)


class TestSparseForward:
    def test_single_expert_groups_scale_expert_output(self):
        # T_I=1: each selected component is score * swiglu.
        model = _model(seed=7)
        x = Rng(8).matrix(4, TOY.h)
        d = _decision(x, model)
        out = sparse_experts_forward(x, model, d).out
        dims = model.dims
        for t in range(4):
            row = Matrix.wrap(x.a[t : t + 1].copy())
            for i in range(TOY.G_O):
                g = i * TOY.R_O + int(d.cc_act[t, i])
                (k,) = [int(k) for k in d.indices[t] if int(k) // dims.group_size == g]
                want = d.score[t, k] * swiglu(row, *_expert(model, k)).out.a[0]
                got = out.a[t, i * dims.h_e : (i + 1) * dims.h_e]
                assert np.allclose(got, want, atol=1e-7)

    def test_unselected_candidates_never_contribute(self):
        model = _model(seed=9)
        x = Rng(10).matrix(6, TOY.h)
        d = _decision(x, model)
        base = sparse_experts_forward(x, model, d).out
        dims = model.dims
        zeroed = MoEModel(
            cfg=model.cfg,
            shared=model.shared,
            experts=ExpertStack(*(a.copy() for a in (model.experts.w1, model.experts.wg, model.experts.w2))),
            router=model.router,
        )
        selected = set()
        for t in range(6):
            for i in range(TOY.G_O):
                selected.add(i * TOY.R_O + int(d.cc_act[t, i]))
        for k in range(dims.N):
            if k // dims.group_size not in selected:
                zeroed.experts.w1[k] = 0
                zeroed.experts.wg[k] = 0
                zeroed.experts.w2[k] = 0
        again = sparse_experts_forward(x, zeroed, d).out
        assert base.a.tobytes() == again.a.tobytes()

    def test_matches_naive_token_loop_bitwise(self):
        cfg = with_updates(TOY, T_I=2, R_O=1)
        model = _model(cfg, seed=11)
        dims = model.dims
        x = Rng(12).matrix(8, cfg.h)
        d = _decision(x, model)
        got = sparse_experts_forward(x, model, d).out

        naive = np.zeros((8, cfg.h), dtype=np.float32)
        for t in range(8):
            row = Matrix.wrap(x.a[t : t + 1].copy())
            cand = np.zeros((dims.n_groups, dims.h_e), dtype=np.float32)
            for k in d.indices[t]:  # ascending, matching the dispatch order
                k = int(k)
                cand[k // dims.group_size] += d.score[t, k] * swiglu(row, *_expert(model, k)).out.a[0]
            for i in range(cfg.G_O):
                g = i * cfg.R_O + int(d.cc_act[t, i])
                naive[t, i * dims.h_e : (i + 1) * dims.h_e] = cand[g]
        assert got.a.tobytes() == naive.tobytes()


class TestForward:
    def test_output_shape_restores_hidden_dim(self):
        for g_o in (1, 2, 4):
            cfg = FineRConfig(h=16, H=32, G_I=2, R_I=1, G_O=g_o, R_O=2, T_I=1)
            model = _model(cfg, seed=15)
            out = forward(Rng(16).matrix(5, 16), model)
            assert out.y.shape == (5, 16)

    def test_zero_experts_leave_shared_only(self):
        model = _model(seed=17)
        model.experts.w1[:] = 0
        model.experts.wg[:] = 0
        model.experts.w2[:] = 0
        x = Rng(18).matrix(4, TOY.h)
        assert forward(x, model).y.a.tobytes() == shared_forward(x, model.shared).out.a.tobytes()

    def test_no_share_zero_experts_is_zero(self):
        cfg = with_updates(TOY, share_expert=False)
        model = _model(cfg, seed=19)
        model.experts.w2[:] = 0
        assert not forward(Rng(20).matrix(3, cfg.h), model).y.a.any()

    def test_identity_concat_proj_is_noop(self):
        cfg = with_updates(TOY, concat_proj=True)
        model = _model(cfg, seed=21)
        assert model.concat_proj is not None
        plain = MoEModel(
            cfg=with_updates(cfg, concat_proj=False),
            shared=model.shared,
            experts=model.experts,
            router=model.router,
        )
        x = Rng(22).matrix(4, cfg.h)
        assert forward(x, model).y.a.tobytes() == forward(x, plain).y.a.tobytes()

    def test_repeat_runs_bit_identical(self):
        model = _model(seed=25)
        x = Rng(26).matrix(6, TOY.h)
        assert forward(x, model).y.a.tobytes() == forward(x, model).y.a.tobytes()

    def test_reduces_to_conventional_topk_moe(self):
        # G_O = R_O = 1: one group, top-T_I weighted sum plus shared expert.
        for seed, t_i in ((27, 2), (41, 1), (43, 3)):
            cfg = FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=1, R_O=1, T_I=t_i)
            model = _model(cfg, seed=seed).astype(np.float64)
            x = Rng(seed + 1).matrix(5, cfg.h, dtype=np.float64)
            got = forward(x, model).y.a

            # Directly-written conventional reference.
            logits = x.a @ model.router.a
            probs = softmax(logits, axis=1)
            want = np.zeros((5, cfg.h))
            for t in range(5):
                order = np.argsort(-probs[t], kind="stable")[: cfg.T_I]
                row = Matrix.wrap(x.a[t : t + 1].copy())
                for k in sorted(order.tolist()):
                    want[t] += probs[t, k] * swiglu(row, *_expert(model, k)).out.a[0]
                want[t] += shared_forward(row, model.shared).out.a[0]
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12), (seed, t_i)

    def test_input_width_checked(self):
        model = _model(seed=29)
        with pytest.raises(ValueError, match="hidden dim"):
            forward(Rng(30).matrix(2, 7), model)


class TestForwardForced:
    def test_zero_input(self):
        model = _model(seed=31)
        cfg = with_updates(TOY, share_expert=False)
        model = _model(cfg, seed=31)
        assert not forward_forced(Matrix.wrap(np.zeros((2, cfg.h), np.float32)), model).a.any()

    def test_candidate_zero_only(self):
        # Zeroing every non-candidate-0 expert must not change the forced path.
        cfg = with_updates(TOY, share_expert=False)
        model = _model(cfg, seed=32)
        x = Rng(33).matrix(4, cfg.h)
        base = forward_forced(x, model).a.tobytes()
        dims = model.dims
        for k in range(dims.N):
            g = k // dims.group_size
            if g % cfg.R_O != 0:
                model.experts.w2[k] = 0
        assert forward_forced(x, model).a.tobytes() == base

    @pytest.mark.parametrize("L", [1, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", preset_names())
    def test_equals_the_per_expert_sum_bitwise(self, name, dtype, L):
        # The bypass as one swiglu call per expert: from zeros, add
        # each component's candidate-0 experts in ascending index, then
        # concatenate and add the shared expert.
        cfg = baseline_preset(name, h=16, H=64)
        model = _model(cfg, seed=36)
        for i, (_, p) in enumerate(named_parameters(model)):
            p += Rng(37 + i).matrix(*p.shape, std=0.05).a
        model = model.astype(dtype)
        x = Rng(38).matrix(L, cfg.h, dtype=dtype)
        dims = model.dims
        parts = []
        for i in range(cfg.G_O):
            g = i * cfg.R_O
            acc = np.zeros((L, dims.h_e), dtype=dtype)
            for k in range(g * dims.group_size, (g + 1) * dims.group_size):
                acc += swiglu(x, *_expert(model, k)).out.a
            parts.append(acc)
        want = np.concatenate(parts, axis=1)
        if model.shared is not None:
            want = want + shared_forward(x, model.shared).out.a
        got = forward_forced(x, model).a
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_flop_accounting_matches_formula(self):
        from finermoe.analysis import cost_report
        from finermoe.numerics import count_flops

        model = _model(seed=34)
        x = Rng(35).matrix(6, TOY.h)
        with count_flops() as c:
            forward(x, model)
        rep = cost_report(TOY)
        assert c.flops == 6 * rep.flops_per_token

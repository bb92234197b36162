import numpy as np
import pytest

from finermoe import experts, loss_grad, moe_layer
from finermoe.analysis import cost_report
from finermoe.config import FineRConfig, baseline_preset, derive, preset_names, with_updates
from finermoe.loss_grad import (
    backward,
    balance_loss,
    balance_loss_fn,
    balance_loss_score_grad,
    central_difference,
    LossFn,
    fd_check,
    mean_squared_output_loss,
)
from finermoe.moe_layer import decide, forward, forward_forced, named_parameters, sparse_experts_forward
from finermoe.numerics import Matrix, Rng, count_flops, matmul
from finermoe.router import RoutingDecision, route, score
from finermoe.upcycle import random_dense, upcycle

TOY = FineRConfig(h=8, H=16, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1)


def _model(cfg=TOY, seed=0, std=0.3):
    return upcycle(random_dense(cfg.h, cfg.H, seed, std=std), cfg, seed)


def _synthetic_decision(score_arr, indices):
    indices = np.asarray(indices, dtype=np.int64)
    return RoutingDecision(
        score=score_arr,
        group_score=None,
        sum_mask=None,
        cc_score=None,
        cc_act=None,
        final_mask=None,
        indices=indices,
        probs=np.take_along_axis(score_arr, indices, axis=1),
    )


class TestBalanceLoss:
    def test_uniform_balanced_gives_alpha(self):
        n, a, tokens = 128, 2, 64
        s = np.full((tokens, n), 1.0 / n)
        idx = np.array([[(a * t) % n, (a * t + 1) % n] for t in range(tokens)])
        cfg = FineRConfig(h=8, H=64, G_I=64, R_I=1, G_O=2, R_O=1, T_I=1)
        rep = balance_loss(_synthetic_decision(s, idx), cfg, alpha=0.001)
        assert (rep.f == 1.0).all()
        assert abs(rep.loss - 0.001) < 1e-9

    def test_all_to_one_gives_alpha_n(self):
        n, tokens = 16, 8
        s = np.zeros((tokens, n))
        s[:, 0] = 1.0
        cfg = FineRConfig(h=8, H=16, G_I=16, R_I=1, G_O=1, R_O=1, T_I=1)
        rep = balance_loss(_synthetic_decision(s, np.zeros((tokens, 1), dtype=int)), cfg)
        assert rep.f[0] == n
        assert rep.P[0] == 1.0
        assert rep.loss == 0.001 * n

    def test_single_token_indicator_arithmetic(self):
        cfg = FineRConfig(h=8, H=8, G_I=2, R_I=1, G_O=2, R_O=1, T_I=1)
        dims = derive(cfg)
        s = np.full((1, dims.N), 1.0 / dims.N)
        rep = balance_loss(_synthetic_decision(s, [[0, 2]]), cfg)
        assert set(np.unique(rep.f)) == {0.0, dims.N / dims.n_active}

    def test_load_sums_to_n(self):
        cfg = FineRConfig(h=8, H=8, G_I=2, R_I=2, G_O=2, R_O=2, T_I=2)
        model = _model(cfg, seed=1)
        x = Rng(2).matrix(16, cfg.h)
        d = route(score(x, model.router), cfg)
        rep = balance_loss(d, cfg)
        assert rep.f.sum() == derive(cfg).N
        assert abs(rep.P.sum() - 1.0) < 1e-6
        # Every activated expert carries f >= N/(A*L), so the loss is
        # bounded below by that multiple of the activated score mass.
        dims = derive(cfg)
        activated = np.unique(d.indices)
        floor = 0.001 * dims.N / (dims.n_active * 16) * rep.P[activated].sum()
        assert rep.loss >= floor >= 0.0

    def test_rejects_empty_stream(self):
        cfg = FineRConfig(h=8, H=8)
        s = np.zeros((0, 1))
        with pytest.raises(ValueError):
            balance_loss(_synthetic_decision(s, np.zeros((0, 1), dtype=int)), cfg)

    def test_score_grad_is_alpha_f_over_l(self):
        cfg = FineRConfig(h=8, H=8, G_I=2, R_I=1, G_O=2, R_O=1, T_I=1)
        model = _model(cfg, seed=3)
        x = Rng(4).matrix(8, cfg.h)
        d = route(score(x, model.router), cfg)
        rep = balance_loss(d, cfg)
        g = balance_loss_score_grad(d, cfg)
        assert np.allclose(g, 0.001 * rep.f / 8)


class TestBackward:
    def test_zero_upstream_zero_gradients(self):
        model = _model(seed=5)
        x = Rng(6).matrix(4, TOY.h)
        out = forward(x, model)
        g = backward(model, Matrix.wrap(np.zeros((4, TOY.h), np.float32)), out)
        for name, grad in named_parameters(g.d_model):
            assert not grad.any(), name
        assert not g.d_x.a.any()

    def test_inactive_experts_get_zero_gradient(self):
        model = _model(seed=7)
        x = Rng(8).matrix(4, TOY.h)
        out = forward(x, model)
        g = backward(model, Rng(9).matrix(4, TOY.h), out)
        active = set(out.decision.indices.ravel().tolist())
        for k in range(model.dims.N):
            touched = g.d_model.experts.w1[k].any() or g.d_model.experts.w2[k].any()
            assert touched == (k in active), k

    def test_single_expert_w2_gradient_formula(self):
        # One token, T_I=1, single component: dW2 = inner^T (upstream * w).
        cfg = FineRConfig(h=8, H=16, G_I=2, R_I=1, G_O=1, R_O=2, T_I=1)
        model = _model(cfg, seed=10).astype(np.float64)
        x = Rng(11).matrix(1, cfg.h, dtype=np.float64)
        out = forward(x, model)
        (k,) = out.decision.indices[0].tolist()
        upstream = Rng(12).matrix(1, cfg.h, dtype=np.float64)
        g = backward(model, upstream, out)

        up = x.a @ model.experts.w1[k]
        gate = x.a @ model.experts.wg[k]
        from finermoe.numerics import silu as _silu

        inner = up * _silu(gate)
        w = out.decision.score[0, k]
        want = inner.T @ (upstream.a * w)
        assert np.allclose(g.d_model.experts.w2[k], want, rtol=1e-10)

    def test_separate_mode_cc_router_gradient_is_zero(self):
        cfg = with_updates(TOY, router_mode="separate")
        model = _model(cfg, seed=13)
        x = Rng(14).matrix(4, cfg.h)
        out = forward(x, model)
        g = backward(model, Rng(15).matrix(4, cfg.h), out)
        assert not g.d_model.router_cc.a.any()
        assert g.d_model.router.a.any()

    def test_upstream_shape_checked(self):
        model = _model(seed=16)
        x = Rng(17).matrix(4, TOY.h)
        out = forward(x, model)
        with pytest.raises(ValueError, match="upstream"):
            backward(model, Matrix.wrap(np.zeros((4, 3), np.float32)), out)


def _grid_cfg(name, mode, proj, h=16, H=64):
    """A preset, or a config with T_I, G_O and R_O > 1, at small dims."""
    if name == "G4x2_2x2_T3":
        cfg = FineRConfig(h=h, H=H, G_I=4, R_I=2, G_O=2, R_O=2, T_I=3)
    else:
        cfg = baseline_preset(name, h=h, H=H)
    return with_updates(cfg, router_mode=mode, concat_proj=proj)


GRID = pytest.mark.parametrize(
    "name, mode, proj, dtype",
    [
        (name, mode, proj, dtype)
        for name in [*preset_names(), "G4x2_2x2_T3"]
        for mode in ("single", "separate")
        for proj in (False, True)
        for dtype in (np.float32, np.float64)
    ],
)


def _grid_model(cfg, dtype):
    """Perturbed off the upcycled point, so no gradient is zero by symmetry."""
    model = _model(cfg, seed=40)
    for i, (_, p) in enumerate(named_parameters(model)):
        p += Rng(41 + i).matrix(*p.shape, std=0.01).a
    return model.astype(dtype)


def _grad_bytes(g):
    return [(name, p.tobytes()) for name, p in named_parameters(g.d_model)]


class TestInputGradOff:
    @GRID
    def test_weight_gradients_unchanged(self, name, mode, proj, dtype):
        cfg = _grid_cfg(name, mode, proj)
        model = _grid_model(cfg, dtype)
        x = Rng(50).matrix(10, cfg.h, dtype=dtype)
        out = forward(x, model)
        upstream = Rng(51).matrix(10, cfg.h, dtype=dtype)
        d_score = balance_loss_score_grad(out.decision, cfg, 0.01)
        full = backward(model, upstream, out, d_score_extra=d_score)
        weights_only = backward(model, upstream, out, d_score_extra=d_score, input_grad=False)
        assert weights_only.d_x is None
        assert full.d_x is not None
        assert _grad_bytes(weights_only) == _grad_bytes(full)

    @GRID
    def test_balance_loss_grads_are_backward_with_zero_upstream(self, name, mode, proj, dtype):
        # balance_loss_fn().grads runs only the router tail; every byte
        # equals the full backward of a zero upstream plus the score term.
        cfg = _grid_cfg(name, mode, proj)
        model = _grid_model(cfg, dtype)
        x = Rng(52).matrix(10, cfg.h, dtype=dtype)
        out = forward(x, model)
        d_score = balance_loss_score_grad(out.decision, cfg, 0.01)
        want = backward(model, Matrix.wrap(np.zeros((10, cfg.h), dtype)), out, d_score_extra=d_score)
        got = balance_loss_fn(0.01).grads(x, model)
        assert _grad_bytes(got) == _grad_bytes(want)
        assert got.d_x.a.tobytes() == want.d_x.a.tobytes()


@pytest.mark.parametrize(
    "model_dtype, x_dtype",
    [(np.float64, np.float32), (np.float32, np.float64)],
    ids=["f64-model", "f32-model"],
)
@pytest.mark.parametrize("proj", [False, True], ids=["no-proj", "proj"])
@pytest.mark.parametrize("share", [False, True], ids=["no-shared", "shared"])
@pytest.mark.parametrize("mode", ["single", "separate"])
def test_a_mixed_dtype_is_refused_naming_both(mode, share, proj, model_dtype, x_dtype):
    # A call runs in one dtype: an input of the other dtype than the model,
    # or an upstream of the other dtype than its forward, is refused by the
    # first product that meets it, with both dtypes named.
    cfg = with_updates(TOY, router_mode=mode, share_expert=share, concat_proj=proj)
    model = _model(cfg, seed=60).astype(model_dtype)
    both = "float32.*float64|float64.*float32"
    other = Rng(61).matrix(5, cfg.h, dtype=x_dtype)
    for run in (forward, forward_forced):
        with pytest.raises(ValueError, match=both):
            run(other, model)
    out = forward(other.astype(model_dtype), model)
    with pytest.raises(ValueError, match=both):
        backward(model, Rng(62).matrix(5, cfg.h, dtype=x_dtype), out)


class TestConcatProjBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["single", "separate"])
    def test_projection_gradient_without_rerunning_the_sparse_path(self, mode, dtype, monkeypatch):
        # d concat_proj = (sparse output)^T upstream, read from the forward
        # tape byte for byte; backward reruns no part of the forward.
        cfg = FineRConfig(h=8, H=16, G_I=4, R_I=2, G_O=2, R_O=2, T_I=3, router_mode=mode, concat_proj=True)
        model = _model(cfg, seed=18)
        model.concat_proj.a[:] = Rng(19).matrix(cfg.h, cfg.h).a
        model = model.astype(dtype)
        x = Rng(20).matrix(6, cfg.h, dtype=dtype)
        upstream = Rng(21).matrix(6, cfg.h, dtype=dtype)
        sparse = sparse_experts_forward(x, model, decide(x, model)).out
        want = matmul(Matrix.wrap(np.ascontiguousarray(sparse.a.T)), upstream)
        out = forward(x, model)

        calls = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for mod in (moe_layer, loss_grad, experts):
            for name in ("sparse_experts_forward", "build_dispatch_plan", "swiglu", "shared_forward", "decide"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, spy(getattr(mod, name)))
        g = backward(model, upstream, out)
        assert not calls
        assert g.d_model.concat_proj.a.tobytes() == want.a.tobytes()


class TestBackwardFlops:
    """Backward runs the six gradient matmuls of each SwiGLU, the router's
    two and the projection's two, never a forward one again: exactly twice
    the forward's FLOPs, less the candidate-router scoring, which has no
    gradient matmul."""

    @staticmethod
    def _counts(cfg, L, dtype, input_grad=True):
        model = _model(cfg, seed=30).astype(dtype)
        x = Rng(31).matrix(L, cfg.h, dtype=dtype)
        with count_flops() as fwd:
            out = forward(x, model)
        with count_flops() as bwd:
            backward(model, Rng(32).matrix(L, cfg.h, dtype=dtype), out, input_grad=input_grad)
        return fwd.flops, bwd.flops

    @GRID
    def test_backward_is_twice_forward(self, name, mode, proj, dtype):
        cfg = _grid_cfg(name, mode, proj)
        L = 12
        fwd, bwd = self._counts(cfg, L, dtype)
        assert fwd == cost_report(cfg).flops_per_token * L
        cc_scoring = 2 * L * cfg.h * derive(cfg).n_groups if mode == "separate" else 0
        assert bwd == 2 * (fwd - cc_scoring)

    @pytest.mark.parametrize("name, want", [("NVShard", 406_847_488), ("FineRMoE-base", 220_200_960)])
    def test_counts_at_benchmark_dims(self, name, want):
        fwd, bwd = self._counts(_grid_cfg(name, "single", False, h=256, H=1024), 64, np.float32)
        assert bwd == 2 * fwd == want

    @pytest.mark.parametrize("name, want", [("NVShard", 270_532_608), ("FineRMoE-base", 144_703_488)])
    def test_counts_without_input_grad_at_benchmark_dims(self, name, want):
        # Each SwiGLU drops its two d_x matmuls, the router its one.
        _, bwd = self._counts(_grid_cfg(name, "single", False, h=256, H=1024), 64, np.float32, input_grad=False)
        assert bwd == want

    @GRID
    def test_balance_loss_grads_count_only_the_router_gradient(self, name, mode, proj, dtype):
        # Routing plus the router weight's and the input's gradient matmuls;
        # no expert runs.
        cfg = _grid_cfg(name, mode, proj)
        model = _model(cfg, seed=33).astype(dtype)
        x = Rng(34).matrix(12, cfg.h, dtype=dtype)
        with count_flops() as routing:
            decide(x, model)
        with count_flops() as grads:
            balance_loss_fn().grads(x, model)
        assert grads.flops == routing.flops + 2 * (2 * 12 * cfg.h * derive(cfg).N)


class TestFiniteDifferences:
    def test_quadratic_self_test(self):
        f = lambda v: 0.5 * v * v - 3.0 * v + 1.0
        for x0 in (-2.0, 0.0, 1.75):
            fd = central_difference(f, x0, 1e-6)
            want = x0 - 3.0
            assert abs(fd - want) / max(abs(want), 1e-9) < 1e-9

    def test_layer_gradients_match_fd(self):
        model = _model(seed=18)
        x = Rng(19).matrix(4, TOY.h)
        rep = fd_check(x, model, mean_squared_output_loss(), seed=20, n_coords=48)
        assert rep.n_checked > 0
        assert rep.max_rel_err < 1e-4

    def test_balance_loss_gradient_matches_fd(self):
        model = _model(seed=21)
        x = Rng(22).matrix(4, TOY.h)
        rep = fd_check(x, model, balance_loss_fn(), seed=23, n_coords=48)
        assert rep.n_checked > 0
        assert rep.max_rel_err < 1e-4

    def test_variant_gradients_match_fd(self):
        for kw, seed in [
            (dict(router_mode="separate"), 24),
            (dict(concat_proj=True), 25),
            (dict(share_expert=False), 26),
        ]:
            cfg = with_updates(TOY, **kw)
            model = _model(cfg, seed=seed)
            x = Rng(seed + 100).matrix(3, cfg.h)
            rep = fd_check(x, model, mean_squared_output_loss(), seed=seed, n_coords=32)
            assert rep.max_rel_err < 1e-4, kw

    def test_a_raising_loss_leaves_an_f64_callers_model_and_input_unchanged(self):
        # An f64 model's astype(np.float64) is the model itself, so fd_check
        # nudges the caller's own weights and must undo the nudge it is in
        # when the loss raises: here on its third call, inside the second
        # checked coordinate's central difference.
        model = _model(seed=30).astype(np.float64)
        x = Rng(31).matrix(4, TOY.h).astype(np.float64)
        before = [p.tobytes() for _, p in named_parameters(model)] + [x.a.tobytes()]
        loss = mean_squared_output_loss()
        calls = []

        def value(x, model):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third call")
            return loss.value(x, model)

        with pytest.raises(RuntimeError, match="third call"):
            fd_check(x, model, LossFn(value=value, grads=loss.grads), seed=32, n_coords=8)
        assert [p.tobytes() for _, p in named_parameters(model)] + [x.a.tobytes()] == before

    def test_unstable_coordinates_are_reported_not_failed(self):
        # A near-tie between the two candidates of a component flips under
        # perturbation; the harness must skip such router coordinates.
        cfg = FineRConfig(h=2, H=4, G_I=2, R_I=1, G_O=1, R_O=2, T_I=1)
        model = _model(cfg, seed=27).astype(np.float64)
        model.router.a[:] = 0.0  # exact ties: any router nudge flips routing
        x = Rng(28).matrix(2, cfg.h)
        rep = fd_check(x, model, mean_squared_output_loss(), seed=29, n_coords=64)
        assert rep.n_skipped > 0
        assert all(name == "x" or name.startswith("router") for name, _ in rep.skipped)
        assert rep.max_rel_err < 1e-4

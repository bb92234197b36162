"""Load-balancing loss and manual reverse-mode gradients for the layer.

The balance loss follows the usual auxiliary-loss treatment: the load
factors f are constants (no gradient through the discrete activation
counts), only the mean scores P are differentiated. The layer backward
likewise treats every mask/top-k selection as constant and differentiates
through the shared expert, the activated experts, the weighted-sum
weights, and the softmax router scores.

fd_check verifies the analytic gradients against central finite
differences, skipping coordinates whose perturbation flips a routing
decision (a derivative across a discrete boundary is meaningless).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from finermoe.analysis import route_stats
from finermoe.config import FineRConfig, expert_component
from finermoe.experts import DenseFfnWeights, ExpertStack, SwiGLUTape
from finermoe.moe_layer import LayerOutput, MoEModel, decide, forward, named_parameters
from finermoe.numerics import Matrix, Rng, dsilu, matmul, silu
from finermoe.router import RouterState, RoutingDecision


@dataclass
class BalanceLossReport:
    f: np.ndarray  # per-expert load factor, mean 1 under perfect balance
    P: np.ndarray  # per-expert mean routing score
    loss: float
    alpha: float


def balance_loss(decision: RoutingDecision, cfg: FineRConfig, alpha: float = 0.001) -> BalanceLossReport:
    """alpha * sum_i f_i P_i with f_i the load factor of expert i from
    ``route_stats`` and P_i the mean (pre-mask) softmax score of expert i."""
    f = route_stats(decision, cfg).f
    P = decision.score.astype(np.float64).mean(axis=0)
    loss = alpha * float((f * P).sum())
    return BalanceLossReport(f=f, P=P, loss=loss, alpha=alpha)


def balance_loss_score_grad(decision: RoutingDecision, cfg: FineRConfig, alpha: float = 0.001) -> np.ndarray:
    """d(balance loss)/d(score), with f treated as constant: alpha * f_i / L."""
    rep = balance_loss(decision, cfg, alpha)
    L = decision.n_tokens
    return np.broadcast_to(rep.alpha * rep.f / L, decision.score.shape).copy()


@dataclass
class LayerGradients:
    """Weight gradients in the model's own layout, so named_parameters pairs
    d_model with the model name for name, plus the input gradient."""

    d_model: MoEModel
    d_x: Matrix


def _swiglu_backward(x_rows: Matrix, w, t: SwiGLUTape, d_out: np.ndarray):
    """SwiGLU chain rule on a forward tape. Returns (dW1, dWg, dW2, d_x_rows)."""
    d_out_m = Matrix.wrap(np.ascontiguousarray(d_out))
    d_w2 = matmul(t.inner.transpose(), d_out_m)
    d_inner = matmul(d_out_m, w.w2.transpose()).a
    d_up = Matrix.wrap(d_inner * silu(t.gate))
    d_gate = Matrix.wrap(d_inner * t.up * dsilu(t.gate))
    xt = x_rows.transpose()
    d_w1 = matmul(xt, d_up)
    d_wg = matmul(xt, d_gate)
    d_x = matmul(d_up, w.w1.transpose()).a + matmul(d_gate, w.wg.transpose()).a
    return d_w1, d_wg, d_w2, d_x


def backward(
    model: MoEModel,
    upstream: Matrix,
    out: LayerOutput,
    d_score_extra: np.ndarray | None = None,
) -> LayerGradients:
    """Exact gradients of (upstream . y) plus any extra score-level term
    (e.g. the balance loss) with respect to every weight and the input,
    for ``out = forward(x, model)`` taken before the weights last changed.

    The input, the dispatch plan and every expert's intermediates come from
    ``out.tape``, so only the gradient matmuls run. Discrete selections are
    constants; non-activated experts get zero gradient, and in
    separate-router mode the candidate router is selection-only, so its
    gradient is identically zero.
    """
    cfg, dims = model.cfg, model.dims
    tape, decision = out.tape, out.decision
    x = tape.x
    dtype = x.dtype
    L = x.rows
    if upstream.shape != (L, cfg.h):
        raise ValueError(f"upstream must be {L}x{cfg.h}, got {upstream.shape}")

    d_x = np.zeros((L, cfg.h), dtype=dtype)
    d_score = np.zeros((L, dims.N), dtype=np.float64)

    # Projection (if any) sits between the combine and the output add.
    d_proj = None
    if model.concat_proj is not None:
        d_cat = matmul(upstream, model.concat_proj.transpose()).a
        d_proj = matmul(tape.sparse.out.transpose(), upstream)
    else:
        d_cat = upstream.a

    d_shared = None
    if model.shared is not None:
        d_w1, d_wg, d_w2, d_x_s = _swiglu_backward(x, model.shared, tape.shared, upstream.a)
        d_shared = DenseFfnWeights(d_w1, d_wg, d_w2)
        d_x += d_x_s

    # Sparse path, one activated expert batch at a time; inactive experts
    # keep a zero gradient.
    plan = tape.sparse.plan
    d_experts = ExpertStack.zeros(dims.N, cfg.h, dims.H_e, dims.h_e, dtype)
    for k, t in enumerate(tape.sparse.experts):
        if t is None:
            continue
        s, e = plan.offsets[k], plan.offsets[k + 1]
        batch_tokens = plan.tokens_by_expert[s:e]
        comp = expert_component(cfg, k)
        x_rows = Matrix.wrap(tape.sparse.x_rows[s:e])
        u_rows = d_cat[batch_tokens, comp * dims.h_e : (comp + 1) * dims.h_e]
        w_rows = decision.score[batch_tokens, k].astype(dtype)

        d_w1, d_wg, d_w2, d_x_rows = _swiglu_backward(x_rows, model.experts[k], t, u_rows * w_rows[:, None])
        d_experts.w1[k], d_experts.wg[k], d_experts.w2[k] = d_w1.a, d_wg.a, d_w2.a
        d_x[batch_tokens] += d_x_rows
        # Weight gradient: d loss / d score[t, k] = u . E_k(x_t).
        d_score[batch_tokens, k] = (u_rows.astype(np.float64) * t.out.a.astype(np.float64)).sum(axis=1)

    if d_score_extra is not None:
        d_score = d_score + d_score_extra

    # Softmax Jacobian back to the router logits, then to weights/input.
    s_full = decision.score.astype(np.float64)
    d_logits = s_full * (d_score - (d_score * s_full).sum(axis=1, keepdims=True))
    d_logits_m = Matrix.wrap(np.ascontiguousarray(d_logits.astype(dtype)))
    d_router = matmul(x.transpose(), d_logits_m)
    d_x += matmul(d_logits_m, model.router.w.transpose()).a

    d_router_cc = None
    if model.router_cc is not None:
        d_router_cc = RouterState(Matrix.zeros(cfg.h, dims.n_groups, dtype=dtype))

    d_model = MoEModel(
        cfg=cfg, shared=d_shared, experts=d_experts, router=RouterState(d_router),
        router_cc=d_router_cc, concat_proj=d_proj,
    )
    return LayerGradients(d_model=d_model, d_x=Matrix.wrap(d_x))


@dataclass
class LossFn:
    """A scalar objective paired with its analytic gradient provider."""

    value: Callable[[Matrix, MoEModel], float]
    grads: Callable[[Matrix, MoEModel], LayerGradients]


def mean_squared_output_loss() -> LossFn:
    """mean(y^2) over all output elements of the layer."""

    def value(x: Matrix, model: MoEModel) -> float:
        y = forward(x, model).y.a.astype(np.float64)
        return float(np.mean(y * y))

    def grads(x: Matrix, model: MoEModel) -> LayerGradients:
        out = forward(x, model)
        y = out.y.a
        upstream = Matrix.wrap(np.ascontiguousarray((2.0 / y.size) * y, dtype=x.dtype))
        return backward(model, upstream, out)

    return LossFn(value=value, grads=grads)


def balance_loss_fn(alpha: float = 0.001) -> LossFn:
    """The load-balancing loss alone, as a function of input and router."""

    def value(x: Matrix, model: MoEModel) -> float:
        return balance_loss(decide(x, model), model.cfg, alpha).loss

    def grads(x: Matrix, model: MoEModel) -> LayerGradients:
        out = forward(x, model)
        upstream = Matrix.zeros(x.rows, model.cfg.h, dtype=x.dtype)
        d_score = balance_loss_score_grad(out.decision, model.cfg, alpha)
        return backward(model, upstream, out, d_score_extra=d_score)

    return LossFn(value=value, grads=grads)


def central_difference(f: Callable[[float], float], x0: float, eps: float) -> float:
    """Two-point central difference, the FD harness primitive."""
    return (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps)


@dataclass
class FdReport:
    max_rel_err: float
    n_checked: int
    n_skipped: int
    skipped: list[tuple[str, int]]  # (param name, flat index) of unstable coords


def _routing_signature(x: Matrix, model: MoEModel) -> bytes:
    return decide(x, model).indices.tobytes()


FD_EPSILON = 1e-5  # central-difference step
FD_MARGIN = 10.0  # routing must survive a +-FD_MARGIN*FD_EPSILON nudge
FD_REL_FLOOR = 1e-6  # smallest relative-error denominator


def fd_check(x: Matrix, model: MoEModel, loss_fn: LossFn, n_coords: int = 24, seed: int = 0) -> FdReport:
    """Compare analytic gradients against central differences on a random
    coordinate subsample.

    A coordinate is checked only if the routing decision survives a
    +-FD_MARGIN*FD_EPSILON perturbation (only router-weight and input
    coordinates can flip it). Relative error uses max(|fd|, |analytic|,
    FD_REL_FLOOR) as the denominator so exact-zero gradients compare cleanly.
    """
    model = model.astype(np.float64)
    x = x.astype(np.float64)
    analytic = loss_fn.grads(x, model)

    groups: list[tuple[str, np.ndarray, np.ndarray]] = [
        (name, mat.a.ravel(), grad.a.ravel())
        for (name, mat), (_, grad) in zip(named_parameters(model), named_parameters(analytic.d_model))
    ]
    groups.append(("x", x.a.ravel(), analytic.d_x.a.ravel()))

    rng = Rng(seed)
    base_signature = _routing_signature(x, model)

    max_rel = 0.0
    checked = 0
    skipped: list[tuple[str, int]] = []
    for _ in range(n_coords):
        g = int(rng.uniform(1)[0] * len(groups))
        name, theta, grad = groups[g]
        idx = int(rng.uniform(1)[0] * theta.size)
        old = theta[idx]

        def loss_at(v: float) -> float:
            theta[idx] = v
            out = loss_fn.value(x, model)
            theta[idx] = old
            return out

        if name == "x" or name.startswith("router"):
            stable = True
            for delta in (FD_MARGIN * FD_EPSILON, -FD_MARGIN * FD_EPSILON):
                theta[idx] = old + delta
                if _routing_signature(x, model) != base_signature:
                    stable = False
                theta[idx] = old
            if not stable:
                skipped.append((name, idx))
                continue

        fd = central_difference(loss_at, old, FD_EPSILON)
        an = grad[idx]
        rel = abs(fd - an) / max(abs(fd), abs(an), FD_REL_FLOOR)
        max_rel = max(max_rel, rel)
        checked += 1

    return FdReport(max_rel_err=max_rel, n_checked=checked, n_skipped=len(skipped), skipped=skipped)

"""Load-balancing loss and manual reverse-mode gradients for the layer.

The balance loss follows the usual auxiliary-loss treatment: the load
factors f are constants (no gradient through the discrete activation
counts), only the mean scores P are differentiated. The layer backward
likewise treats every candidate/top-k selection as constant and differentiates
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

from finermoe.analysis import cost_report, route_stats
from finermoe.config import FineRConfig, expert_component
from finermoe.experts import SwiGLUTape
from finermoe.moe_layer import LayerOutput, MoEModel, decide, forward, named_parameters
from finermoe.numerics import Grouped, Matrix, Rng, matmul, sigmoid
from finermoe.router import RoutingDecision


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
    d_model with the model name for name, plus the input gradient: None
    when ``backward`` ran with ``input_grad=False``."""

    d_model: MoEModel
    d_x: Matrix | None


def _swiglu_backward(x_rows: np.ndarray, w1, wg, w2, t: SwiGLUTape, d_out: np.ndarray, d_w, input_grad: bool):
    """SwiGLU chain rule on a forward tape of ``swiglu(x, w1, wg, w2)``.
    Writes dW1, dWg and dW2 into the three arrays ``d_w`` and returns
    d_x_rows, None unless ``input_grad``.

    With ``ExpertStack.grouped`` operands the rows are expert-major pairs:
    every product is grouped by the operands' offsets, and the weight
    gradients are written into gradient stacks, zero for an expert with no
    pair. Transposed operands are ``.T`` views; nothing is copied to
    transpose it.
    """

    def rows_t(rows):  # rows^T as a left operand, split by expert if grouped
        return Grouped(rows.T, w1.offsets) if isinstance(w1, Grouped) else Matrix.wrap(rows).T

    d_out_m = Matrix.wrap(d_out)
    matmul(rows_t(t.inner.a), d_out_m, out=d_w[2])
    d_inner = matmul(d_out_m, w2.T).a
    # silu(g) = g * s and silu'(g) = s * (1 + g * (1 - s)): one sigmoid for both.
    s = sigmoid(t.gate)
    d_up = Matrix.wrap(d_inner * (t.gate * s))
    d_gate = Matrix.wrap(d_inner * t.up * (s * (1.0 + t.gate * (1.0 - s))))
    matmul(rows_t(x_rows), d_up, out=d_w[0])
    matmul(rows_t(x_rows), d_gate, out=d_w[1])
    if input_grad:
        return matmul(d_up, w1.T).a + matmul(d_gate, wg.T).a
    return None


def _router_backward(x: Matrix, model: MoEModel, decision: RoutingDecision, d_score: np.ndarray, d_x, d_w):
    """Softmax Jacobian from d_score back to the router logits, then to the
    router weight, which is written into ``d_w``. Adds the input's share
    into ``d_x`` unless it is None."""
    s_full = decision.score.astype(np.float64)
    d_logits = s_full * (d_score - (d_score * s_full).sum(axis=1, keepdims=True))
    d_logits_m = Matrix.wrap(d_logits.astype(model.router.dtype))
    if d_x is not None:
        d_x += matmul(d_logits_m, model.router.T).a
    matmul(x.T, d_logits_m, out=d_w)


def backward(
    model: MoEModel,
    upstream: Matrix,
    out: LayerOutput,
    d_score_extra: np.ndarray | None = None,
    input_grad: bool = True,
) -> LayerGradients:
    """Exact gradients of (upstream . y) plus any extra score-level term
    (e.g. the balance loss) with respect to every weight and, if
    ``input_grad``, the input, for ``out = forward(x, model)`` taken before
    the weights last changed.

    The input, the dispatch plan and every expert's intermediates come from
    ``out.tape``, so only the gradient matmuls run, each weight gradient's
    writing into its view of ``d_model.flat``. The sparse experts' run as
    grouped products over all (token, expert) pairs: dW1, dWg and dW2 of
    every expert come out of one product each, into the gradient stacks,
    and every transposed operand is a no-copy ``.T`` view. Each
    element is summed in the order a per-expert product sums it, and the
    input gradient adds a token's experts in ascending order, so the bytes
    are those of one pass per expert. Discrete selections are
    constants; non-activated experts get zero gradient, and in
    separate-router mode the candidate router is selection-only, so its
    gradient is identically zero. With ``input_grad=False`` the input
    gradient's matmuls are skipped and ``d_x`` is None; the weight
    gradients are the same bytes. The call runs in the one dtype of the
    model and its input; ``upstream`` of another dtype is refused with
    ValueError.
    """
    cfg, dims = model.cfg, model.dims
    tape, decision = out.tape, out.decision
    x = tape.x
    dtype = x.dtype
    L = x.rows
    if upstream.shape != (L, cfg.h) or upstream.dtype != dtype:
        raise ValueError(f"upstream must be {L}x{cfg.h} {dtype}, got {upstream.shape} {upstream.dtype}")

    d_model = MoEModel.over(cfg, np.empty(cost_report(cfg).total_params, dtype))
    d_x = np.zeros((L, cfg.h), dtype=dtype) if input_grad else None
    d_score = np.zeros((L, dims.N), dtype=np.float64)

    # Projection (if any) sits between the combine and the output add.
    if model.concat_proj is not None:
        d_cat = matmul(upstream, model.concat_proj.T).a
        matmul(tape.sparse.out.T, upstream, out=d_model.concat_proj.a)
    else:
        d_cat = upstream.a

    if model.shared is not None:
        sh, d_sh = model.shared, d_model.shared
        d_x_s = _swiglu_backward(
            x.a, sh.w1, sh.wg, sh.w2, tape.shared, upstream.a, (d_sh.w1.a, d_sh.wg.a, d_sh.w2.a), input_grad
        )
        if d_x is not None:
            d_x += d_x_s

    # Sparse path: every (token, expert) pair at once, expert-major, as the
    # forward ran it; experts with no pair keep a zero gradient.
    plan, t = tape.sparse.plan, tape.sparse.experts
    tokens = plan.tokens_by_expert
    experts = decision.indices.ravel()[plan.perm]
    u_rows = d_cat.reshape(L, cfg.G_O, dims.h_e)[tokens, expert_component(cfg, experts)]
    w_rows = decision.score[tokens, experts]
    d_e = d_model.experts
    d_x_rows = _swiglu_backward(
        tape.sparse.x_rows, *model.experts.grouped(plan.offsets), t, u_rows * w_rows[:, None],
        (d_e.w1, d_e.wg, d_e.w2), input_grad,
    )
    if d_x is not None:
        # Each token's pairs in slot order, which is ascending expert order:
        # the order in which one batch per expert added them.
        by_slot = d_x_rows[plan.inverse].reshape(L, -1, cfg.h)
        for slot in range(by_slot.shape[1]):
            d_x += by_slot[:, slot]
    # Weight gradient: d loss / d score[t, k] = u . E_k(x_t).
    d_score[tokens, experts] = (u_rows.astype(np.float64) * t.out.a.astype(np.float64)).sum(axis=1)

    if d_score_extra is not None:
        d_score = d_score + d_score_extra
    _router_backward(x, model, decision, d_score, d_x, d_model.router.a)
    if d_model.router_cc is not None:
        d_model.router_cc.a.fill(0)
    return LayerGradients(d_model=d_model, d_x=None if d_x is None else Matrix.wrap(d_x))


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
        upstream = Matrix.wrap((2.0 / y.size) * y)
        return backward(model, upstream, out)

    return LossFn(value=value, grads=grads)


def balance_loss_fn(alpha: float = 0.001) -> LossFn:
    """The load-balancing loss alone, as a function of input and router."""

    def value(x: Matrix, model: MoEModel) -> float:
        return balance_loss(decide(x, model), model.cfg, alpha).loss

    def grads(x: Matrix, model: MoEModel) -> LayerGradients:
        # The loss reaches the weights only through the router scores, so
        # every other gradient is zero and no expert runs.
        decision = decide(x, model)
        d_score = balance_loss_score_grad(decision, model.cfg, alpha)
        d_model = MoEModel.over(model.cfg, np.zeros(cost_report(model.cfg).total_params, x.dtype))
        d_x = np.zeros((x.rows, model.cfg.h), dtype=x.dtype)
        _router_backward(x, model, decision, d_score, d_x, d_model.router.a)
        return LayerGradients(d_model=d_model, d_x=Matrix.wrap(d_x))

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
        (name, p.ravel(), grad.ravel())
        for (name, p), (_, grad) in zip(named_parameters(model), named_parameters(analytic.d_model))
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

        # An f64 model's astype is the caller's own memory, so every nudge
        # is undone also when the loss or the routing raises.
        def loss_at(v: float) -> float:
            theta[idx] = v
            try:
                return loss_fn.value(x, model)
            finally:
                theta[idx] = old

        if name == "x" or name.startswith("router"):
            stable = True
            for delta in (FD_MARGIN * FD_EPSILON, -FD_MARGIN * FD_EPSILON):
                theta[idx] = old + delta
                try:
                    if _routing_signature(x, model) != base_signature:
                        stable = False
                finally:
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

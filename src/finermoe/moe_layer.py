"""Full layer assembly: routing, token dispatch, expert forward, the
per-component weighted sum, and the shared-expert add.

Group layout: expert k belongs to group k // (G_I*R_I); group g feeds
output component g // R_O as candidate g % R_O. Routing activates T_I
experts in the one selected group of each component and lists them in
ascending order, so slot a of every token belongs to component a // T_I.
The combine therefore sums each component's T_I expert outputs straight
into its h_e columns, slot by slot in ascending expert index from zero,
so the output is bit-reproducible from run to run and equals a naive
per-token loop exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from finermoe.config import FineRConfig, DerivedDims, derive
from finermoe.experts import DenseFfnWeights, ExpertStack, SwiGLUTape, expert_forward, shared_forward, swiglu
from finermoe.numerics import Matrix, matmul
from finermoe.router import RouterState, RoutingDecision, route, route_separate, score

_SWIGLU = ("w1", "wg", "w2")


@dataclass
class MoEModel:
    """One layer's weights; the sparse experts are stored stacked."""

    cfg: FineRConfig
    shared: DenseFfnWeights | None
    experts: ExpertStack
    router: RouterState
    router_cc: RouterState | None = None  # second router, separate mode only
    concat_proj: Matrix | None = None  # optional h x h projection after concat

    @classmethod
    def zeros(cls, cfg: FineRConfig) -> "MoEModel":
        """An all-zero f32 model of the shapes cfg derives."""
        dims = derive(cfg)
        h, H = cfg.h, cfg.H
        return cls(
            cfg=cfg,
            shared=DenseFfnWeights(Matrix.zeros(h, H), Matrix.zeros(h, H), Matrix.zeros(H, h))
            if cfg.share_expert else None,
            experts=ExpertStack.zeros(dims.N, h, dims.H_e, dims.h_e),
            router=RouterState(Matrix.zeros(h, dims.N)),
            router_cc=RouterState(Matrix.zeros(h, dims.n_groups))
            if cfg.router_mode == "separate" else None,
            concat_proj=Matrix.zeros(h, h) if cfg.concat_proj else None,
        )

    @property
    def dims(self) -> DerivedDims:
        return derive(self.cfg)

    def validate(self) -> None:
        cfg, dims = self.cfg, self.dims
        if cfg.share_expert != (self.shared is not None):
            raise ValueError("share_expert flag does not match presence of shared weights")
        if self.shared is not None and (self.shared.h, self.shared.H) != (cfg.h, cfg.H):
            raise ValueError(
                f"shared expert dims {(self.shared.h, self.shared.H)} do not match "
                f"config {(cfg.h, cfg.H)}"
            )
        stack = self.experts
        shapes = (stack.w1.shape, stack.wg.shape, stack.w2.shape)
        want = ((dims.N, cfg.h, dims.H_e),) * 2 + ((dims.N, dims.H_e, dims.h_e),)
        if shapes != want:
            raise ValueError(f"expert stacks {shapes} do not match derived dims {want}")
        if self.router.w.shape != (cfg.h, dims.N):
            raise ValueError(
                f"router shape {self.router.w.shape} must be {(cfg.h, dims.N)}"
            )
        if cfg.router_mode == "separate":
            if self.router_cc is None or self.router_cc.w.shape != (cfg.h, dims.n_groups):
                raise ValueError("separate router_mode requires a h x n_groups second router")
        elif self.router_cc is not None:
            raise ValueError("router_cc present but router_mode is 'single'")
        if cfg.concat_proj != (self.concat_proj is not None):
            raise ValueError("concat_proj flag does not match presence of projection weight")
        if self.concat_proj is not None and self.concat_proj.shape != (cfg.h, cfg.h):
            raise ValueError(f"concat_proj must be {cfg.h}x{cfg.h}, got {self.concat_proj.shape}")

    def astype(self, dtype) -> "MoEModel":
        return MoEModel(
            cfg=self.cfg,
            shared=None if self.shared is None else self.shared.astype(dtype),
            experts=self.experts.astype(dtype),
            router=self.router.astype(dtype),
            router_cc=None if self.router_cc is None else self.router_cc.astype(dtype),
            concat_proj=None if self.concat_proj is None else self.concat_proj.astype(dtype),
        )


def named_parameters(model: MoEModel | DenseFfnWeights) -> list[tuple[str, Matrix]]:
    """The one tensor registry: every weight of a model, or of its gradients
    (``LayerGradients.d_model``), by name in FRM1 file order.

    Expert entries are views of the stacks, so writing through them writes
    the model. A dense FFN lists ffn.w1, ffn.wg, ffn.w2.
    """
    if isinstance(model, DenseFfnWeights):
        return [(f"ffn.{w}", getattr(model, w)) for w in _SWIGLU]
    params = []
    if model.shared is not None:
        params += [(f"shared.{w}", getattr(model.shared, w)) for w in _SWIGLU]
    for k, e in enumerate(model.experts):
        params += [(f"expert.{k}.{w}", getattr(e, w)) for w in _SWIGLU]
    params.append(("router.w", model.router.w))
    if model.router_cc is not None:
        params.append(("router_cc.w", model.router_cc.w))
    if model.concat_proj is not None:
        params.append(("concat_proj.w", model.concat_proj))
    return params


@dataclass
class DispatchPlan:
    """Permutation metadata mapping (token, slot) pairs to per-expert
    contiguous batches and back.

    Flat pair p = token * n_active + slot. ``perm`` reorders pairs into
    expert-major order (tokens ascending within each expert);
    ``inverse`` undoes it: inverse[perm[i]] == i.
    """

    perm: np.ndarray  # expert-major position -> flat pair index
    inverse: np.ndarray  # flat pair index -> expert-major position
    tokens_by_expert: np.ndarray  # token id per expert-major position
    offsets: np.ndarray  # N+1 prefix sums; expert k owns [offsets[k], offsets[k+1])

    @property
    def n_pairs(self) -> int:
        return self.perm.shape[0]


def build_dispatch_plan(decision: RoutingDecision) -> DispatchPlan:
    """Group the (token, activated-expert) pairs into per-expert batches."""
    L, A = decision.indices.shape
    n_experts = decision.n_experts
    experts_flat = decision.indices.ravel()
    tokens_flat = np.repeat(np.arange(L, dtype=np.int64), A)
    # Stable sort by expert id keeps tokens ascending within each batch.
    perm = np.argsort(experts_flat, kind="stable")
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.shape[0], dtype=perm.dtype)
    counts = np.bincount(experts_flat, minlength=n_experts)
    offsets = np.zeros(n_experts + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return DispatchPlan(
        perm=perm,
        inverse=inverse,
        tokens_by_expert=tokens_flat[perm],
        offsets=offsets,
    )


@dataclass
class SparseTape:
    """The sparse path of one forward, as ``backward`` reads it."""

    plan: DispatchPlan
    x_rows: np.ndarray  # n_pairs x h: the input rows, expert-major
    experts: list[SwiGLUTape | None]  # per expert; None if it got no token
    out: Matrix  # L x h: the combined sparse output, before any projection


@dataclass
class ForwardTape:
    """What ``backward`` needs from a forward, so it recomputes none of it."""

    x: Matrix
    sparse: SparseTape
    shared: SwiGLUTape | None


@dataclass
class LayerOutput:
    y: Matrix  # L x h
    decision: RoutingDecision
    tape: ForwardTape


def combine(out_pairs: np.ndarray, decision: RoutingDecision, plan: DispatchPlan, cfg: FineRConfig) -> Matrix:
    """Weight the expert-major outputs and sum each component's T_I slots
    into its h_e columns, in slot (ascending expert) order from zero.

    Relies on slot a of every token belonging to component a // T_I.
    """
    L = decision.n_tokens
    h_e = out_pairs.shape[1]
    out = out_pairs[plan.inverse].reshape(L, cfg.G_O, cfg.T_I, h_e)
    probs = decision.probs.reshape(L, cfg.G_O, cfg.T_I, 1).astype(out_pairs.dtype)
    acc = np.zeros((L, cfg.G_O, h_e), dtype=out_pairs.dtype)
    for t in range(cfg.T_I):
        acc += probs[:, :, t] * out[:, :, t]
    return Matrix.wrap(acc.reshape(L, cfg.G_O * h_e))


def sparse_experts_forward(x: Matrix, model: MoEModel, decision: RoutingDecision) -> SparseTape:
    """Build the dispatch plan, run each activated expert on its token
    batch and rebuild the L x h sparse output (``.out``), keeping every
    expert's intermediates for the backward pass.

    Routing keeps indices ascending with exactly T_I of them in each
    component's selected group, so slot a of every token feeds component
    a // T_I and ``combine`` sums straight into that component's columns.
    """
    dims = model.dims
    plan = build_dispatch_plan(decision)

    # Permute: pull each expert's token batch together and run it.
    x_rows = x.a[plan.tokens_by_expert]
    tapes: list[SwiGLUTape | None] = [None] * dims.N
    out_pairs = np.zeros((plan.n_pairs, dims.h_e), dtype=x.dtype)
    for k in range(dims.N):
        s, e = plan.offsets[k], plan.offsets[k + 1]
        if s == e:
            continue
        tapes[k] = swiglu(Matrix.wrap(x_rows[s:e]), model.experts[k])
        out_pairs[s:e] = tapes[k].out.a
    return SparseTape(plan, x_rows, tapes, combine(out_pairs, decision, plan, model.cfg))


def decide(x: Matrix, model: MoEModel) -> RoutingDecision:
    """Score x and route it as the model's router_mode says: the one routing
    entry point for forward, loss and CLI callers."""
    s = score(x, model.router)
    if model.cfg.router_mode == "separate":
        return route_separate(s, score(x, model.router_cc), model.cfg)
    return route(s, model.cfg)


def forward(x: Matrix, model: MoEModel) -> LayerOutput:
    """Full layer: route, sparse path, optional projection, shared add.

    The output carries the forward's tape; ``backward`` takes it from there.
    """
    if x.cols != model.cfg.h:
        raise ValueError(f"input width {x.cols} does not match hidden dim {model.cfg.h}")
    decision = decide(x, model)
    sparse_tape = sparse_experts_forward(x, model, decision)
    sparse = sparse_tape.out
    if model.concat_proj is not None:
        sparse = matmul(sparse, model.concat_proj)
    shared_tape = None
    if model.shared is not None:
        shared_tape = shared_forward(x, model.shared)
        y = Matrix.wrap(shared_tape.out.a + sparse.a)
    else:
        y = sparse
    return LayerOutput(y=y, decision=decision, tape=ForwardTape(x, sparse_tape, shared_tape))


def forward_forced(x: Matrix, model: MoEModel) -> Matrix:
    """Router bypass for reconstruction checks: in every component, run all
    experts of candidate 0 at weight 1, sum in ascending index order,
    concatenate, and add the shared expert if present.

    With weights produced by slicing a dense FFN at R_I=1 this rebuilds the
    dense forward exactly (each slice contributes R_I times in general).
    """
    cfg, dims = model.cfg, model.dims
    parts = []
    for i in range(cfg.G_O):
        g = i * cfg.R_O  # candidate 0 of component i
        acc = np.zeros((x.rows, dims.h_e), dtype=x.dtype)
        for k in range(g * dims.group_size, (g + 1) * dims.group_size):
            acc += expert_forward(x, model.experts[k]).a
        parts.append(acc)
    out = np.concatenate(parts, axis=1)
    if model.shared is not None:
        out = out + shared_forward(x, model.shared).out.a
    return Matrix.wrap(np.ascontiguousarray(out))

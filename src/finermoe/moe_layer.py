"""Full layer assembly: routing, token dispatch, expert forward, weighted
sums within groups, candidate concatenation, and the shared-expert add.

Group layout: expert k belongs to group k // (G_I*R_I); group g feeds
output component g // R_O as candidate g % R_O. Weighted sums accumulate
in ascending expert index and components concatenate in order 0..G_O-1,
so the output is bit-reproducible from run to run and equals a naive
per-token loop exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from finermoe.config import FineRConfig, DerivedDims, derive
from finermoe.experts import DenseFfnWeights, ExpertStack, expert_forward, shared_forward
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

    def batch_of(self, k: int) -> np.ndarray:
        return self.tokens_by_expert[self.offsets[k] : self.offsets[k + 1]]


def build_dispatch_plan(decision: RoutingDecision, n_experts: int | None = None) -> DispatchPlan:
    """Group the (token, activated-expert) pairs into per-expert batches."""
    L, A = decision.indices.shape
    if n_experts is None:
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
class LayerOutput:
    y: Matrix  # L x h
    decision: RoutingDecision
    candidate_vectors: np.ndarray | None = None  # L x n_groups x h_e, verification only


def sparse_experts_forward(
    x: Matrix,
    model: MoEModel,
    decision: RoutingDecision,
    plan: DispatchPlan | None = None,
    keep_candidates: bool = False,
):
    """Dispatch tokens to their activated experts and rebuild the L x h
    sparse output (weighted sums per selected group, then concatenation).

    Returns (output Matrix, candidate array or None). Candidate vectors of
    unselected groups stay zero; they are never computed.
    """
    cfg, dims = model.cfg, model.dims
    L = x.rows
    if plan is None:
        plan = build_dispatch_plan(decision, dims.N)

    # Permute: pull each expert's token batch together, run it, weight it.
    out_pairs = np.zeros((plan.n_pairs, dims.h_e), dtype=x.dtype)
    for k in range(dims.N):
        s, e = plan.offsets[k], plan.offsets[k + 1]
        if s == e:
            continue
        batch = Matrix.wrap(np.ascontiguousarray(x.a[plan.tokens_by_expert[s:e]]))
        out_pairs[s:e] = expert_forward(batch, model.experts[k]).a

    # Unpermute to token-major pair order (ascending expert id per token).
    out_slots = out_pairs[plan.inverse].reshape(L, dims.n_active, dims.h_e)

    # Weighted sum into each pair's group, slot by slot so every candidate
    # accumulates its experts in ascending index order.
    cand = np.zeros((L, dims.n_groups, dims.h_e), dtype=x.dtype)
    token_ids = np.arange(L)
    for a in range(dims.n_active):
        g = decision.indices[:, a] // dims.group_size
        cand[token_ids, g] += decision.probs[:, a, None].astype(x.dtype) * out_slots[:, a]

    # Concatenate each component's selected candidate, in component order.
    parts = []
    for i in range(cfg.G_O):
        g_sel = i * cfg.R_O + decision.cc_act[:, i]
        parts.append(cand[token_ids, g_sel])
    out = Matrix.wrap(np.ascontiguousarray(np.concatenate(parts, axis=1)))

    return out, (cand if keep_candidates else None)


def decide(x: Matrix, model: MoEModel) -> RoutingDecision:
    """Score x and route it as the model's router_mode says: the one routing
    entry point for forward, timing, loss and CLI callers."""
    s = score(x, model.router)
    if model.cfg.router_mode == "separate":
        return route_separate(s, score(x, model.router_cc), model.cfg)
    return route(s, model.cfg)


def forward(x: Matrix, model: MoEModel, keep_candidates: bool = False) -> LayerOutput:
    """Full layer: route, sparse path, optional projection, shared add."""
    if x.cols != model.cfg.h:
        raise ValueError(f"input width {x.cols} does not match hidden dim {model.cfg.h}")
    decision = decide(x, model)
    sparse, cand = sparse_experts_forward(x, model, decision, keep_candidates=keep_candidates)
    if model.concat_proj is not None:
        sparse = matmul(sparse, model.concat_proj)
    if model.shared is not None:
        y = Matrix.wrap(shared_forward(x, model.shared).a + sparse.a)
    else:
        y = sparse
    return LayerOutput(y=y, decision=decision, candidate_vectors=cand)


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
        out = out + shared_forward(x, model.shared).a
    return Matrix.wrap(np.ascontiguousarray(out))

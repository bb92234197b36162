"""Full layer assembly: routing, token dispatch, expert forward, the
per-component weighted sum, and the shared-expert add.

Group layout: expert k belongs to group k // (G_I*R_I); group g feeds
output component g // R_O as candidate g % R_O. A routing decision
activates T experts in one group of each component (T_I when routed, all
of candidate 0's group in the forced bypass), in ascending order, so slot
a of every token belongs to component a // T. The combine sums each
component's T slots straight into its h_e columns in ascending expert
index from zero, so the output is bit-reproducible and equals a naive
per-token loop exactly. A call runs in the one dtype of its model and
input; a mixed pair is refused with ValueError by the first product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from finermoe.analysis import cost_report
from finermoe.config import FineRConfig, DerivedDims, derive, with_updates
from finermoe.experts import DenseFfnWeights, ExpertStack, SwiGLUTape, shared_forward, swiglu
from finermoe.numerics import Matrix, matmul
from finermoe.router import RoutingDecision, route, route_separate, score

_SWIGLU = ("w1", "wg", "w2")


@dataclass(eq=False)
class MoEModel:
    """One layer's weights, all views of the one array ``flat``; the sparse
    experts are stored stacked. ``over`` is the one layout of a config's
    tensors, and every model the library makes goes through it."""

    cfg: FineRConfig
    flat: np.ndarray  # every tensor's values, in named_parameters order
    shared: DenseFfnWeights | None
    experts: ExpertStack
    router: Matrix  # h x N
    router_cc: Matrix | None = None  # h x n_groups, second router, separate mode only
    concat_proj: Matrix | None = None  # optional h x h projection after concat

    @classmethod
    def over(cls, cfg: FineRConfig, flat: np.ndarray) -> "MoEModel":
        """The model cfg describes, its tensors consecutive views of
        ``flat`` in ``named_parameters`` order, the FRM1 payload's. ``flat``
        must be a C-contiguous 1-D array of ``cost_report(cfg).total_params``
        values. The experts are one N x (2*h*H_e + H_e*h_e) block, a row per
        expert holding its w1, wg and w2, so each stack is a strided view
        whose per-expert slices are C-contiguous."""
        n = cost_report(cfg).total_params
        if not (flat.shape == (n,) and flat.flags.c_contiguous):
            raise ValueError(f"the config lays out a C-contiguous 1-D array of {n} values, got shape {flat.shape}")
        dims = derive(cfg)
        h, N, H_e, h_e = cfg.h, dims.N, dims.H_e, dims.h_e
        separate = cfg.router_mode == "separate"
        sizes = (3 * h * cfg.H * cfg.share_expert, N * (2 * h * H_e + H_e * h_e), h * N, h * dims.n_groups * separate)
        shared, block, router, router_cc, concat_proj = np.split(flat, np.cumsum(sizes))
        block = block.reshape(N, -1)
        a, b = h * H_e, 2 * h * H_e
        stacks = block[:, :a].reshape(N, h, H_e), block[:, a:b].reshape(N, h, H_e), block[:, b:].reshape(N, H_e, h_e)
        return cls(
            cfg, flat,
            shared=DenseFfnWeights.over(h, cfg.H, shared) if cfg.share_expert else None,
            experts=ExpertStack(block, *stacks),
            router=Matrix.wrap(router.reshape(h, N)),
            router_cc=Matrix.wrap(router_cc.reshape(h, dims.n_groups)) if separate else None,
            concat_proj=Matrix.wrap(concat_proj.reshape(h, h)) if cfg.concat_proj else None,
        )

    @classmethod
    def zeros(cls, cfg: FineRConfig) -> "MoEModel":
        """An all-zero f32 model of the shapes cfg derives."""
        return cls.over(cfg, np.zeros(cost_report(cfg).total_params, np.float32))

    @property
    def dims(self) -> DerivedDims:
        return derive(self.cfg)

    def validate(self) -> None:
        """Raise ValueError naming the first tensor, by name and shape, that
        is not the one ``over`` lays out for the config."""
        # np.empty touches no page of the layout; only its shapes are read.
        want = MoEModel.over(self.cfg, np.empty(cost_report(self.cfg).total_params, np.float32))
        shapes = (
            [f"{name} {'x'.join(map(str, p.shape))}" for name, p in named_parameters(m)] for m in (self, want)
        )
        for n, (got, exp) in enumerate(zip_longest(*shapes)):
            if got != exp:
                raise ValueError(
                    f"tensor {n} is {got or 'nothing'}, where the config lays out {exp or 'nothing'}"
                )

    def astype(self, dtype) -> "MoEModel":
        """The model cast to ``dtype`` by one cast of ``flat``; one of that
        dtype already shares this model's memory."""
        return MoEModel.over(self.cfg, self.flat.astype(dtype, copy=False))


def named_parameters(model: MoEModel | DenseFfnWeights) -> list[tuple[str, np.ndarray]]:
    """The one tensor registry: every weight of a model, or of its gradients
    (``LayerGradients.d_model``), as a 2-D array by name in FRM1 file order.

    Each entry is the model's own memory: a matrix's ``.a`` or a slice of
    an expert stack, so writing through it writes the model. A dense FFN
    lists ffn.w1, ffn.wg, ffn.w2.
    """
    if isinstance(model, DenseFfnWeights):
        return [(f"ffn.{w}", getattr(model, w).a) for w in _SWIGLU]
    params = []
    if model.shared is not None:
        params += [(f"shared.{w}", getattr(model.shared, w).a) for w in _SWIGLU]
    stacks = [(w, getattr(model.experts, w)) for w in _SWIGLU]
    params += [(f"expert.{k}.{w}", s[k]) for k in range(len(model.experts.w1)) for w, s in stacks]
    params.append(("router.w", model.router.a))
    if model.router_cc is not None:
        params.append(("router_cc.w", model.router_cc.a))
    if model.concat_proj is not None:
        params.append(("concat_proj.w", model.concat_proj.a))
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
    """The sparse path of one forward, as ``backward`` reads it: the plan,
    the gathered input rows and one SwiGLU tape of stacked arrays, each
    row one (token, expert) pair in the plan's expert-major order (``up``,
    ``gate`` and ``inner`` n_pairs x H_e, ``out`` n_pairs x h_e)."""

    plan: DispatchPlan
    x_rows: np.ndarray  # n_pairs x h: the input rows, expert-major
    experts: SwiGLUTape  # every expert's intermediates, expert-major
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
    """Weight the expert-major outputs and sum each component's T =
    indices.shape[1] // G_O slots into its h_e columns, in slot (ascending
    expert) order from zero; slot a of every token is in component a // T.
    """
    L, A = decision.indices.shape
    T = A // cfg.G_O
    h_e = out_pairs.shape[1]
    out = out_pairs[plan.inverse].reshape(L, cfg.G_O, T, h_e)
    probs = decision.probs.reshape(L, cfg.G_O, T, 1)
    acc = np.zeros((L, cfg.G_O, h_e), dtype=out_pairs.dtype)
    for t in range(T):
        acc += probs[:, :, t] * out[:, :, t]
    return Matrix.wrap(acc.reshape(L, cfg.G_O * h_e))


def sparse_experts_forward(x: Matrix, model: MoEModel, decision: RoutingDecision) -> SparseTape:
    """Build the dispatch plan, run every activated expert on its token
    batch and rebuild the L x h sparse output (``.out``), keeping the
    intermediates for the backward pass.

    The input rows are gathered once, expert-major, and the experts run as
    three grouped products (one per weight, each expert on its own rows)
    and one ``silu`` over all pairs; every element sums as in a
    per-expert product, so the bits are those of one call per expert.
    A decision lists indices ascending, the same number in each
    component's selected group, so ``combine`` sums every slot straight
    into its component's columns.
    """
    plan = build_dispatch_plan(decision)
    x_rows = x.a[plan.tokens_by_expert]
    tape = swiglu(Matrix.wrap(x_rows), *model.experts.grouped(plan.offsets))
    return SparseTape(plan, x_rows, tape, combine(tape.out.a, decision, plan, model.cfg))


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
    """Router bypass for reconstruction checks: every expert of each
    component's candidate-0 group at weight 1, then the shared expert if
    present. Uniform scores routed with T_I = G_I*R_I make that decision
    (the lowest-index tie rule picks candidate 0), and it runs through
    ``forward``'s dispatch, grouped products and combine. With weights
    sliced from a dense FFN at R_I=1 this rebuilds the dense forward
    exactly (each slice contributes R_I times in general).
    """
    cfg, dims = model.cfg, model.dims
    decision = route(np.ones((x.rows, dims.N), x.dtype), with_updates(cfg, T_I=dims.group_size))
    out = sparse_experts_forward(x, model, decision).out
    if model.shared is not None:
        out = Matrix.wrap(out.a + shared_forward(x, model.shared).out.a)
    return out

"""Fine-grained mixture-of-experts layer with bi-level sparse routing,
dense-FFN upcycling, manual gradients, and a verification harness.

Hot matmul kernels live in a compiled extension when available, with a
bit-identical pure-NumPy fallback selected at import time
(``kernel_backend()`` reports which one is active).
"""

from finermoe._backend import available_backends, backend_name as kernel_backend
from finermoe.analysis import CostReport, LoadReport, SimilarityReport, cost_report, expert_similarity, route_stats
from finermoe.checkpoint import read_model, write_model
from finermoe.config import DerivedDims, FineRConfig, baseline_preset, derive, load_config, save_config, validate
from finermoe.experts import DenseFfnWeights, ExpertStack, ExpertWeights, expert_forward, shared_forward
from finermoe.loss_grad import BalanceLossReport, LayerGradients, backward, balance_loss, fd_check
from finermoe.moe_layer import (
    DispatchPlan, LayerOutput, MoEModel, build_dispatch_plan, decide, forward, forward_forced, named_parameters,
)
from finermoe.numerics import Matrix, Rng, matmul, set_num_threads, silu, softmax
from finermoe.router import RouterState, RoutingDecision, route, route_separate, score
from finermoe.upcycle import SliceAssignment, drop_upcycle, expert_slice_indices, random_dense, upcycle

__version__ = "0.1.0"

__all__ = [
    "BalanceLossReport", "CostReport", "DenseFfnWeights", "DerivedDims",
    "DispatchPlan", "ExpertStack", "ExpertWeights", "FineRConfig", "LayerGradients",
    "LayerOutput", "LoadReport", "Matrix", "MoEModel", "Rng", "RouterState",
    "RoutingDecision", "SimilarityReport",
    "SliceAssignment", "available_backends", "backward", "balance_loss",
    "baseline_preset", "build_dispatch_plan", "cost_report", "decide", "derive",
    "drop_upcycle", "expert_forward", "expert_similarity",
    "expert_slice_indices", "fd_check", "forward", "forward_forced",
    "kernel_backend", "load_config", "matmul", "named_parameters", "random_dense", "read_model",
    "route", "route_separate", "route_stats", "save_config", "score",
    "set_num_threads", "shared_forward", "silu", "softmax", "upcycle",
    "validate", "write_model",
]

"""Spans recorded from outside the library, and the per-layer numbers made from them.

The library is not changed: ``patched`` swaps a public function for a
wrapper in every ``finermoe.*`` module that holds a reference to it, and
puts the original back afterwards. ``Tracer`` builds those wrappers. Each
span is one list ``[name, start_ns, end_ns, parent, op, attrs]``; spans are
appended in start order, so a parent always precedes its children.

Nothing here imports numpy or finermoe at module level: the set-up time of
a workload starts before those imports.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import tracemalloc
from contextlib import ExitStack, contextmanager

# (span name, defining module, attribute). The backend kernel is resolved
# at install time because the active backend module is chosen at import.
TARGETS = [
    ("cli.run", "finermoe.cli", "run"),
    ("checkpoint.read_model", "finermoe.checkpoint", "read_model"),
    ("upcycle", "finermoe.upcycle", "upcycle"),
    ("moe_layer.forward", "finermoe.moe_layer", "forward"),
    ("router.score", "finermoe.router", "score"),
    ("router.route", "finermoe.router", "route"),
    ("router.route", "finermoe.router", "route_separate"),
    ("moe_layer.sparse", "finermoe.moe_layer", "sparse_experts_forward"),
    ("moe_layer.dispatch_plan", "finermoe.moe_layer", "build_dispatch_plan"),
    ("experts.shared", "finermoe.experts", "shared_forward"),
    ("loss_grad.backward", "finermoe.loss_grad", "backward"),
    ("loss_grad.balance_loss", "finermoe.loss_grad", "balance_loss"),
    ("numerics.matmul", "finermoe.numerics", "matmul"),
    ("numerics.kernel", None, "matmul_f32"),
    ("numerics.kernel", None, "matmul_f64"),
]

# Matmul callers, by the nearest enclosing span; anything under backward
# counts as backward.
CALLERS = {
    "router.score": "router",
    "moe_layer.sparse": "sparse",
    "experts.shared": "shared",
}

MB = 1e6


def _module(name):
    if name is None:
        return sys.modules["finermoe._backend"].active
    return importlib.import_module(name)


@contextmanager
def patched(module_name, attr, make_wrapper):
    """Replace the current ``module.attr`` with ``make_wrapper(current)``
    wherever a finermoe module refers to it; undo on exit.

    Skips silently (and yields False) when the attribute does not exist,
    so the benchmark still runs against a library that renamed it.
    """
    current = getattr(_module(module_name), attr, None)
    if current is None:
        yield False
        return
    wrapper = make_wrapper(current)
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "finermoe" or name.startswith("finermoe.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is current:
                setattr(mod, key, wrapper)
                undo.append((mod, key))
    try:
        yield True
    finally:
        for mod, key in undo:
            setattr(mod, key, current)


def _matmul_attrs(args, kwargs, out):
    a, b = args[0], args[1]
    m, k, n = a.rows, a.cols, b.cols
    itemsize = out.a.itemsize
    # Bytes moved are computed from operand shapes, not measured.
    return {"flops": 2 * m * k * n, "bytes": (m * k + k * n + m * n) * itemsize}


def _plan_attrs(args, kwargs, out):
    counts = out.offsets[1:] - out.offsets[:-1]
    return {"batches": int((counts > 0).sum()), "pairs": int(out.n_pairs)}


def _forward_attrs(args, kwargs, out):
    return {"tokens": args[0].rows, "cfg": args[1].cfg}


def _read_model_attrs(args, kwargs, out):
    import os

    return {"bytes": os.path.getsize(args[0])}


ATTRS = {
    "numerics.matmul": _matmul_attrs,
    "moe_layer.dispatch_plan": _plan_attrs,
    "moe_layer.forward": _forward_attrs,
    "checkpoint.read_model": _read_model_attrs,
}


class Tracer:
    """Records spans of the targets while ``installed`` is active."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []

    def _make(self, name):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter_ns
        alloc = name == "checkpoint.read_model"

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
                stack.append(len(spans))
                spans.append(rec)
                if alloc:
                    tracemalloc.start()
                rec[1] = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                    if alloc:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                if attrs_of is not None or alloc:
                    rec[5] = attrs_of(args, kwargs, out) if attrs_of else {}
                    if alloc:
                        rec[5]["alloc_peak"] = peak
                return out

            wrapper.__wrapped__ = fn
            return wrapper

        return make_wrapper

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            found = [
                stack.enter_context(patched(mod, attr, self._make(name)))
                for name, mod, attr in TARGETS
            ]
            self.missing = [
                f"{mod or 'backend'}.{attr}" for (_, mod, attr), ok in zip(TARGETS, found) if not ok
            ]
            yield self

    @contextmanager
    def span(self, name, op):
        """A span opened by the benchmark itself, e.g. one whole op."""
        self.op = op
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
            self.op = None

    def dump(self):
        """Spans as JSON-ready dicts (attrs that are not plain values dropped)."""
        out = []
        for name, t0, t1, parent, op, attrs in self.spans:
            d = {"name": name, "start_ns": t0, "end_ns": t1, "parent": parent, "op": op}
            if attrs:
                d["attrs"] = {k: v for k, v in attrs.items() if isinstance(v, (int, float))}
            out.append(d)
        return out


@contextmanager
def capture_routes(into):
    """Append ``(score, cfg, decision)`` for every single-router ``route``
    call to ``into`` (used to check sampled ops against the oracle)."""

    def make_wrapper(fn):
        def wrapper(score_mat, cfg, *args, **kwargs):
            out = fn(score_mat, cfg, *args, **kwargs)
            into.append((score_mat, cfg, out))
            return out

        return wrapper

    with patched("finermoe.router", "route", make_wrapper):
        yield


def _ancestor(spans, idx, names):
    """Index of the nearest ancestor of span idx whose name is in names, or -1."""
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] in names:
            return p
        p = spans[p][3]
    return -1


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def flop_check(spans, expected_per_token):
    """Check every forward span: its matmul FLOPs must equal
    ``expected_per_token(cfg) * tokens``. Returns (forwards checked,
    {op: message} for the ops that failed)."""
    counted = {}
    for i, s in enumerate(spans):
        if s[0] == "numerics.matmul" and s[5] is not None:
            f = _ancestor(spans, i, ("moe_layer.forward",))
            if f >= 0:
                counted[f] = counted.get(f, 0) + s[5]["flops"]
    bad = {}
    checked = 0
    for i, s in enumerate(spans):
        if s[0] != "moe_layer.forward" or s[5] is None:
            continue
        checked += 1
        want = expected_per_token(s[5]["cfg"]) * s[5]["tokens"]
        got = counted.get(i, 0)
        if got != want:
            bad[s[4]] = f"forward counted {got} matmul FLOPs, cost_report gives {want}"
    return checked, bad


# name -> (unit, which direction is better), in report order.
PER_LAYER = {
    "numerics.matmul.calls": ("count", "lower"),
    "numerics.matmul.flops": ("flop", "lower"),
    "numerics.matmul.ms": ("ms", "lower"),
    "numerics.matmul.self_ms": ("ms", "lower"),
    "numerics.matmul.gflops": ("GFLOP/s", "higher"),
    "numerics.matmul.flops_per_byte": ("flop/B", "higher"),
    "numerics.matmul.router.gflops": ("GFLOP/s", "higher"),
    "numerics.matmul.sparse.gflops": ("GFLOP/s", "higher"),
    "numerics.matmul.shared.gflops": ("GFLOP/s", "higher"),
    "numerics.matmul.backward.gflops": ("GFLOP/s", "higher"),
    "moe_layer.forward.ms": ("ms", "lower"),
    "moe_layer.dispatch_plan.ms": ("ms", "lower"),
    "moe_layer.sparse.ms": ("ms", "lower"),
    "moe_layer.sparse.self_ms": ("ms", "lower"),
    "moe_layer.sparse.expert_batches": ("count", "lower"),
    "moe_layer.sparse.tokens_per_batch": ("tokens", "higher"),
    "experts.shared.ms": ("ms", "lower"),
    "router.score.ms": ("ms", "lower"),
    "router.route.ms": ("ms", "lower"),
    "loss_grad.backward.ms": ("ms", "lower"),
    "loss_grad.backward.self_ms": ("ms", "lower"),
    "loss_grad.backward.flops_ratio": ("ratio", "lower"),
    "loss_grad.balance_loss.ms": ("ms", "lower"),
    "checkpoint.read_model.ms": ("ms", "lower"),
    "checkpoint.read_model.mb_per_s": ("MB/s", "higher"),
    "checkpoint.read_model.alloc_peak_mb": ("MB", "lower"),
    "upcycle.ms": ("ms", "lower"),
    "cli.run.self_ms": ("ms", "lower"),
    "trace.tokens_per_s_delta": ("tokens/s", "higher"),
}


def per_layer(spans, ops):
    """Per-layer metrics over the traced ops ``ops`` (ids), as {name: value}.

    Times are the median over ops of the per-op total; counts are per-op
    means; rates and ratios are ratios of totals. A layer that never ran
    on this workload reads 0.
    """
    ops = list(ops)
    n_ops = max(len(ops), 1)
    op_set = set(ops)
    own = self_times(spans)
    per_op = {}  # (metric, op) -> ns

    def add(key, op, v):
        per_op[(key, op)] = per_op.get((key, op), 0) + v

    tot = {}

    def acc(key, v):
        tot[key] = tot.get(key, 0) + v

    reads = []
    for i, (name, t0, t1, parent, op, attrs) in enumerate(spans):
        if name == "checkpoint.read_model" and attrs is not None:
            reads.append((t1 - t0, attrs["bytes"], attrs["alloc_peak"]))
        if op not in op_set:
            continue
        dur = t1 - t0
        add(name + ".ms", op, dur)
        add(name + ".self_ms", op, own[i])
        if name == "numerics.matmul":
            acc("mm.calls", 1)
            acc("mm.flops", attrs["flops"])
            acc("mm.bytes", attrs["bytes"])
            acc("mm.ns", dur)
            under_bwd = _ancestor(spans, i, ("loss_grad.backward",)) >= 0
            if under_bwd:
                caller = "backward"
            else:
                c = _ancestor(spans, i, tuple(CALLERS))
                caller = CALLERS[spans[c][0]] if c >= 0 else "other"
            acc(f"mm.{caller}.flops", attrs["flops"])
            acc(f"mm.{caller}.ns", dur)
            acc("flops.bwd" if under_bwd else (
                "flops.fwd" if _ancestor(spans, i, ("moe_layer.forward",)) >= 0 else "flops.other"
            ), attrs["flops"])
        elif name == "moe_layer.dispatch_plan" and parent >= 0 and spans[parent][0] == "moe_layer.sparse":
            acc("sparse.batches", attrs["batches"])
            acc("sparse.pairs", attrs["pairs"])

    def med(key):
        return statistics.median(per_op.get((key, op), 0) for op in ops) / 1e6 if ops else 0.0

    def ratio(a, b, scale=1.0):
        return tot.get(a, 0) * scale / tot[b] if tot.get(b) else 0.0

    m = {
        "numerics.matmul.calls": tot.get("mm.calls", 0) / n_ops,
        "numerics.matmul.flops": tot.get("mm.flops", 0) / n_ops,
        "numerics.matmul.ms": med("numerics.matmul.ms"),
        "numerics.matmul.self_ms": med("numerics.matmul.self_ms"),
        "numerics.matmul.gflops": ratio("mm.flops", "mm.ns"),
        "numerics.matmul.flops_per_byte": ratio("mm.flops", "mm.bytes"),
    }
    for caller in ("router", "sparse", "shared", "backward"):
        m[f"numerics.matmul.{caller}.gflops"] = ratio(f"mm.{caller}.flops", f"mm.{caller}.ns")
    m.update({
        "moe_layer.forward.ms": med("moe_layer.forward.ms"),
        "moe_layer.dispatch_plan.ms": med("moe_layer.dispatch_plan.ms"),
        "moe_layer.sparse.ms": med("moe_layer.sparse.ms"),
        "moe_layer.sparse.self_ms": med("moe_layer.sparse.self_ms"),
        "moe_layer.sparse.expert_batches": tot.get("sparse.batches", 0) / n_ops,
        "moe_layer.sparse.tokens_per_batch": ratio("sparse.pairs", "sparse.batches"),
        "experts.shared.ms": med("experts.shared.ms"),
        "router.score.ms": med("router.score.ms"),
        "router.route.ms": med("router.route.ms"),
        "loss_grad.backward.ms": med("loss_grad.backward.ms"),
        "loss_grad.backward.self_ms": med("loss_grad.backward.self_ms"),
        "loss_grad.backward.flops_ratio": ratio("flops.bwd", "flops.fwd"),
        "loss_grad.balance_loss.ms": med("loss_grad.balance_loss.ms"),
        "checkpoint.read_model.ms": statistics.median(r[0] for r in reads) / 1e6 if reads else 0.0,
        "checkpoint.read_model.mb_per_s": (
            sum(r[1] for r in reads) / MB / (sum(r[0] for r in reads) / 1e9) if reads else 0.0
        ),
        "checkpoint.read_model.alloc_peak_mb": max(r[2] for r in reads) / MB if reads else 0.0,
        "upcycle.ms": med("upcycle.ms"),
        "cli.run.self_ms": med("cli.run.self_ms"),
    })
    return m

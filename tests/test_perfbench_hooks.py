"""The benchmark under perfbench/ reaches into the library by name; a name
that no longer resolves would drop a traced span or break a workload
without failing here. The benchmark also counts FLOPs from its spans of
``numerics.matmul``, so every product must enter there. These tests only
read the perfbench files."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import finermoe
from finermoe.analysis import cost_report
from finermoe.config import baseline_preset, preset_names, with_updates
from finermoe.numerics import Rng, count_flops
from finermoe.upcycle import random_dense, upcycle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _library_uses(path):
    """(module, attribute) pairs a perfbench file reads from finermoe:
    names it imports from finermoe modules, and attributes it reads from
    the names those imports bind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}  # local name -> finermoe module name
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "finermoe":
                    bound[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "finermoe":
            for a in node.names:
                uses.add((node.module, a.name))
                if importlib.util.find_spec(f"{node.module}.{a.name}") is not None:
                    bound[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and not node.attr.startswith("__")
        ):
            uses.add((bound[node.value.id], node.attr))
    return uses


def test_every_traced_target_resolves():
    spans = _load_spans()
    for span, module, attr in spans.TARGETS:
        assert getattr(spans._module(module), attr, None) is not None, (span, module, attr)


@pytest.mark.parametrize("name", ["run.py", "workloads.py"])
def test_every_library_name_the_benchmark_calls_resolves(name):
    uses = _library_uses(PERFBENCH / name)
    for module, attr in sorted(uses):
        assert hasattr(importlib.import_module(module), attr), f"{name}: {module}.{attr}"


def test_the_scan_sees_the_names_it_guards():
    uses = _library_uses(PERFBENCH / "run.py") | _library_uses(PERFBENCH / "workloads.py")
    for want in [
        ("finermoe", "kernel_backend"),
        ("finermoe.numerics", "get_num_threads"),
        ("finermoe.cli", "read_matrix"),
        ("finermoe.cli", "write_matrix"),
        ("finermoe.oracle", "route_reference"),
        ("finermoe.analysis", "cost_report"),
        ("finermoe", "read_model"),
        ("finermoe", "forward"),
    ]:
        assert want in uses, want


def test_every_exported_name_resolves():
    for name in finermoe.__all__:
        assert hasattr(finermoe, name), name


def _traced(run):
    """Spans of ``run()`` under the benchmark's own Tracer, as op 0."""
    spans = _load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        assert tracer.missing == []
        with tracer.span("op", 0):
            run()
    return spans, tracer.spans


def _matmul_flops(spans, recorded, under):
    return sum(
        s[5]["flops"] for i, s in enumerate(recorded)
        if s[0] == "numerics.matmul" and spans._ancestor(recorded, i, (under,)) >= 0
    )


def _matmul_callers(spans, recorded):
    """How many numerics.matmul spans run under each caller stage."""
    return Counter(
        spans.CALLERS[recorded[spans._ancestor(recorded, i, tuple(spans.CALLERS))][0]]
        for i, s in enumerate(recorded) if s[0] == "numerics.matmul"
    )


@pytest.mark.parametrize("proj", [False, True])
@pytest.mark.parametrize("mode", ["single", "separate"])
@pytest.mark.parametrize("name", preset_names())
def test_traced_matmul_spans_count_every_flop(name, mode, proj):
    # The benchmark counts FLOPs from the numerics.matmul spans alone: a
    # product that bypassed that entry would drop out of every count.
    # Library functions are called through their modules, which the
    # Tracer patches.
    cfg = with_updates(baseline_preset(name, h=16, H=64), router_mode=mode, concat_proj=proj)
    model = upcycle(random_dense(16, 64, 1, std=0.3), cfg, 2)
    for i, (_, p) in enumerate(finermoe.named_parameters(model)):
        p += Rng(3 + i).matrix(*p.shape, std=0.05).a
    x, upstream = Rng(4).matrix(11, 16), Rng(5).matrix(11, 16)
    counted = {}

    def run():
        out = finermoe.forward(x, model)
        with count_flops() as c:
            finermoe.backward(model, upstream, out)
        counted["backward"] = c.flops

    spans, recorded = _traced(run)
    checked, bad = spans.flop_check(recorded, lambda c: cost_report(c).flops_per_token)
    assert checked == 1 and bad == {}
    assert _matmul_flops(spans, recorded, "loss_grad.backward") == counted["backward"] > 0


@pytest.mark.parametrize("T_I, tokens", [(1, 1), (1, 9), (1, 64), (4, 9), (8, 64)])
def test_a_forward_makes_one_grouped_product_per_expert_weight(T_I, tokens):
    # FineRMoE-base: the router's product, three grouped products for the
    # sparse experts and the shared expert's three, however many experts
    # the tokens activate.
    cfg = with_updates(baseline_preset("FineRMoE-base", h=32, H=128), T_I=T_I)
    model = upcycle(random_dense(32, 128, 6), cfg, 7)
    x = Rng(8).matrix(tokens, 32)
    spans, recorded = _traced(lambda: finermoe.forward(x, model))
    assert _matmul_callers(spans, recorded) == {"router": 1, "sparse": 3, "shared": 3}
    (plan,) = [s[5] for s in recorded if s[0] == "moe_layer.dispatch_plan"]
    assert plan["batches"] >= 2 * T_I


@pytest.mark.parametrize("name", preset_names())
def test_the_forced_bypass_makes_one_grouped_product_per_expert_weight(name):
    # forward_forced runs forward's grouped sparse path: three products
    # whatever the group size (32 experts for C32A2), plus the shared
    # expert's three; the bypass scores nothing.
    cfg = baseline_preset(name, h=32, H=128)
    model = upcycle(random_dense(32, 128, 6), cfg, 7)
    x = Rng(8).matrix(9, 32)
    spans, recorded = _traced(lambda: finermoe.forward_forced(x, model))
    want = {"sparse": 3, "shared": 3} if cfg.share_expert else {"sparse": 3}
    assert _matmul_callers(spans, recorded) == want

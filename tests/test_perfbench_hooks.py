"""The benchmark under perfbench/ reaches into the library by name; a name
that no longer resolves would drop a traced span or break a workload
without failing here. These tests only read the perfbench files."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import finermoe

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

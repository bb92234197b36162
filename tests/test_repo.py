"""Repository hygiene: nothing that .gitignore excludes is tracked, so a
build or test leftover can never be committed as if it were source; no
library module or test file imports a name it never uses, so a deletion
cannot leave one behind; no library module outside the oracle computes a
product but through ``numerics.matmul``, so none escapes its kernels;
every CLI example in the README parses, so a stale flag cannot
linger there; the README's Python examples run, so a stale call cannot
either; and no library module builds a ``MoEModel`` but through
``MoEModel.over``, so its layout has one home."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(), reason="not a git checkout"
)
def test_no_tracked_file_is_ignored():
    proc = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    assert proc.stdout == ""


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs here, so this is what catches an import a deletion orphans.
    assert _unused_imports("from x import derive, y\nimport a.b\ny(a)\n") == ["line 1: derive"]
    unused = {
        str(path.relative_to(ROOT)): names
        for path in sorted([*(ROOT / "src" / "finermoe").glob("*.py"), *(ROOT / "tests").glob("*.py")])
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


_NUMPY_PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot"}


def _products(source: str) -> list[str]:
    """Products a module computes past ``numerics.matmul``: ``@``, ``@=``,
    NumPy's product functions and any ``.dot``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and (
            node.attr == "dot"
            or node.attr in _NUMPY_PRODUCTS and getattr(node.value, "id", None) in ("np", "numpy")
        ):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in _NUMPY_PRODUCTS]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_every_product_goes_through_numerics_matmul():
    # Comments and docstrings may name a product; the oracle's np.dot loops
    # are the independent reference the kernels are checked against.
    assert _products(
        "# a @ b\ny = x.a @ w.a\ny @= w\nz = np.einsum('ij', a) + numpy.inner(a, b)\n"
        "t = a.dot(b)\nfrom numpy import vdot, zeros\n"
    ) == ["line 2: @", "line 3: @", "line 4: .einsum", "line 4: .inner", "line 5: .dot", "line 6: vdot"]
    found = {
        path.name: products
        for path in sorted((ROOT / "src" / "finermoe").glob("*.py"))
        if path.name != "oracle.py" and (products := _products(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _model_builds(source: str) -> list[str]:
    """Calls that build a ``MoEModel`` but through ``MoEModel.over``: any
    call of ``MoEModel``, and a call of ``cls`` in its other methods."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "MoEModel":
            found += [
                n.lineno for fn in node.body if isinstance(fn, ast.FunctionDef) and fn.name != "over"
                for n in ast.walk(fn) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "cls"
            ]
        elif isinstance(node, ast.Call) and "MoEModel" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_every_model_is_laid_out_by_moe_model_over():
    # over is the one layout of a model's tensors over its flat array, so a
    # hand-built model cannot bring a second one back.
    assert _model_builds(
        "class MoEModel:\n    def over(cls, cfg, flat):\n        return cls(cfg, flat)\n"
        "    def zeros(cls, cfg):\n        return cls.over(cfg, z) or cls(cfg)\n"
        "m = MoEModel(cfg)\nn = moe_layer.MoEModel.over(cfg, flat)\nk = moe_layer.MoEModel(cfg)\n"
    ) == ["line 5", "line 6", "line 8"]
    found = {
        path.name: builds
        for path in sorted((ROOT / "src" / "finermoe").glob("*.py"))
        if (builds := _model_builds(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _readme_cli_commands() -> list[list[str]]:
    """Every `finermoe ...` command in the README's CLI section, with
    backslash-continued lines joined, as an argv without the program name."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split()
        if words and words[0] == "finermoe":
            commands.append(words[1:])
    return commands


def test_readme_cli_examples_parse():
    from finermoe.cli import _build_parser

    commands = _readme_cli_commands()
    assert len(commands) >= 8  # one or more per subcommand
    assert {argv[0] for argv in commands} >= {"preset", "upcycle", "forward", "bench", "check"}
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: finermoe {' '.join(argv)}")


def test_readme_python_examples_run():
    # The blocks continue one another (the second updates the first's
    # model), so they run in order in one namespace.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("\n```", 1)[0] for b in text.split("```python\n")[1:]]
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)

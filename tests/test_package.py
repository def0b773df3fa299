"""The package's public names are the ones it uses itself, and importing
the CLI stays cheap and loads every layer."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import sftbounds
from sftbounds import builtin_model
from sftbounds.enumeration import count_patterns_dfs
from sftbounds.models import drop_last_axis
from sftbounds.transfer import build_slice_space, count_via_transfer

PACKAGE = pathlib.Path(sftbounds.__file__).parent

# ``dataclasses`` and the modules it pulls in; none is needed to run the CLI.
SLOW_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# Every layer the benchmark's tracer looks up in ``sys.modules``.
LAYERS = (
    "cli", "models", "patterns", "enumeration",
    "transfer", "gluing", "bounds", "sampling",
)


def test_every_export_is_used_in_the_package():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert exported
    assert sorted(exported - used) == []


# Public names no package code reads, which ``bench/spans.py`` ``TRACED``
# still pins by module.
TRACED_ONLY = {"count_patterns_dfs", "enumerate_patterns", "count_by_state"}


def test_every_public_name_is_exported_or_used():
    # a public top-level name that the package neither exports nor reads
    # is test-only API, which belongs under tests/
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    init = trees.pop("__init__")
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names if not name.startswith("_")
                       and name not in exported | read | TRACED_ONLY]
    assert unread == []


def _after_cli_import(expr: str) -> str:
    """``expr`` printed by a fresh interpreter right after ``import
    sftbounds.cli``; ``before`` holds the modules loaded until then."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sftbounds.cli\n"
        f"print({expr})\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_slow_stdlib_module():
    expr = f"sorted(set(sys.modules) - before & set({SLOW_STDLIB!r}))"
    assert _after_cli_import(expr) == "[]"


def test_cli_import_loads_every_layer():
    expr = f"[m for m in {LAYERS!r} if 'sftbounds.' + m not in sys.modules]"
    assert _after_cli_import(expr) == "[]"


def test_no_module_imports_dataclasses_or_typing():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] in ("dataclasses", "typing")
            ]
    assert found == []


def test_bench_tracer_contract():
    # bench/spans.py wraps the functions named in TRACED and binds their
    # arguments by name; read the table without importing the tracer
    # (it imports numpy)
    spans = PACKAGE.parents[1] / "bench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    )
    assert set(traced) == set(LAYERS)
    missing = [
        f"{layer}.{name}" for layer, names in traced.items() for name in names
        if not callable(getattr(importlib.import_module(f"sftbounds.{layer}"), name, None))
    ]
    assert missing == []
    for fn in (count_via_transfer, build_slice_space):
        assert {"model", "n"} <= set(inspect.signature(fn).parameters), fn
    for d, sides in ((2, range(1, 6)), (3, range(1, 4))):
        model = builtin_model("hard-square", d)
        for n in sides:
            slices = build_slice_space(model, n)
            assert len(slices) == count_patterns_dfs(drop_last_axis(model), n)


def test_cli_imports_no_private_name_or_check():
    # the CLI parses and prints: every check is decided in the library
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.split(".")[0] == "sftbounds")
        for alias in node.names
    }
    assert imported
    assert sorted(name for name in imported if name.startswith("_")) == []
    checks = {
        "verify_key_inequality", "verify_power_mean_bound",
        "verify_doubling_monotonicity", "verify_qd_recurrence", "glue", "glue_single",
        "periodic_core", "tiling_witness", "is_locally_admissible",
    }
    assert sorted(imported & checks) == []

"""Every public top-level name in ``src/repro`` has a caller outside tests,
and ``core/layout.py`` is the one module that builds PDX blocks.

A name counts as used when it appears in code (not in a docstring) under
``src/``, ``jobs/``, ``benchmarks/`` or ``perfbench/`` as a loaded
``ast.Name``, as an ``ast.Attribute``'s attribute, or as an imported
name. ``perfbench/test_inputs.py`` is a test and does not count. Surface
that only tests reach belongs under ``tests/``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "jobs", "benchmarks", "perfbench")
EXCLUDED = {ROOT / "perfbench" / "test_inputs.py"}


def _public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_has_a_non_test_caller():
    used: set[str] = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            if path not in EXCLUDED:
                used |= _used_names(_parse(path))
    unused = [
        f"{path.relative_to(ROOT)}::{name}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for name in _public_definitions(_parse(path))
        if name not in used
    ]
    assert not unused, f"public names with no caller outside tests: {unused}"


def test_only_the_layout_module_constructs_pdx_units():
    """Every ``PDXBlock`` and ``PDXCollection`` comes from ``build_pdx`` or
    ``join_blocks``, so all units share one way of laying out vectors and
    computing their norms and dimension means."""
    layout = ROOT / "src" / "repro" / "core" / "layout.py"
    builders = {"PDXBlock", "PDXCollection"}
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        if path != layout
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in builders
    ]
    assert not calls, f"PDX units built outside core/layout.py: {calls}"

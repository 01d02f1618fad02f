"""Dead-definition guard.

Every top-level function, class and method in src/rieszkit must be named
somewhere else in src/, tests/ or perfbench/: as an identifier, an
attribute, an imported name, or a string (the benchmark's tracer looks some
functions up by name).  Dunder methods are called implicitly and are
exempt.  Names exported by the package's __init__.py are used by
definition, since they appear there as imported names.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rieszkit"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def _definitions(tree: ast.Module):
    """(name, line) of top-level functions and classes and their methods."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield item.name, item.lineno


def _mentions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def unreferenced_definitions(package: Path, searched) -> list[str]:
    used: Counter = Counter()
    for base in searched:
        for path in sorted(base.rglob("*.py")):
            used.update(_mentions(ast.parse(path.read_text(encoding="utf-8"))))
    dead = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not used[name]:
                dead.append(f"{path.name}:{line} {name}")
    return dead


def test_every_definition_is_referenced():
    assert unreferenced_definitions(PACKAGE, SEARCHED) == []


# The dispatch budget: occurrences of `Kind.` and `isinstance(` in the
# package, counted as the benchmark's `source_figures` counts them.  Per-kind
# facts live in the kind table of `spaces` and per-payload behaviour in the
# shape objects of `elements`; a new switch on the kind raises these counts.
KIND_DISPATCH_BUDGET = 9
ISINSTANCE_DISPATCH_BUDGET = 32


def dispatch_sites(package: Path) -> tuple[int, int]:
    kinds = isinst = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        kinds += text.count("Kind.")
        isinst += text.count("isinstance(")
    return kinds, isinst


def test_dispatch_sites_stay_within_budget():
    kinds, isinst = dispatch_sites(PACKAGE)
    assert kinds <= KIND_DISPATCH_BUDGET, kinds
    assert isinst <= ISINSTANCE_DISPATCH_BUDGET, isinst

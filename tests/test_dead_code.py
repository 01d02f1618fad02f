"""Dead-definition guard.

Every top-level function, class and method in src/rieszkit must be named
somewhere in the package's own modules or in perfbench/: as an identifier,
an attribute, an imported name, or a string (the benchmark's tracer looks
some functions up by name).  A name that only tests/ use does not count,
and neither does an export in the package's __init__.py: code that no
command and no benchmark operation reaches is deleted with its tests.
Dunder methods are called implicitly and are exempt.  The few definitions
kept on purpose are listed in ALLOWED, each with its reason; a name used
only inside an allowed definition does not count either, so what only an
allowed definition calls must be allowed on its own.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rieszkit"
SEARCHED = [PACKAGE, ROOT / "perfbench"]

# definitions no engine code or benchmark calls, kept on purpose
ALLOWED = {
    "truncate_operator": "truncation reference the oracle tests compare apply_op with",
    "matrix_apply": "the matrix product that truncation reference is checked with",
    "truncate_element": "the vector truncation of truncate_operator's columns, which the "
                        "oracle tests apply that matrix to",
    "inf2": "lattice API: the infimum, dual of sup2",
    "neg": "lattice API: the negative part, dual of pos",
    "zero_op": "lattice API: the zero operator, a boundary case of the tests",
}


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


def _reached(tree: ast.Module):
    """The module's nodes outside the definitions named in ALLOWED."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, defs) and node.name in ALLOWED:
            continue
        yield node
        todo.extend(ast.iter_child_nodes(node))


def _mentions(tree: ast.Module):
    for node in _reached(tree):
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
    exports = package / "__init__.py"
    for base in searched:
        for path in sorted(base.rglob("*.py")):
            if path != exports:
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
    dead = unreferenced_definitions(PACKAGE, SEARCHED)
    assert [d for d in dead if d.split()[-1] not in ALLOWED] == []
    # an allowance whose definition is gone, or now has a caller, goes too
    assert sorted(d.split()[-1] for d in dead) == sorted(ALLOWED)


# The dispatch budget: occurrences of `Kind.` and `isinstance(` in the
# package, counted as the benchmark's `source_figures` counts them.  Per-kind
# facts live in the kind table of `spaces` and per-payload behaviour in the
# shape objects of `elements`; a new switch on the kind raises these counts.
KIND_DISPATCH_BUDGET = 9
ISINSTANCE_DISPATCH_BUDGET = 18


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

"""Reach guard: every function of the package is entered by a shipped input.

The runs are what the CI's CLI step runs, in process through `cli.main`:
every command on every shipped spec (`fixtures/*.rzk`, `tests/specs/*.rzk`)
as JSON, as Markdown and at probes 1 and 32; the grid oracle at depths 0, 8
and 20; the casebook runs at the default probe and at 1, 32 and 128;
`matrix-positive-part`, `majorant-growth --levels 16` and
`dominating-search`; and `classify` on all 25 pairs of space kinds.  They
run under `sys.settrace`, which sees each function call, and the functions
of `src/rieszkit` that no run enters must be exactly those in ALLOWED, each
with its reason.  A new function that no shipped input reaches fails the
test: ship an input that reaches it, delete it, or give the reason here.  An
allowance whose function is now entered, or gone, fails it too.

Code objects are matched to definitions by (file, first line), read from
the source through `ast`, which also works on Python 3.10 (no
`co_qualname`); a decorated definition's code starts at its first
decorator.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

import rieszkit
from rieszkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(rieszkit.__file__).resolve().parent
SPECS = [*sorted((ROOT / "fixtures").glob("*.rzk")),
         *sorted((ROOT / "tests" / "specs").glob("*.rzk"))]
SPEC_COMMANDS = (
    ("check", "order_bounded"), ("check", "order_continuous"), ("positive-part",),
    ("project-oc",), ("witness-pervasive",), ("classify",), ("oracle", "grid-sup"),
    ("oracle", "majorant-growth"), ("oracle", "dominating-search"),
)
KINDS = ("findim(2)", "l0inf", "ck", "ek", "grid")

# functions no shipped input enters, each with its reason
ALLOWED = {
    # engine paths that no shipped input reaches (ROADMAP item 15)
    "spaces._LineForm.collides_at": "element_seq hides two atom forms that meet behind a "
                                    "prelude: no shipped sequence has two (test_forms checks it)",
    "spaces.PairForm.collides_at": "as _LineForm.collides_at, for pair forms",
    "spaces.PairForm.meets": "two entries of one pair rule class: no shipped spec has them "
                             "(test_cli's collision spec does)",
    "elements._RowBlockShape.support": "the engine asks for supports on ck and l0inf only",
    "specfile.SpecError.__init__": "every shipped spec parses; test_specfile and test_fuzz_cli "
                                   "reach the refusals",
    # the lattice and element API, kept on purpose
    "elements.sup2": "lattice API: the supremum; the benchmark's wide_lattice workload "
                     "times it, and test_oracles' product grid takes it of apply_op images",
    "elements.inf2": "lattice API: the infimum, dual of sup2",
    "scalars.qmin": "the infimum's kernel, which only inf2 calls",
    "elements.neg": "lattice API: the negative part, dual of pos",
    "elements.is_disjoint": "lattice API; the benchmark's wide_lattice workload times it",
    "elements.Element.__neg__": "operator sugar of the element API; the engine calls scale",
    "elements.Element.__rmul__": "operator sugar of the element API; the engine calls scale",
    "elements.Element.ambient": "accessor of a ck payload for the tests; the engine reads "
                                "payloads through their shape",
    "elements.Element.entries": "accessor of a ck payload for the tests",
    "elements.element_rowblock": "row-block constructor of the tests; specs build row blocks "
                                 "through recompose",
    "scalars.RationalSeq.kind": "names the form describe writes, for the tests",
    "spaces.KindRow.__repr__": "the short repr of a kind-table row, for debugging",
    "spaces.Affine.__repr__": "writes a form by its rationals a and b, the text "
                              "spec_outcomes.json pins; no command prints a repr",
    # references and helpers that tests and the benchmark call
    "convergence.decide_monotone_limit": "the monotone certificate of the API; the benchmark's "
                                         "wide_lattice workload times it, and the dominating "
                                         "search checks its two conditions itself (eventual "
                                         "pattern, then check_decreasing)",
    "oracles.majorant_growth_probe": "per-level wrapper the benchmark and tests call; the CLI "
                                     "runs majorant_floors",
    "records.record": "runs at import, before the trace starts",
    "records._shape": "compiles a record shape's methods, from record at import",
    "records._repr": "a record's repr: no command prints one; the tests pin them in "
                     "spec_outcomes.json",
    "records._setattr": "refuses assigning a record's field: no engine code assigns one",
    "records._delattr": "refuses deleting a record's field: no engine code deletes one",
    "records.DataclassFields.__get__": "builds the certificate's dataclass field table: only "
                                       "dataclasses' introspection reads it, and no shipped "
                                       "input does",
}


def runs():
    """The argument lists of every run."""
    for spec in SPECS:
        for cmd in SPEC_COMMANDS:
            for extra in ((), ("--markdown",), ("--probe", "1"), ("--probe", "32")):
                yield [*cmd, "--spec", str(spec), *extra]
    for spec in ("fixtures/moving_indicator.rzk", "tests/specs/ck_periodic.rzk",
                 "tests/specs/shift_positive.rzk"):
        for depth in ("0", "8"):
            yield ["oracle", "grid-sup", "--spec", str(ROOT / spec), "--depth", depth]
    yield ["oracle", "grid-sup", "--spec", str(SPECS[0]), "--depth", "20"]
    for name in ("not-directed", "bounded-not-regular", "projection-demo"):
        yield ["casebook", name]
        if name != "projection-demo":
            for probe in ("1", "32", "128"):
                yield ["casebook", name, "--probe", probe]
    yield ["oracle", "matrix-positive-part", "--matrix", "[[1,-2],[-3,4]]"]
    yield ["oracle", "majorant-growth", "--levels", "16"]
    yield ["oracle", "dominating-search"]
    for dom in KINDS:
        for cod in KINDS:
            yield ["classify", "--domain", dom, "--codomain", cod]


def definitions() -> dict:
    """{(file, first line of the code object): qualified name} of every
    function and method of the package, nested ones included."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[str(path), first] = name
                visit(child, f"{name}.", path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.", path)
    return found


def entered_functions() -> set:
    """The qualified names of the package's functions the runs enter."""
    defs = definitions()
    calls = set()

    def trace(frame, event, arg):
        code = frame.f_code
        calls.add((code.co_filename, code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for argv in runs():
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert 0 <= code <= 3, argv
    finally:
        sys.settrace(previous)
    entered = {(str(Path(name).resolve()), line) for name, line in calls}
    return {defs[key] for key in entered if key in defs}


def test_every_function_is_reached_by_a_shipped_input():
    unreached = set(definitions().values()) - entered_functions()
    assert sorted(unreached - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - unreached) == []

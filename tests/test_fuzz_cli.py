"""Seeded spec fuzzer: no input ends in a traceback, and no verdict depends
on --probe.

Mutants of the shipped spec files are made by token-level edits (replace,
delete or insert one token, once or twice), each source's from its own
stream seeded with a fixed seed and the file name, so that a new spec adds
mutants of its own and re-draws no other's.  Each mutant is run in
process through `cli.main`: a mutant the spec language refuses on one
command, any other on every spec command.  Every run must exit 0-3 and
print exactly one JSON document; a command that does not exit 2 at the
default probe must give the same exit code and verdict at probes 1, 8 and
32.

The mutants of a second seed, with edge cases of the index-form grammar,
pin what parsing and building does with each: `spec_outcomes.json` holds
its refusal text or a digest of the operators it builds.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

from rieszkit.cli import main
from rieszkit.elements import Element, render
from rieszkit.errors import RieszkitError
from rieszkit.operators import Operator
from rieszkit.specfile import build_all, parse

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [*sorted((ROOT / "fixtures").glob("*.rzk")),
           *sorted((ROOT / "tests" / "specs").glob("*.rzk"))]
SEED = 20261018
MUTANTS_PER_SOURCE = 100
PROBES = (8, 1, 32)
COMMANDS = (
    ("check", "order_bounded"),
    ("check", "order_continuous"),
    ("positive-part",),
    ("project-oc",),
    ("witness-pervasive",),
    ("oracle", "majorant-growth"),
    ("oracle", "dominating-search"),
)

# tokens of the spec language, comments kept whole so they are never edited;
# a replacement comes from the replaced token's class, so that many mutants
# still parse and reach the engine
_TOKEN = re.compile(r"#[^\n]*|\d+|[A-Za-z_]\w*|->|==|[^\s\w]")
_CLASSES = (
    ("0", "1", "2", "3", "5"),
    ("n", "m", "g", "e", "unit", "rowunit", "atoms", "rowunits", "mod",
     "ek", "grid", "l0inf", "ck", "findim"),
    ("->", "==", "=", ":", "{", "}", "(", ")", ",", "@", "*", "+", "/", ">", "-"),
)


def _class_of(token: str) -> tuple:
    return _CLASSES[0 if token[0].isdigit() else 1 if token[0].isalpha() else 2]


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.choice((1, 1, 2))):
        spans = [m.span() for m in _TOKEN.finditer(text) if m.group()[0] != "#"]
        start, end = rng.choice(spans)
        edit = rng.choice(("replace", "replace", "delete", "insert"))
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "replace":
            text = text[:start] + rng.choice(_class_of(text[start:end])) + text[end:]
        else:
            text = text[:start] + rng.choice(rng.choice(_CLASSES)) + " " + text[start:]
    return text


def mutant_stream(seed: int, source: Path) -> random.Random:
    """The random stream that draws the mutants of one source file."""
    return random.Random(f"{seed}:{source.name}")


def _builds(text: str) -> bool:
    try:
        build_all(parse(text))
    except RieszkitError:
        return False
    return True


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_spec_mutants_exit_cleanly_with_probe_independent_verdicts(tmp_path, capsys):
    failures = []
    spec = tmp_path / "mutant.rzk"
    for source in SOURCES:
        rng = mutant_stream(SEED, source)
        original = source.read_text(encoding="utf-8")
        for _ in range(MUTANTS_PER_SOURCE):
            text = mutate(original, rng)
            spec.write_text(text, encoding="utf-8")
            for cmd in COMMANDS if _builds(text) else COMMANDS[:1]:
                seen = {}
                for probe in PROBES:
                    argv = [*cmd, "--spec", str(spec), "--probe", str(probe)]
                    try:
                        code, rep = run(capsys, argv)
                    except Exception as e:  # a traceback or a bad JSON document
                        failures.append((text, argv, repr(e)))
                        break
                    if code not in (0, 1, 2, 3):
                        failures.append((text, argv, f"exit {code}"))
                        break
                    seen[probe] = (code, rep.get("verdict", rep.get("error")))
                    if probe == 8 and code == 2:
                        break
                if len(set(seen.values())) > 1 and seen[8][0] != 2:
                    failures.append((text, cmd, f"verdict depends on --probe: {seen}"))
    assert not failures, "\n\n".join(f"{a}\n{t}" for t, *a in failures[:5])


# ---------------------------------------------------------------------------
# pinned parse/build outcomes

OUTCOMES = Path(__file__).with_name("spec_outcomes.json")
OUTCOME_SEED = 20261019  # not the fuzzer's seed, so the mutants differ
OUTCOME_MUTANTS_PER_SOURCE = 150
# (domain, codomain, rule variable, coordinate): affine forms at the edges
# of the index-form grammar, in line, token and pair coordinates
AFFINE_EDGES = [
    *(("l0inf", "l0inf", "n", c) for c in (
        "2n/3", "n/3", "2/3n", "(n+1)/2", "n+", "()", "n m", "", "n/3n", "2 3",
        "-n+5", "--n", "-+n", "+", "n-n+1", "2(n)", "(n)(n)", "n*2", "2*n", "n/3/2",
        "2/3/4", "((n+1)/2+1)/2", "(n)/0", "n/", "(n", "m", "g", "(n,1)", "g(n)",
        "n+(n)/2", "3/2n-1/2", "2n+1 ) ", "1+(n+1)/2", "n+(n+3)/2", "1+(n)/3/2")),
    *(("l0inf", "ck", "n", c) for c in (
        "g(n)", "g(2n-1)", "g()", "g(n/2)", "g(0)", "n", "g((n+1)/2)", "g(2n/3)",
        "g((n+1)/0)", "g((n)/3)", "g(2(n))", "g(1/2n+1/2)", "g(n+)")),
    *(("ek", "ek", "m", c) for c in (
        "(n,m)", "(m,n)", "(n,n)", "(m,m)", "(2n,(m+1)/2)", "(n+1,m)", "(1,m)", "(n,)",
        "(,m)", "(n,m/2)", "(n/2,m)", "(n m,m)", "m", "g(m)", "(n,(m+1)/2)",
        "(n,(m)/2+m/2)", "(n,2m/3)", "(n-,m)")),
]


def _built_text(value) -> str:
    """The repr of what a spec builds, with each element written as its
    space and its `render` text: the digest pins the values built, not the
    layout of a payload."""
    if isinstance(value, Element):
        return f"Element({value.space!r}, {render(value)})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k!r}: {_built_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_built_text, value)) + ("," if len(value) == 1 else "") + ")"
    if isinstance(value, Operator):
        fields = ", ".join(f"{f}={_built_text(getattr(value, f))}" for f in value._fields)
        return f"{type(value).__qualname__}({fields})"
    return repr(value)


def spec_outcome(text: str) -> str:
    """The error a spec text is refused with, or a digest of what it builds."""
    try:
        built = build_all(parse(text))
    except RieszkitError as e:
        return f"{type(e).__name__}: {e}"
    return hashlib.sha256(_built_text(built).encode()).hexdigest()[:16]


def spec_outcomes() -> dict:
    """Outcome of each seeded token mutant of the shipped specs, then of each
    affine edge case in a one-rule operator."""
    out = {}
    for source in SOURCES:
        rng = mutant_stream(OUTCOME_SEED, source)
        original = source.read_text(encoding="utf-8")
        for i in range(OUTCOME_MUTANTS_PER_SOURCE):
            out[f"{source.name} #{i}"] = spec_outcome(mutate(original, rng))
    for dom, cod, var, coord in AFFINE_EDGES:
        out[f"{dom} -> {cod}, {var}: 1 @ {coord}"] = spec_outcome(
            f"space E = {dom}\nspace F = {cod}\n\noperator T : E -> F {{\n"
            f"  atoms {var} > 0 -> {{ 1 @ {coord} }}\n  unit -> 0\n}}\n")
    return out


def test_parse_and_build_outcomes_are_pinned():
    """Every mutant and edge case is refused with the same text, or builds
    the same operators, as `spec_outcomes.json` records."""
    pinned = json.loads(OUTCOMES.read_text(encoding="utf-8"))
    table = spec_outcomes()
    assert sorted(table) == sorted(pinned)
    for key, outcome in table.items():
        assert outcome == pinned[key], key

"""Seeded spec fuzzer: no input ends in a traceback, and no verdict depends
on --probe.

Mutants of the shipped spec files are made by token-level edits (replace,
delete or insert one token, once or twice) with a fixed seed, and each is
run in process through `cli.main`: a mutant the spec language refuses on
one command, any other on every spec command.  Every run must exit 0-3 and
print exactly one JSON document; a command that does not exit 2 at the
default probe must give the same exit code and verdict at probes 1, 8 and
32.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from rieszkit.cli import main
from rieszkit.errors import RieszkitError
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
    rng = random.Random(SEED)
    failures = []
    spec = tmp_path / "mutant.rzk"
    for source in SOURCES:
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

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rieszkit.errors import RieszkitError
from rieszkit.scalars import Q
from rieszkit.spaces import gamma
from rieszkit.elements import atom, element_findev, row_unit, unit, zero
from rieszkit.operators import apply_op, atom_image, order_bounded_test
from rieszkit.cli import main
from rieszkit.specfile import SpecError, build_all, parse

MOVING = Path("fixtures/moving_indicator.rzk").read_text()
ROWPAIR = Path("fixtures/row_pair_difference.rzk").read_text()


def test_parse_moving_indicator():
    spec = parse(MOVING)
    assert [s.name for s in spec.spaces] == ["E", "F"]
    spaces, ops = build_all(spec)
    T = ops["T"]
    assert atom_image(T, 1) == element_findev(spaces["F"], {gamma(1): 1}, 0)
    assert atom_image(T, 4) == element_findev(
        spaces["F"], {gamma(4): 1, gamma(3): -1}, 0
    )
    assert apply_op(T, unit(spaces["E"])).is_zero()
    # `check` is not a statement of the grammar
    with pytest.raises(SpecError) as err:
        parse(MOVING + "\ncheck order_bounded on T\n")
    line = MOVING.count("\n") + 2
    assert str(err.value) == (
        f"line {line}:1: unknown statement 'check' (expected space, operator)")


def test_parse_row_pair_difference():
    spec = parse(ROWPAIR)
    spaces, ops = build_all(spec)
    T = ops["T"]
    E = spaces["E"]
    assert apply_op(T, atom(E, (1, 1))) == atom(spaces["F"], (1, 1))
    assert apply_op(T, row_unit(E, 1)).is_zero()
    assert order_bounded_test(T).bounded


def test_truncated_operator_reports_position():
    with pytest.raises(SpecError) as err:
        parse("space E = l0inf\noperator T : E -> ")
    assert "line 2" in str(err.value)


def test_nonaffine_index_form_rejected():
    text = """\
space E = l0inf
space F = l0inf

operator T : E -> F {
  atoms n > 0 -> { 1 @ n*n }
  unit -> 0
}
"""
    with pytest.raises(SpecError) as err:
        parse(text)
    assert "non-affine" in str(err.value)


def test_unknown_space_kind():
    with pytest.raises(SpecError) as err:
        parse("space E = banach\n")
    assert "unknown space kind" in str(err.value)


@pytest.mark.parametrize("text, col", [("space E = l0inf $", 17), ("space E = l0inf$", 16),
                                       ("$ space E = l0inf", 1)])
def test_an_unexpected_character_is_named_at_its_own_column(text, col):
    with pytest.raises(SpecError) as err:
        parse(text + "\n")
    assert str(err.value) == f"line 1:{col}: unexpected character '$'"


def test_missing_unit_clause():
    text = """\
space E = l0inf
space F = l0inf

operator T : E -> F {
  e(1) -> 1 @ 1
}
"""
    spec = parse(text)
    with pytest.raises(SpecError) as err:
        build_all(spec)
    assert "unit clause" in str(err.value)


@pytest.mark.parametrize("domain, codomain, clause, message", [
    ("findim(2)", "l0inf", "e(5) -> 1 @ 1", "atom 5 outside the domain"),
    ("l0inf", "l0inf", "rowunit(1) -> 1 @ 1", "row-unit images need an ek domain"),
    ("l0inf", "findim(2)", "e(1) -> 1 @ 7", "atom index 7 out of range"),
    ("l0inf", "l0inf", "e(0) -> 1 @ 1", "atom index 0 out of range"),
    ("l0inf", "ck", "e(1) -> 1 @ g(0)", "line tokens are indexed from 1"),
], ids=["findim-atom", "rowunit-on-l0inf", "codomain-index", "l0inf-atom", "token-0"])
def test_build_errors_name_the_operator_line(domain, codomain, clause, message):
    text = f"""\
space E = {domain}
space F = {codomain}

operator T : E -> F {{
  {clause}
  unit -> 0
}}
"""
    if domain.startswith("findim"):
        text = text.replace("  unit -> 0\n", "")
    with pytest.raises(SpecError) as err:
        build_all(parse(text))
    assert str(err.value) == f"line 4:1: operator 'T': {message}"


@pytest.mark.parametrize("clause", [
    "e(1) -> 1/0 @ 1",
    "atoms n > 0 -> { 1 @ n/0 }",
    "atoms n > 0 -> { 1 @ 2/0n }",
    "atoms m > 0 -> { 1 @ (n,(m+1)/0) }",
], ids=["scalar", "variable", "number", "group"])
def test_zero_denominator_is_a_spec_error(clause, tmp_path, capsys):
    """A zero denominator is an input error at its token: the CLI exits 2
    with one JSON document."""
    text = f"""\
space E = l0inf
space F = l0inf

operator T : E -> F {{
  {clause}
  unit -> 0
}}
"""
    col = 2 + clause.index("/0") + 2  # the indent, then the 0 after the slash
    with pytest.raises(SpecError) as err:
        parse(text)
    assert str(err.value) == f"line 5:{col}: zero denominator"
    spec = tmp_path / "zero_denominator.rzk"
    spec.write_text(text, encoding="utf-8")
    assert main(["check", "order_bounded", "--spec", str(spec)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": str(err.value), "kind": "input"}


@pytest.mark.parametrize("coord, col", [("(m,n)", 25), ("(m,m)", 25), ("(n,n)", 27)],
                         ids=["transpose", "row-reads-m", "column-reads-n"])
def test_pair_row_reads_n_and_column_the_rule_variable(coord, col):
    """A pair coordinate's row reads only n (the row) and its column only
    the rule variable; `(m,n)` used to be read as `(n,m)`."""
    text = f"""\
space E = ek
space F = ek

operator T : E -> F {{
  atoms m > 0 -> {{ 1 @ {coord} }}
  rowunits n > 0 -> 0
  unit -> 0
}}
"""
    name = coord[col - 24]
    with pytest.raises(SpecError) as err:
        parse(text)
    assert str(err.value) == f"line 5:{col}: unknown variable {name!r}"
    spaces, ops = build_all(parse(text.replace(coord, "(n,m)")))
    assert apply_op(ops["T"], atom(spaces["E"], (1, 2))) == atom(spaces["F"], (1, 2))


def test_scalar_fractions_parse():
    text = """\
space E = l0inf
space F = l0inf

operator T : E -> F {
  e(1) -> 3/2 @ 2 + -1/2 * unit
  unit -> 0
}
"""
    spec = parse(text)
    _, ops = build_all(spec)
    img = atom_image(ops["T"], 1)
    from rieszkit.elements import coordinate

    assert coordinate(img, 2) == Q(3, 2) - Q(1, 2)
    assert img.tail == Q(-1, 2)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_parser_never_panics_on_fuzz(text):
    try:
        parse(text)
    except RieszkitError:
        pass  # diagnostics are the contract; crashes are not


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(MOVING) - 1), st.characters())
def test_parser_survives_mutations(pos, ch):
    mutated = MOVING[:pos] + ch + MOVING[pos + 1 :]
    try:
        parse(mutated)
    except RieszkitError:
        pass


def _one_rule(coord: str) -> str:
    return f"""\
space E = l0inf
space F = l0inf

operator T : E -> F {{
  atoms n > 1 -> {{ 1 @ {coord} }}
  unit -> 0
}}
"""


@pytest.mark.parametrize("coord, col, message", [
    ("n--1", 26, "unexpected '-' in index form"),
    ("--n", 25, "unexpected '-' in index form"),
    ("-+n", 25, "unexpected '+' in index form"),
    ("n 1", 26, "unexpected '1' in index form"),
    ("2 3", 26, "unexpected '3' in index form"),
    ("2(n)", 25, "unexpected '(' in index form"),
    ("n+", 25, "sign '+' without a term"),
    ("+", 24, "sign '+' without a term"),
], ids=["sign-run", "leading-run", "mixed-run", "term-number", "number-number",
        "number-group", "trailing", "sign-alone"])
def test_affine_sums_are_signed_terms(coord, col, message, tmp_path, capsys):
    """An index form is [sign] TERM (sign TERM)*: a run of signs, a term
    with no sign before it and a sign with no term after it are refused at
    the offending token; `n--1` used to read n-1."""
    with pytest.raises(SpecError) as err:
        parse(_one_rule(coord))
    assert str(err.value) == f"line 5:{col}: {message}"
    spec = tmp_path / "affine.rzk"
    spec.write_text(_one_rule(coord), encoding="utf-8")
    assert main(["check", "order_bounded", "--spec", str(spec)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == str(err.value)


def test_signed_terms_still_read():
    spaces, ops = build_all(parse(_one_rule("-1+n-(n-1)/1+n")))
    assert atom_image(ops["T"], 3) == atom(spaces["F"], 3)


@pytest.mark.parametrize("space, first, again, text", [
    ("l0inf", "e(1) -> 1 @ 1", "e(1) -> 2 @ 1", "e(1)"),
    ("ek", "rowunit(2) -> 1 @ (1,1)", "rowunit(2) -> 0", "rowunit(2)"),
    ("l0inf", "unit -> 0", "unit -> 1 * unit", "unit"),
    ("ek", "rowunits n > 0 -> 0", "rowunits n > 3 -> 0", "rowunits"),
], ids=["atom", "rowunit", "unit", "rowunits"])
def test_a_repeated_clause_is_refused_at_its_line(space, first, again, text):
    """Each clause but `atoms` may appear once per operator (per index for
    `e` and `rowunit`); a second one used to replace the first silently."""
    unit = "" if text == "unit" else "  unit -> 0\n"
    spec = (f"space E = {space}\nspace F = {space}\n\noperator T : E -> F {{\n"
            f"  {first}\n  atoms n > 5 -> 0\n  {again}\n{unit}}}\n")
    with pytest.raises(SpecError) as err:
        parse(spec)
    assert str(err.value) == f"line 7:3: repeated clause {text!r}"
    build_all(parse(spec.replace(f"  {again}\n", "")))
    if text.endswith(")"):  # another index is another clause
        build_all(parse(spec.replace(text, text[:-2] + "3)", 1)))


# the identity on l0inf, with the odd atoms and the even atoms past 3 in two
# rules of different thresholds
SPLIT_THRESHOLD_IDENTITY = """\
space E = l0inf

operator T : E -> E {
  atoms n > 0, n mod 2 == 1 -> { 1 @ n }
  atoms n > 3, n mod 2 == 0 -> { 1 @ n }
  unit -> 1 * unit
}
"""


def test_atoms_rules_with_different_thresholds_are_refused(tmp_path, capsys):
    """Every `atoms` rule of an operator shares one threshold.  The rules
    used to be merged at the largest one, so this spec built T(e1) = T(e3)
    = 0 and `check order_continuous` called the identity not order
    continuous."""
    with pytest.raises(SpecError) as err:
        parse(SPLIT_THRESHOLD_IDENTITY)
    assert str(err.value) == (
        "line 5:3: atoms threshold 3 differs from 0; every atoms rule shares one threshold")
    spec = tmp_path / "thresholds.rzk"
    spec.write_text(SPLIT_THRESHOLD_IDENTITY, encoding="utf-8")
    assert main(["check", "order_continuous", "--spec", str(spec)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": str(err.value), "kind": "input"}
    # with one threshold the two rules build the identity
    spec.write_text(SPLIT_THRESHOLD_IDENTITY.replace("n > 3", "n > 0"), encoding="utf-8")
    spaces, ops = build_all(parse(spec.read_text(encoding="utf-8")))
    assert all(atom_image(ops["T"], i) == atom(spaces["E"], i) for i in range(1, 9))
    assert main(["check", "order_continuous", "--spec", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "order continuous"

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rieszkit.calculus import pervasive_witness, verify_witness
from rieszkit.casebook import CASEBOOK
from rieszkit.cli import main
from rieszkit.operators import is_positive_operator
from rieszkit.oracles import MAX_GRID_DEPTH
from rieszkit.specfile import build_all, parse

MOVING = "fixtures/moving_indicator.rzk"
ROWPAIR = "fixtures/row_pair_difference.rzk"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_order_continuous_true(capsys):
    code, out = run_cli(capsys, "check", "order_continuous", "--spec", MOVING)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "order continuous"
    assert rep["engine_version"] == "0.1.0"


def test_check_order_bounded(capsys):
    code, out = run_cli(capsys, "check", "order_bounded", "--spec", ROWPAIR)
    assert code == 0
    assert json.loads(out)["verdict"] == "order bounded"


def test_positive_part_refuted_exit_code(capsys):
    code, out = run_cli(capsys, "positive-part", "--spec", ROWPAIR)
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] == "positive part does not exist in the operator space"
    assert rep["details"]["pervasiveness_route"] == "atomic-codomain"


def test_positive_part_row_tails(capsys):
    # ek_row_tail's row tail lies in the space but does not vanish; the
    # fixture's leaves the space
    code, out = run_cli(capsys, "positive-part", "--spec", SPECS["ek_row_tail"])
    rep = json.loads(out)
    assert (code, rep["verdict"]) == (1, "candidate not representable; existence undecided")
    assert rep["certificate"]["failing_generator"] == "row units beyond the table do not vanish"
    code, out = run_cli(capsys, "positive-part", "--spec", ROWPAIR)
    rep = json.loads(out)
    assert (code, rep["verdict"]) == (1, "positive part does not exist in the operator space")
    assert rep["certificate"]["failing_generator"] == "row units beyond the table"


@pytest.mark.parametrize("clause, message", [
    ("atoms n > 5 -> { 1 @ n }", "finite-dimensional domains have no tail rule"),
    ("unit -> 7 * unit", "unit image must equal the sum of atom images"),
], ids=["atoms", "unit"])
def test_findim_operator_clauses_are_checked(tmp_path, capsys, clause, message):
    spec = tmp_path / "findim.rzk"
    spec.write_text(
        "space E = findim(2)\nspace F = l0inf\n\n"
        f"operator T : E -> F {{\n  e(1) -> 1 @ 1\n  {clause}\n}}\n"
    )
    code, out = run_cli(capsys, "check", "order_bounded", "--spec", str(spec))
    assert code == 2
    assert json.loads(out) == {"error": f"line 4:1: operator 'T': {message}", "kind": "input"}


def test_pair_domain_rule_into_a_line_codomain_is_refused(tmp_path, capsys):
    """A rule on an ek domain reads each atom's (row, column) pair, which a
    line codomain's forms cannot: the operator line is refused, so no
    command reaches the engine with it (majorant-growth used to end in a
    traceback, check order_bounded in a verdict)."""
    spec = tmp_path / "pair_rule.rzk"
    spec.write_text(
        "space E = ek\nspace F = l0inf\n\n"
        "operator T : E -> F {\n  atoms m > 0 -> { 1 @ m }\n"
        "  rowunits n > 0 -> 0\n  unit -> 0\n}\n"
    )
    message = "line 4:1: operator 'T': rules on ek need a row-block codomain, not l0inf"
    for argv in (["oracle", "majorant-growth"], ["check", "order_bounded"]):
        code, out = run_cli(capsys, *argv, "--spec", str(spec))
        assert (code, out) == (2, _input_error(message))


def test_dominating_search_refuses_a_pair_rule_on_a_line_domain(tmp_path, capsys):
    """A pair-form rule reads an atom's (row, column), which an l0inf domain
    does not have: the operator is refused when it is built, before the
    search, as an input error."""
    spec = tmp_path / "pair_on_line.rzk"
    spec.write_text(
        "space E = l0inf\nspace F = ek\n\n"
        "operator T : E -> F {\n  atoms m > 0 -> { 1 @ (1,m) }\n  unit -> 0\n}\n"
    )
    code, out = run_cli(capsys, "oracle", "dominating-search", "--spec", str(spec))
    assert (code, out) == (2, _input_error(
        "line 4:1: operator 'T': rules into ek need a row-block domain, not l0inf"))


def test_witness_pervasive_on_nonpositive_is_input_error(capsys):
    code, out = run_cli(capsys, "witness-pervasive", "--spec", MOVING)
    assert code == 2
    assert "not positive" in json.loads(out)["error"]


@pytest.mark.parametrize("probe", ["1", "8", "32"])
def test_witness_pervasive_refuses_an_atom_row_without_a_row_unit_entry(capsys, probe):
    """ek_atom_row's T sends r(5) - e(5,1) >= 0 to -e(1,1): not positive."""
    code, out = run_cli(capsys, "witness-pervasive", "--spec", SPECS["ek_atom_row"],
                        "--probe", probe)
    assert (code, out) == (2, _input_error("T is not positive"))


def test_witness_report_prints_the_row_unit_coefficients(capsys):
    """The witness functional on ek_row_functional reads row 1's eventual
    value: its row-unit coefficient is printed with the atom coefficients
    and the unit value, and no report prints an empty row-unit table."""
    code, out = run_cli(capsys, "witness-pervasive", "--spec", SPECS["ek_row_functional"])
    functional = json.loads(out)["certificate"]["functional"]
    assert list(functional.items()) == [
        ("atom_coeffs", {}), ("row_unit_coeffs", {"1": "1"}), ("unit_value", "1")]
    code, out = run_cli(capsys, "witness-pervasive", "--spec", SPECS["even_atoms"])
    assert "row_unit_coeffs" not in json.loads(out)["certificate"]["functional"]


@pytest.mark.parametrize("probe", ["1", "8", "32"])
def test_witness_pervasive_succeeds_on_a_positive_spec(capsys, probe):
    code, out = run_cli(capsys, "witness-pervasive", "--spec",
                        "tests/specs/shift_positive.rzk", "--probe", probe)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "rank-one minorant found"
    assert rep["transcript"][0] == "R is positive and nonzero"


@pytest.mark.parametrize("spec, generator, coordinate", [
    ("tests/specs/even_atoms.rzk", "e(2)", "2"),
    ("tests/specs/ek_row_functional.rzk", "unit", "1"),
], ids=["residue class rule", "ek unit"])
def test_witness_pervasive_is_the_same_at_every_probe(capsys, spec, generator, coordinate):
    """The witness on a rule that vanishes on a residue class, and on an ek
    operator that vanishes on every atom, is found, and is the same witness,
    at probes 1, 2, 3, 8 and 32 (the transcript names the probed window)."""
    found = set()
    for probe in ("1", "2", "3", "8", "32"):
        code, out = run_cli(capsys, "witness-pervasive", "--spec", spec, "--probe", probe)
        rep = json.loads(out)
        assert (code, rep.get("verdict")) == (0, "rank-one minorant found"), out
        found.add(json.dumps(rep["certificate"]))
    assert len(found) == 1
    cert = json.loads(found.pop())
    assert (cert["generator"], cert["coordinate"]) == (generator, coordinate)


def _spec_file(tmp_path, dom, cod, *clauses) -> str:
    spec = tmp_path / "spec.rzk"
    body = "".join(f"  {c}\n" for c in clauses)
    spec.write_text(f"space E = {dom}\nspace F = {cod}\n\noperator T : E -> F {{\n{body}}}\n")
    return str(spec)


def test_witness_pervasive_cites_the_codimension_route(tmp_path, capsys):
    """T vanishes on every atom of l0inf, whose atom span closure has
    codimension one: T itself is the witness, with no coordinate, and the
    report cites that route, not the coordinate composition."""
    spec = _spec_file(tmp_path, "l0inf", "l0inf", "unit -> 1 @ 1")
    code, out = run_cli(capsys, "witness-pervasive", "--spec", spec)
    rep = json.loads(out)
    assert (code, rep["verdict"]) == (0, "rank-one minorant found")
    assert rep["certificate"]["coordinate"] is None
    assert rep["theorem_refs"] == ["atom-span-codim-one-witness", "rank-one-pervasive"]


def test_positive_part_past_the_representable_fragment_is_unsupported(tmp_path, capsys):
    """On ek, e(n,m) -> e(n,m) - e(n+1,m) has a row correction past the
    table rows: T+(unit) leaves the representable fragment, which is an
    unsupported hypothesis (exit 3), not an input error."""
    spec = _spec_file(tmp_path, "ek", "ek", "atoms m > 0 -> { 1 @ (n,m), -1 @ (n+1,m) }",
                      "rowunits n > 0 -> 0", "unit -> 0")
    code, out = run_cli(capsys, "positive-part", "--spec", spec)
    assert code == 3
    assert json.loads(out) == {
        "error": "positive-part values for this operator family leave the "
                 "representable completion fragment",
        "kind": "unsupported-hypothesis",
    }


def test_a_pair_rule_from_a_sequence_domain_is_an_input_error(tmp_path, capsys):
    """T e_n = e_(n,1) has no reading as a rule: a pair form's row is the
    free row variable of a row-block domain.  It used to be read both ways
    and called not order bounded."""
    spec = _spec_file(tmp_path, "l0inf", "grid", "atoms n > 0 -> { 1 @ (n,1) }", "unit -> 0")
    code, out = run_cli(capsys, "check", "order_bounded", "--spec", spec)
    assert (code, out) == (2, _input_error(
        "line 4:1: operator 'T': rules into grid need a row-block domain, not l0inf"))


def test_pair_rows_that_meet_at_row_zero_build(tmp_path, capsys):
    """Rows n and 2n meet only at n = 0, which is no row: the rule builds."""
    spec = _spec_file(tmp_path, "ek", "grid", "atoms m > 0 -> { 1 @ (n,m), 1 @ (2n,m) }",
                      "unit -> 0")
    code, out = run_cli(capsys, "check", "order_bounded", "--spec", spec)
    assert (code, json.loads(out)["verdict"]) == (0, "order bounded")


# Odd columns from 3 on map to (1, 2), even columns from 2 on to (1, 2): each
# leak is read at the first column of its entry's class.
ODD_LEAK = ("atoms m > 1, m mod 2 == 1 -> { 1 @ (1,(m+1)/2) }", "rowunits n > 0 -> 0",
            "unit -> 0")
EVEN_LEAK = ("atoms m > 0, m mod 2 == 0 -> { 1 @ (1,m) }", "rowunits n > 0 -> 0",
             "unit -> 0")
LEAK_NOTE = "coordinate (1, 2) accumulates unboundedly through the tail rule"


@pytest.mark.parametrize("clauses", [ODD_LEAK, EVEN_LEAK], ids=["odd", "even"])
def test_a_stationary_leak_is_read_on_its_class(tmp_path, capsys, clauses):
    """Read at the threshold + 1 instead, the odd rule's column (m+1)/2 was
    not integral (every command exited 2) and the even rule's leak was
    named at (1, 1), which that rule never reaches."""
    spec = _spec_file(tmp_path, "ek", "grid", *clauses)
    code, out = run_cli(capsys, "check", "order_bounded", "--spec", spec)
    rep = json.loads(out)
    assert (code, rep["verdict"], rep["details"]["note"]) == (1, "not order bounded", LEAK_NOTE)
    code, out = run_cli(capsys, "positive-part", "--spec", spec)
    assert (code, out) == (2, _input_error(f"operator is not order bounded: {LEAK_NOTE}"))
    code, out = run_cli(capsys, "witness-pervasive", "--spec", spec)
    assert (code, out) == (2, _input_error("T is not positive"))


def test_a_pair_collision_is_named_at_its_class(tmp_path, capsys):
    """Both entries of the even class meet on row 1 at every column, and the
    class's first column is 2, the index the refusal names; threshold + 1
    named column 1, which the rule never drives."""
    spec = _spec_file(tmp_path, "ek", "grid",
                      "atoms m > 0, m mod 2 == 0 -> { 1 @ (n,m), 1 @ (1,m) }",
                      "rowunits n > 0 -> 0", "unit -> 0")
    code, out = run_cli(capsys, "check", "order_bounded", "--spec", spec)
    assert (code, out) == (2, _input_error("line 4:1: operator 'T': stencil entries collide at "
                                           "index 2; materialize it as an explicit image"))


_FIRST_ATOM = {"findim(2)": "1", "l0inf": "1", "ck": "g(1)", "ek": "(1,1)", "grid": "(1,1)"}


def _witness_table():
    """Positive operators on every pair with a representable domain: the
    first atom to the first atom (with the unit there too), and off findim
    the unit to the unit; on ek the first row unit goes to the first atom
    as well.  Then one rule per coordinate-form type."""
    for dom in ("findim(2)", "l0inf", "ek", "grid"):
        for cod in _FIRST_ATOM:
            a = _FIRST_ATOM[cod]
            first = f"{'e(1,1)' if dom in ('ek', 'grid') else 'e(1)'} -> 1 @ {a}"
            templates = {"atom": [first]}
            if dom != "findim(2)":
                templates = {"atom": [first, f"unit -> 1 @ {a}"], "unit": ["unit -> 1 * unit"]}
            for name, clauses in templates.items():
                if dom == "ek":
                    clauses = [*clauses[:-1], f"rowunit(1) -> 1 @ {a}", "rowunits n > 1 -> 0",
                               clauses[-1]]
                yield pytest.param(dom, cod, clauses, id=f"{dom}-{cod}-{name}")
    for dom, cod, rule in [("l0inf", "l0inf", "atoms n > 0 -> { 1 @ n+1 }"),
                           ("l0inf", "ck", "atoms n > 0 -> { 1 @ g(2n) }"),
                           ("grid", "grid", "atoms m > 0 -> { 1 @ (n,m) }"),
                           ("grid", "ek", "atoms m > 0, m mod 2 == 1 -> { 1 @ (n+1,(m+1)/2) }")]:
        yield pytest.param(dom, cod, [rule, "unit -> 1 * unit"], id=f"{dom}-{cod}-rule")


@pytest.mark.parametrize("dom, cod, clauses", list(_witness_table()))
def test_witness_pervasive_succeeds_on_every_pair(tmp_path, capsys, dom, cod, clauses):
    """At probes 1 and 32 the witness is found, and the witness verifier
    accepts it at every probe."""
    spec = _spec_file(tmp_path, dom, cod, *clauses)
    T = build_all(parse(Path(spec).read_text()))[1]["T"]
    for probe in (1, 32):
        code, out = run_cli(capsys, "witness-pervasive", "--spec", spec, "--probe", str(probe))
        assert (code, json.loads(out)["verdict"]) == (0, "rank-one minorant found"), out
        R = pervasive_witness(T, probe).operator
        assert all(verify_witness(R, T, p)[0] for p in (1, 2, 3, 8, 32))


@pytest.mark.parametrize("depth", ["0", "2", "4"])
def test_grid_sup_assembles_row_block_targets(tmp_path, capsys, depth):
    """Two atom images on one grid row of a grid target: the oracle
    assembles the same value at depths 0, 2 and 4."""
    spec = _spec_file(tmp_path, "l0inf", "grid", "e(1) -> 1 @ (1,1)", "e(2) -> 1 @ (1,2)",
                      "unit -> 1 * unit")
    code, out = run_cli(capsys, "oracle", "grid-sup", "--spec", spec, "--depth", depth)
    assert (code, json.loads(out)["oracle"]["value"]) == (0, "[|1]")


@pytest.mark.parametrize("argv", [
    ["--probe", "1", "witness-pervasive", "--spec", "tests/specs/shift_positive.rzk"],
    ["--spec", MOVING, "check", "order_bounded"],
    ["--markdown", "check", "order_bounded", "--spec", MOVING],
], ids=["probe", "spec", "markdown"])
def test_common_options_before_the_command_are_refused(capsys, argv):
    """The common options belong to the subcommands: placed before the
    command they are a usage error (exit 2, nothing on standard output),
    never a run with the subcommand's defaults in their place."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rieszkit: error:" in captured.err


def test_witness_pervasive_on_zero_operator_is_input_error(tmp_path, capsys):
    spec = tmp_path / "zero.rzk"
    spec.write_text(
        "space E = l0inf\nspace F = l0inf\n\n"
        "operator Z : E -> F {\n  unit -> 0\n}\n"
    )
    code, out = run_cli(capsys, "witness-pervasive", "--spec", str(spec))
    assert code == 2
    assert "not positive" in json.loads(out)["error"]


def test_classify(capsys):
    code, out = run_cli(capsys, "classify", "--domain", "l0inf", "--codomain", "l0inf")
    assert code == 0
    rep = json.loads(out)
    assert "interval-supremum formula" in rep["verdict"]
    assert "order-continuous regular operators form a band" in rep["verdict"]


def test_classify_rejects_a_findim_label_without_a_dimension(capsys):
    code, out = run_cli(capsys, "classify", "--domain", "findim(x)", "--codomain", "l0inf")
    assert code == 2
    assert json.loads(out)["error"] == "unknown space kind 'findim(x)'"


@pytest.mark.parametrize("flags, error", [
    (("--domain", "Foo", "--codomain", "ek"), "--domain 'Foo' names no space of the spec file"),
    (("--codomain", "ek"), "--codomain 'ek' names no space of the spec file"),
    (("--domain", "l0inf"), "--domain 'l0inf' names no space of the spec file"),
], ids=["unknown-domain", "kind-as-codomain", "kind-as-domain"])
def test_classify_spec_refuses_a_name_the_spec_does_not_declare(flags, error, capsys):
    """With --spec, --domain and --codomain name spaces of the spec; any
    other name used to fall back silently to the spec's first spaces."""
    code, out = run_cli(capsys, "classify", "--spec", MOVING, *flags)
    assert (code, json.loads(out)) == (2, {"error": error, "kind": "input"})


def test_classify_spec_reads_the_named_spaces(tmp_path, capsys):
    for flags, pair in (((), "l0inf -> ck"), (("--domain", "F"), "ck -> ck"),
                        (("--domain", "F", "--codomain", "E"), "ck -> l0inf")):
        code, out = run_cli(capsys, "classify", "--spec", MOVING, *flags)
        assert (code, json.loads(out)["command"]) == (0, f"classify {pair}")
    spec = tmp_path / "no_space.rzk"
    spec.write_text("# no declaration\n", encoding="utf-8")
    code, out = run_cli(capsys, "classify", "--spec", str(spec))
    assert (code, json.loads(out)["error"]) == (2, "the spec file declares no space")


def test_casebook_command(capsys):
    code, out = run_cli(capsys, "casebook", "not-directed")
    assert code == 0
    assert json.loads(out)["verdict"] == "not directed"


def test_oracle_matrix(capsys):
    code, out = run_cli(
        capsys, "oracle", "matrix-positive-part", "--matrix", "[[1,-2],[-3,4]]"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["oracle"]["positive_part"] == [["1", "0"], ["0", "4"]]


def test_oracle_dominating_search_default_subject(capsys):
    code, out = run_cli(capsys, "oracle", "dominating-search", "--bound", "4")
    assert code == 1
    assert json.loads(out)["verdict"] == "none"


def test_project_oc_builds_the_image_sum_pattern_once(capsys, monkeypatch):
    import rieszkit.calculus as calculus
    import rieszkit.operators as operators

    calls = []
    original = operators.image_sum_pattern

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(operators, "image_sum_pattern", counting)
    monkeypatch.setattr(calculus, "image_sum_pattern", counting)
    code, out = run_cli(capsys, "project-oc", "--spec", MOVING)
    assert code == 0
    assert json.loads(out)["details"]["fixed"] is True
    assert len(calls) == 1


def test_missing_spec_is_input_error(capsys):
    code, out = run_cli(capsys, "check", "order_bounded")
    assert code == 2


def test_bad_spec_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.rzk"
    bad.write_text("operator T : E -> ")
    code, out = run_cli(capsys, "check", "order_bounded", "--spec", str(bad))
    assert code == 2
    assert "line 1" in json.loads(out)["error"]


def _input_error(message: str) -> str:
    return json.dumps({"error": message, "kind": "input"}, indent=2) + "\n"


@pytest.mark.parametrize("path", ["fixtures", "no/such/spec.rzk"], ids=["directory", "missing"])
def test_unopenable_spec_is_input_error(capsys, path):
    """The message is the one `open` gives, as for a missing file before."""
    with pytest.raises(OSError) as exc:
        open(path, encoding="utf-8")
    for argv in (["check", "order_bounded"], ["classify"]):
        code, out = run_cli(capsys, *argv, "--spec", path)
        assert (code, out) == (2, _input_error(str(exc.value)))


def test_spec_that_is_not_utf8_is_input_error(tmp_path, capsys):
    spec = tmp_path / "latin1.rzk"
    spec.write_bytes("# caf\xe9\nspace E = l0inf\n".encode("latin-1"))
    code, out = run_cli(capsys, "check", "order_bounded", "--spec", str(spec))
    assert code == 2
    error = json.loads(out)
    assert error["kind"] == "input"
    assert error["error"].startswith(f"spec file {str(spec)!r} is not UTF-8 text: ")


BAD_MATRICES = ["notjson", "", '[["a"]]', '{"a": 1}', "[1, 2]", "[[1,2],[3]]", '["12"]',
                '[[1, "1/0"]]', "[[NaN]]", "[[Infinity]]", "[[null]]", "[[[1]]]", "7"]


@pytest.mark.parametrize("matrix", BAD_MATRICES)
def test_oracle_matrix_refuses_what_is_not_a_matrix(capsys, matrix):
    code, out = run_cli(capsys, "oracle", "matrix-positive-part", "--matrix", matrix)
    want = ("matrix-positive-part needs --matrix JSON" if not matrix else
            "--matrix must be a JSON list of equal-length lists of rationals")
    assert (code, out) == (2, _input_error(want))


# sha256 of the report of each matrix the command accepted before --matrix
# was validated
GOOD_MATRICES = {
    "[]": "c40a274d933868cda989516a2fea2d93342e3ec506e5a934649f53e6760fad1f",
    "[[]]": "0d2486a91f3cab6b7ab129f1199d86e25e0be1d41f43df7f20fca26c9f300e97",
    "[[1,-2],[-3,4]]": "fbf0d3ab6527b345a8513cd988b6e41dcdcc4dc030b03ba401f1294a57b1427e",
    '[[1,"-1/2"],[0.5,-3]]': "d581f5100b241512a9028e021ee297c815974eea43eb3f42de420e6c313d666a",
    "[[true,0],[false,-1]]": "9f2baf98f37f11df6a43906062571bf873092293b390ad6570d5521a4f030dd1",
    '[["3/4",-7,2]]': "8d80178f1c9b7373f4fa88c099183135abfa37da9ba48f3c52f8bf82f7e53844",
}


@pytest.mark.parametrize("matrix", sorted(GOOD_MATRICES))
def test_oracle_matrix_reports_are_unchanged(capsys, matrix):
    code, out = run_cli(capsys, "oracle", "matrix-positive-part", "--matrix", matrix)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOOD_MATRICES[matrix]


def test_oracle_grid_sup_refuses_a_negative_depth(capsys):
    code, out = run_cli(capsys, "oracle", "grid-sup", "--spec", MOVING, "--depth", "-1")
    assert (code, out) == (2, _input_error("grid depth must be >= 0"))


@pytest.mark.parametrize("bound", ["-1", "-7"])
def test_oracle_dominating_search_refuses_a_negative_bound(capsys, bound):
    """A bound below 0 admits no candidate: a search over it would print the
    refutation "none" having checked nothing, so it is an input error."""
    code, out = run_cli(capsys, "oracle", "dominating-search", "--bound", bound)
    assert (code, out) == (2, _input_error(f"search bound must be >= 0, got {bound}"))


@pytest.mark.parametrize("depth", [MAX_GRID_DEPTH + 1, 64])
def test_oracle_grid_sup_refuses_a_depth_past_the_maximum(capsys, depth):
    """A depth past the maximum is an input error, raised before any grid
    is built: depth 64 would need 2**64 + 1 points per axis."""
    code, out = run_cli(capsys, "oracle", "grid-sup", "--spec", MOVING, "--depth", str(depth))
    assert (code, out) == (2, _input_error(f"grid depth must be <= {MAX_GRID_DEPTH}"))


def test_byte_identical_reports(capsys):
    """Two runs agree, and every pinned run prints the report whose digest
    `report_digests.json` records (the sha256 of the exit code line and the
    output): the JSON and Markdown reports of every fixture command on each
    spec and of every casebook run."""
    _, out1 = run_cli(capsys, "check", "order_continuous", "--spec", MOVING)
    _, out2 = run_cli(capsys, "check", "order_continuous", "--spec", MOVING)
    assert out1 == out2
    runs = pinned_runs()
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(runs)
    for key, argv in runs.items():
        assert report_digest(capsys, argv) == pinned[key], key


def test_markdown_rendering(capsys):
    code, out = run_cli(
        capsys, "check", "order_continuous", "--spec", MOVING, "--markdown"
    )
    assert code == 0
    assert out.startswith("# check order_continuous")


def test_project_oc(capsys):
    code, out = run_cli(capsys, "project-oc", "--spec", MOVING)
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["fixed"] is True


def test_unsupported_hypothesis_exit_code(capsys):
    code, out = run_cli(capsys, "project-oc", "--spec", ROWPAIR)
    assert code == 3
    assert json.loads(out)["kind"] == "unsupported-hypothesis"
    code2, _ = run_cli(capsys, "check", "order_continuous", "--spec", ROWPAIR)
    assert code2 == 3


FIXTURE_COMMANDS = [
    ["check", "order_bounded"],
    ["check", "order_continuous"],
    ["positive-part"],
    ["project-oc"],
    ["witness-pervasive"],
    ["classify"],
    ["oracle", "grid-sup", "--depth", "1"],
    ["oracle", "dominating-search", "--bound", "2"],
]


SPECS = {
    "moving_indicator": MOVING,
    "row_pair_difference": ROWPAIR,
    "findim_matrix": "tests/specs/findim_matrix.rzk",
    "ek_row_tail": "tests/specs/ek_row_tail.rzk",
    "ck_periodic": "tests/specs/ck_periodic.rzk",
    "even_atoms": "tests/specs/even_atoms.rzk",
    "ek_row_functional": "tests/specs/ek_row_functional.rzk",
    "ek_atom_row": "tests/specs/ek_atom_row.rzk",
    "ck_rule_positive": "tests/specs/ck_rule_positive.rzk",
    "grid_rule_positive": "tests/specs/grid_rule_positive.rzk",
    "l0inf_identity": "tests/specs/l0inf_identity.rzk",
}
DIGESTS = Path(__file__).with_name("report_digests.json")
# the case studies whose probe loops grow with --probe, pinned at its ends
PROBED_CASEBOOK = ("not-directed", "bounded-not-regular")


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = [*sorted((ROOT / "fixtures").glob("*.rzk")),
           *sorted((ROOT / "tests" / "specs").glob("*.rzk"))]


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda p: p.stem)
def test_every_shipped_witness_is_accepted_at_every_probe(spec):
    """Each positive operator of a shipped spec has a witness at probes 1, 8
    and 32, which the witness verifier accepts at probes 1, 2, 3, 8 and 32."""
    ops = build_all(parse(spec.read_text(encoding="utf-8")))[1]
    for T in ops.values():
        if not is_positive_operator(T):
            continue
        for probe in (1, 8, 32):
            R = pervasive_witness(T, probe).operator
            assert all(verify_witness(R, T, p)[0] for p in (1, 2, 3, 8, 32)), (spec, probe)


def pinned_runs() -> dict:
    """Run name -> argv of every report `report_digests.json` pins."""
    runs = {}
    for fmt in ([], ["--markdown"]):
        for name, spec in SPECS.items():
            for command in FIXTURE_COMMANDS:
                runs[" ".join([*command, name, *fmt])] = [*command, "--spec", spec, *fmt]
        # the grid oracle on every shipped spec at depths 0 and 2, beside
        # FIXTURE_COMMANDS' depth 1
        for spec in SHIPPED:
            for depth in ("0", "2"):
                command = ["oracle", "grid-sup", "--depth", depth]
                runs[" ".join([*command, spec.stem, *fmt])] = [*command, "--spec", str(spec), *fmt]
        for name in CASEBOOK:
            runs[" ".join(["casebook", name, *fmt])] = ["casebook", name, *fmt]
        for name in PROBED_CASEBOOK:
            for probe in ("1", "32"):
                argv = ["casebook", name, "--probe", probe, *fmt]
                runs[" ".join(argv)] = argv
    return runs


def report_digest(capsys, argv) -> str:
    code, out = run_cli(capsys, *argv)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("spec", [MOVING, ROWPAIR])
@pytest.mark.parametrize("command", FIXTURE_COMMANDS, ids=" ".join)
def test_verdicts_do_not_depend_on_probe(capsys, spec, command):
    outcomes = set()
    for probe in (1, 8, 32):
        code, out = run_cli(capsys, *command, "--spec", spec, "--probe", str(probe))
        rep = json.loads(out)
        outcomes.add((code, rep.get("verdict", rep.get("kind"))))
    assert len(outcomes) == 1, outcomes


@pytest.mark.parametrize("probe", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["casebook", "not-directed"],
    ["check", "order_continuous", "--spec", MOVING],
], ids=" ".join)
def test_a_probe_below_one_is_an_input_error(capsys, argv, probe):
    """`--probe` below 1 is refused with a JSON input error, also by a
    command that reads no probe.  Unrefused, `casebook not-directed --probe
    -100` would exit 0 and print "literal sums checked at n=1..-100"."""
    code, out = run_cli(capsys, *argv, "--probe", probe)
    assert (code, json.loads(out)) == (
        2, {"error": f"--probe must be at least 1, got {probe}", "kind": "input"})


def _cli_process(stdout):
    """`rieszkit casebook bounded-not-regular` in a fresh interpreter, its
    standard output on `stdout`."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.Popen([sys.executable, "-m", "rieszkit.cli", "casebook",
                             "bounded-not-regular"], stdout=stdout, stderr=subprocess.PIPE,
                            env=env, text=True)


def test_a_closed_pipe_ends_with_the_verdicts_code_and_nothing_on_stderr():
    """The reader of the pipe is gone before the report is written, as
    after `| head -c 1`: no traceback, and the verdict's own exit code."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process(write)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_a_failed_write_is_reported_without_a_traceback():
    with open("/dev/full", "w") as full:
        proc = _cli_process(full)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith("rieszkit: cannot write the report: ") and "Traceback" not in err
    assert err.count("\n") == 1

from __future__ import annotations

import json

import pytest

from rieszkit.cli import main

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


def test_witness_pervasive_on_nonpositive_is_input_error(capsys):
    code, out = run_cli(capsys, "witness-pervasive", "--spec", MOVING)
    assert code == 2
    assert "not positive" in json.loads(out)["error"]


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


def test_missing_spec_is_input_error(capsys):
    code, out = run_cli(capsys, "check", "order_bounded")
    assert code == 2


def test_bad_spec_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.rzk"
    bad.write_text("operator T : E -> ")
    code, out = run_cli(capsys, "check", "order_bounded", "--spec", str(bad))
    assert code == 2
    assert "line 1" in json.loads(out)["error"]


def test_byte_identical_reports(capsys):
    _, out1 = run_cli(capsys, "check", "order_continuous", "--spec", MOVING)
    _, out2 = run_cli(capsys, "check", "order_continuous", "--spec", MOVING)
    assert out1 == out2


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


@pytest.mark.parametrize("spec", [MOVING, ROWPAIR])
@pytest.mark.parametrize("command", FIXTURE_COMMANDS, ids=" ".join)
def test_verdicts_do_not_depend_on_probe(capsys, spec, command):
    outcomes = set()
    for probe in (1, 8, 32):
        code, out = run_cli(capsys, *command, "--spec", spec, "--probe", str(probe))
        rep = json.loads(out)
        outcomes.add((code, rep.get("verdict", rep.get("kind"))))
    assert len(outcomes) == 1, outcomes

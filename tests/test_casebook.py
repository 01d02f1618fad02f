from __future__ import annotations

import json
import sys

import pytest

from rieszkit import casebook, operators
from rieszkit.elements import abs_, scale
from rieszkit.errors import PreconditionError
from rieszkit.operators import BoundReport, op_eq
from rieszkit.scalars import Q
from rieszkit.reports import report_to_dict, to_json, to_markdown
from rieszkit.specfile import build_all, parse
from rieszkit.casebook import (
    moving_indicator_operator,
    row_pair_difference_operator,
    run_bounded_not_regular,
    run_not_directed,
    run_projection_demo,
)


def test_not_directed_run():
    rep = run_not_directed()
    assert rep.verdict == "not directed"
    assert rep.exit_code == 0
    assert "uncountable-ambient-obstruction" in rep.anchors
    assert rep.oracle["dominating_search_found"] is False
    d = report_to_dict(rep)
    assert d["certificate"]["obstruction"]["minorant"].startswith("{star(1):1/2")


def test_not_directed_reads_a_linear_number_of_images(monkeypatch):
    """The cut-downs 1 - e_1 - ... - e_n run as one sum, checked once
    against the literal cut: probe 32 reads O(probe) generator images, not
    the n + 1 parts of every cut."""
    calls = 0
    image_parts = operators.image_parts

    def counting(T, ref):
        nonlocal calls
        calls += 1
        return image_parts(T, ref)

    for mod in [m for name, m in sys.modules.items() if name.startswith("rieszkit")]:
        if getattr(mod, "image_parts", None) is image_parts:
            monkeypatch.setattr(mod, "image_parts", counting)
    probe = 32
    assert run_not_directed(probe=probe).verdict == "not directed"
    assert 0 < calls <= 4 * probe


def test_not_directed_checks_the_moduli_with_one_comparison(monkeypatch):
    """The partial sums of |T e_n| increase with n, so one sum of the
    probe's moduli and one `le` against the bound check every n."""
    calls = 0
    le = casebook.le

    def counting(x, y):
        nonlocal calls
        calls += 1
        return le(x, y)

    monkeypatch.setattr(casebook, "le", counting)
    assert run_not_directed(probe=32).verdict == "not directed"
    assert 0 < calls <= 2


def test_not_directed_refuses_moduli_above_the_bound(monkeypatch):
    monkeypatch.setattr(casebook, "abs_", lambda x: scale(3, abs_(x)))
    with pytest.raises(PreconditionError, match="modulus partial sums 1..8"):
        run_not_directed()


@pytest.mark.parametrize("fixture, build", [
    ("fixtures/moving_indicator.rzk", moving_indicator_operator),
    ("fixtures/row_pair_difference.rzk", row_pair_difference_operator),
])
def test_case_study_operators_match_their_fixtures(fixture, build):
    """The casebook builds in Python the operators the fixtures declare;
    the two must stay the same operator."""
    with open(fixture, encoding="utf-8") as fh:
        _, ops = build_all(parse(fh.read()))
    declared, built = ops["T"], build()
    assert declared == built
    assert op_eq(declared, built)


def test_bounded_not_regular_run():
    rep = run_bounded_not_regular()
    assert "positive part not representable" in rep.verdict
    mu = rep.oracle["majorant_floor"]
    for n in range(9):
        assert mu[str(n)] >= Q(n, 2)
    assert rep.details["positive_part_in_space"] is False


def test_projection_demo_run():
    rep = run_projection_demo(seed=42)
    assert rep.verdict == "projection laws hold"
    assert all(v == 12 for v in rep.oracle["checks"].values())


def test_reports_render_deterministically():
    a = to_json(run_not_directed())
    b = to_json(run_not_directed())
    assert a == b
    json.loads(a)  # valid JSON
    md = to_markdown(run_not_directed())
    assert md.startswith("# casebook not-directed")


def test_all_runs_render_both_formats():
    for rep in (run_not_directed(), run_bounded_not_regular(), run_projection_demo()):
        json.loads(to_json(rep))
        assert to_markdown(rep).startswith("# casebook")


def test_projection_demo_seed_changes_nothing_structural():
    r1 = run_projection_demo(seed=7)
    assert r1.verdict == "projection laws hold"


def test_failed_conclusion_raises_precondition_error(monkeypatch):
    # the conclusions are checked by a helper, not assert, so they hold
    # under python -O as well
    monkeypatch.setattr(
        casebook, "order_bounded_test", lambda T: BoundReport(False, None, "forced")
    )
    with pytest.raises(PreconditionError, match="order boundedness"):
        casebook.run_bounded_not_regular()

from __future__ import annotations

import json
import sys

import pytest

from rieszkit import casebook, operators
from rieszkit.errors import PreconditionError
from rieszkit.operators import BoundReport
from rieszkit.scalars import Q
from rieszkit.reports import report_to_dict, to_json, to_markdown
from rieszkit.casebook import (
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

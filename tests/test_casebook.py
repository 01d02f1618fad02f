from __future__ import annotations

import json
import sys

import pytest

from rieszkit import casebook, operators, scalars
from rieszkit.elements import element_findev
from rieszkit.errors import PreconditionError
from rieszkit.operators import BoundReport, op_eq, operator
from rieszkit.scalars import Q, RationalSeq, qabs
from rieszkit.sequences import element_seq
from rieszkit.spaces import gamma, pair_form
from rieszkit.reports import report_to_dict, to_json, to_markdown
from rieszkit.specfile import build_all, parse
from rieszkit.casebook import (
    moving_indicator_operator,
    row_pair_difference_operator,
    run_bounded_not_regular,
    run_not_directed,
    run_projection_demo,
)

from conftest import loglog_slope


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
    monkeypatch.setattr(casebook, "qabs", lambda c: 3 * qabs(c))
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


KERNELS = ("qadd", "qsub", "qmul", "qle", "qabs_le", "qeq", "qmax", "qmin", "qabs", "qof")


@pytest.mark.parametrize("run", [run_not_directed, run_bounded_not_regular],
                         ids=["not-directed", "bounded-not-regular"])
def test_case_studies_cost_linear_in_the_probe(monkeypatch, run):
    """Each probe step compares generator parts, not the dense elements a
    lone atom e(n) or g(n) makes, so the `scalars` kernel calls of a run
    grow with a log-log slope of at most 1.15 over probes 16 to 128 (about
    1.4 when every step built its elements)."""
    count = [0]
    modules = [m for name, m in sys.modules.items() if name.startswith("rieszkit")]
    for name in KERNELS:
        kernel = getattr(scalars, name)

        def counting(*args, kernel=kernel):
            count[0] += 1
            return kernel(*args)
        for mod in modules:
            if getattr(mod, name, None) is kernel:
                monkeypatch.setattr(mod, name, counting)
    probes = (16, 32, 64, 128)
    counts = []
    for probe in probes:
        count[0] = 0
        run(probe=probe)
        counts.append(count[0])
    assert loglog_slope(probes, counts) <= 1.15, counts


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_a_wrong_image_fails_the_step_check_at_its_first_wrong_step(monkeypatch, k):
    """An image sequence that is right before step k and wrong from it, by
    a moving bump the decider still sees converge, fails the first test
    sequence's step check at step k."""
    image_sequence = casebook._image_sequence

    def wrong_from_k(T, xs):
        seq = image_sequence(T, xs)
        bump = (pair_form(1, 2, 0, 1), RationalSeq.steps([0] * (k - 1), 1))
        return element_seq(seq.space, seq.static, [*seq.atoms, bump], seq.fills, seq.ambient)

    monkeypatch.setattr(casebook, "_image_sequence", wrong_from_k)
    with pytest.raises(PreconditionError, match=f"the moving row bump image at step {k}$"):
        run_bounded_not_regular()


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_a_wrong_rule_fails_the_cut_down_check_at_its_first_wrong_step(monkeypatch, k):
    """The moving-indicator operator with g(k) and g(k + 1) swapped keeps
    the order bound 2 and order continuity, but its cut-downs are g(1),
    ..., g(k - 1), then g(k + 1): the cut-down check fails at step k."""
    T = moving_indicator_operator()
    swap = {k: k + 1, k + 1: k}

    def image(n):
        coeffs = {gamma(swap.get(n, n)): 1}
        if n > 1:
            coeffs[gamma(swap.get(n - 1, n - 1))] = -1
        return element_findev(T.codomain, coeffs, 0)

    swapped = operator(T.domain, T.codomain, {n: image(n) for n in range(1, k + 3)}, T.rule,
                       None, T.unit_image)
    monkeypatch.setattr(casebook, "moving_indicator_operator", lambda: swapped)
    with pytest.raises(PreconditionError, match=rf"the cut-down {k} maps to g\({k}\)$"):
        run_not_directed()

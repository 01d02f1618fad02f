from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

import pytest

from rieszkit import oracles
from rieszkit.errors import PreconditionError, RieszkitError
from rieszkit.reports import ser
from rieszkit.scalars import Q, RationalSeq
from rieszkit.specfile import build_all, parse
from rieszkit.spaces import (
    Token,
    fin_dev,
    fin_dim,
    fresh_star,
    row_block_ek,
    row_block_grid,
    seq_form,
    tail_seq,
    token_form,
)
from rieszkit.elements import (
    add,
    atom,
    coordinate,
    element_fin,
    element_tail,
    scale,
    support,
    unit,
    zero,
)
from rieszkit.operators import (
    apply_op,
    atom_image,
    functional,
    operator,
    partial_sum_seq,
    rank_one,
    stencil_rule,
)
from rieszkit.calculus import positive_part, rk_value
from rieszkit.oracles import (
    MAX_GRID_DEPTH,
    _dyadic_axis,
    _term_max,
    bruteforce_dominating_search,
    grid_interval_sup,
    majorant_floors,
    majorant_growth_probe,
    matrix_apply,
    matrix_positive_part,
    truncate_element,
    truncate_operator,
)
from rieszkit.sequences import element_seq
from rieszkit.casebook import identity_on_tail_seq, row_pair_difference_operator

from conftest import fraction_calls, random_element, random_scalar

T = tail_seq()
F = fin_dev()


def random_matrix(rng: random.Random, rows: int, cols: int):
    return [[Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]


def test_matrix_positive_part_examples():
    assert matrix_positive_part([[1, -2], [-3, 4]]) == [[1, 0], [0, 4]]
    assert matrix_positive_part([[0, 0], [0, 0]]) == [[0, 0], [0, 0]]
    M = [[2, 1], [3, 5]]
    assert matrix_positive_part(M) == [[Q(2), Q(1)], [Q(3), Q(5)]]


def test_engine_agrees_with_matrix_oracle(rng):
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        dom, cod = fin_dim(n), fin_dim(m)
        op_ = operator(
            dom,
            cod,
            {j + 1: element_fin(cod, [M[i][j] for i in range(m)]) for j in range(n)},
        )
        cand, _, in_f = positive_part(op_)
        assert in_f
        P = matrix_positive_part(M)
        for j in range(n):
            assert dict(cand.atom_images)[j + 1] == element_fin(
                cod, [P[i][j] for i in range(m)]
            )


def test_grid_sup_depth0_enumeration():
    f = functional(T, {1: 1, 2: -2}, 3)
    assert coordinate(grid_interval_sup(f, unit(T), 0), 1) == 5
    assert coordinate(rk_value(f, unit(T)), 1) == 5


def test_grid_sup_monotone_in_depth(rng):
    for _ in range(10):
        coeffs = {i + 1: Q(rng.randint(-4, 4)) for i in range(rng.randint(0, 3))}
        f = functional(T, coeffs, Q(rng.randint(-4, 4)))
        vals = [coordinate(grid_interval_sup(f, unit(T), d), 1) for d in range(4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(v <= coordinate(rk_value(f, unit(T)), 1) for v in vals)


def test_grid_sup_positive_operator_attains_application():
    P = identity_on_tail_seq()
    x = element_tail(T, [1, 2], 1)
    got = grid_interval_sup(P, x, 1)
    assert got == apply_op(P, x)


# x with unequal coordinates gives every support coordinate its own grid
UNEVEN = element_tail(T, [1, 3, Q(1, 2)], 2)


def test_grid_sup_separable_matches_joint():
    f = functional(T, {1: 2, 2: -1, 3: 1}, 2)
    for x in (unit(T), UNEVEN):
        joint = grid_interval_sup(f, x, 2, joint_budget=10**6)
        separable = grid_interval_sup(f, x, 2, joint_budget=1)
        assert joint == separable


def test_grid_sup_operator_target_routes_agree():
    P = identity_on_tail_seq()
    R = rank_one(functional(T, {1: 2, 2: -1, 3: 1}, 2), element_tail(T, [1, -2], 1))
    for T_, x in ((P, element_tail(T, [1, 1], 1)), (P, UNEVEN), (R, UNEVEN)):
        joint = grid_interval_sup(T_, x, 2, joint_budget=10**7)
        separable = grid_interval_sup(T_, x, 2, joint_budget=1)
        assert joint == separable


def test_term_max_matches_the_fraction_grid(rng):
    """The integer-pair term maximum is the maximum of a * v over the
    Fraction grid points v = top * k / 2**depth, for either sign or zero."""
    values = [Q(0), Q(1), Q(-1)] + [Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(12)]
    for depth in range(7):
        for _ in range(40):
            a, top = rng.choice(values), rng.choice(values)
            want = max(a * top * k / 2**depth for k in range(2**depth + 1))
            assert _term_max(a, _dyadic_axis(top, depth)) == want, (a, top, depth)


def _grid_variables(T_, x) -> set:
    """The coordinates the grid varies: x's prefix, the table's atoms and
    three past the rule's threshold."""
    var = set(support(x)) | {i for i, _ in T_.atom_images if isinstance(i, int)}
    if T_.rule is not None:
        var |= set(range(T_.rule.threshold + 1, T_.rule.threshold + 4))
    return var


def _naive_grid_sup_at(T_, x, depth, k):
    """Coordinate k of the grid supremum from Fraction grid points: per
    variable the maximum of its term over top * j / 2**depth, the tail
    variable carrying the unit image less the support's row sum."""

    def term(a, top):
        return max(a * top * j / 2**depth for j in range(2**depth + 1))

    out = sigma = Q(0)
    for i in _grid_variables(T_, x):
        a = coordinate(atom_image(T_, i), k)
        sigma += a
        out += term(a, coordinate(x, i))
    return out + term(coordinate(T_.unit_image, k) - sigma, x.tail)


def _probe_coords(T_, x):
    """Every coordinate the images store, and points past them."""
    touched = set(support(T_.unit_image))
    for i in set(support(x)) | {i for i, _ in T_.atom_images}:
        touched |= set(support(atom_image(T_, i)))
    cod = T_.codomain
    if cod.dim:
        return range(1, cod.dim + 1)
    if cod.row.sequence:
        return range(1, max(touched, default=0) + 4)
    return [*sorted(touched), fresh_star(touched)]


# the joint route calls apply_op once per grid point, so it is compared
# where the product grid has at most this many points
JOINT_POINTS = 1000


def _assert_grid_sup_is_naive(T_, x):
    """Both routes at depths 0..6 against the naive reference."""
    joint_dims = len(_grid_variables(T_, x)) + 1
    coords = _probe_coords(T_, x)
    for depth in range(7):
        budgets = [1]
        if (2**depth + 1) ** joint_dims <= JOINT_POINTS:
            budgets.append(10**7)
        for budget in budgets:
            g = grid_interval_sup(T_, x, depth, joint_budget=budget)
            for k in coords:
                assert coordinate(g, k) == _naive_grid_sup_at(T_, x, depth, k), (depth, budget, k)


SHIPPED_L0INF = ["fixtures/moving_indicator.rzk", "tests/specs/ck_periodic.rzk",
                 "tests/specs/shift_positive.rzk"]


@pytest.mark.parametrize("path", SHIPPED_L0INF)
def test_grid_sup_matches_the_naive_reference_on_shipped_specs(path):
    _, ops = build_all(parse((Path(__file__).parent.parent / path).read_text()))
    T_ = next(iter(ops.values()))
    assert T_.domain.row.sequence
    for x in (unit(T_.domain), UNEVEN):
        _assert_grid_sup_is_naive(T_, x)


def test_grid_sup_matches_the_naive_reference_on_ck_and_findim_codomains(rng):
    """Random signed tables into ck (the fresh-star background) and into
    findim(3), on the unit and on an uneven x."""
    # ck images store a star token too, so the background point is a later
    # star
    star = atom(F, Token("star", 1))
    for cod in (F, fin_dim(3)):
        for _ in range(3):
            table = {i: random_element(rng, cod) for i in rng.sample(range(1, 5), 2)}
            if not cod.dim:
                table = {i: add(img, scale(random_scalar(rng), star)) for i, img in table.items()}
            T_ = operator(T, cod, table, None, None, random_element(rng, cod))
            for x in (unit(T), UNEVEN):
                _assert_grid_sup_is_naive(T_, x)


def test_grid_sup_routes_agree_on_row_block_codomains():
    """The separable route assembles grid and ek targets as the product grid
    does: 720 seeded l0inf -> grid/ek tables, on the unit and on an uneven
    x, at depths 0..2."""
    rng = random.Random(20261019)
    cases = 0
    for cod in (row_block_grid(), row_block_ek()):
        for _ in range(60):
            table = {i: random_element(rng, cod) for i in rng.sample(range(1, 3), rng.randint(1, 2))}
            T_ = operator(T, cod, table, None, None, random_element(rng, cod))
            for x in (unit(T), element_tail(T, [Q(1, 2)], 2)):
                for depth in range(3):
                    joint = grid_interval_sup(T_, x, depth, joint_budget=10**7)
                    assert grid_interval_sup(T_, x, depth, joint_budget=1) == joint
                    cases += 1
    assert cases == 720


def test_grid_sup_answers_at_the_maximum_depth():
    f = functional(T, {}, -3)
    assert coordinate(grid_interval_sup(f, unit(T), MAX_GRID_DEPTH), 1) == 0
    f = functional(T, {}, 3)
    assert coordinate(grid_interval_sup(f, unit(T), MAX_GRID_DEPTH), 1) == 3


def test_grid_sup_below_interval_supremum():
    from rieszkit.calculus import rk_value
    from rieszkit.casebook import moving_indicator_operator
    from rieszkit.elements import coordinate, support

    Tm = moving_indicator_operator()
    g = grid_interval_sup(Tm, unit(T), 2)
    rk = rk_value(Tm, unit(T))
    for tok in [t for t, _ in g.entries]:
        assert coordinate(g, tok) <= coordinate(rk, tok)
    assert g.ambient <= rk.ambient


def test_majorant_growth():
    Tr = row_pair_difference_operator()
    mu = [majorant_growth_probe(Tr, n) for n in range(13)]
    assert mu[1] == 1
    assert all(a <= b for a, b in zip(mu, mu[1:]))
    assert all(mu[n] >= Q(n, 2) for n in range(13))
    from rieszkit.operators import zero_op
    from rieszkit.spaces import row_block_ek, row_block_grid

    assert majorant_growth_probe(zero_op(row_block_ek(), row_block_grid()), 5) == 0


def _ek_grid_spec(*rules: str) -> str:
    body = "".join(f"  {rule}\n" for rule in rules)
    return f"space E = ek\nspace F = grid\n\noperator T : E -> F {{\n{body}  rowunits n > 0 -> 0\n  unit -> 0\n}}\n"


COLUMN_ONE_SPEC = _ek_grid_spec("atoms m > 0 -> { 1 @ (n,1) }")
# stencils that tell odd segments from other atom sets, and whose first
# failure needs row 1's segments to reach end 5 (checked at column 3) or
# row 2's segment with both of its first odd atoms
EDGE_SPECS = {
    "column one": COLUMN_ONE_SPEC,
    "even atoms on column one": _ek_grid_spec(
        "atoms m > 0, m mod 2 == 0 -> { 1 @ (n,1) }",
        "atoms m > 0, m mod 2 == 1 -> { 1 @ (n,m) }",
    ),
    "late, row one only": _ek_grid_spec("atoms m > 5 -> { 1 @ (1,3) }"),
    "row two only": _ek_grid_spec("atoms m > 0 -> { 1 @ (2,1) }"),
    # row 1's third odd atom adds 1/2 to the unit coefficient and no cell, so
    # only its earlier columns exceed the lowered room at segment end 3
    "unit grows at row one's end three": _ek_grid_spec(
        "atoms m > 0, m mod 2 == 1 -> { 1 @ (n,(m+1)/2) }", "e(1,5) -> 1/2 * unit"),
}


def test_stencil_outside_the_family_is_refused(tmp_path, capsys):
    """Every atom lands on column 1, so the image of a two-atom odd segment
    reads 2 > peak there: level 1 passes, every later level is refused."""
    from rieszkit.cli import main
    from rieszkit.errors import PreconditionError
    from rieszkit.specfile import build_all, parse

    Tc = build_all(parse(COLUMN_ONE_SPEC))[1]["T"]
    assert majorant_floors(Tc, 1) == [0, 1]
    for level in (2, 5):
        with pytest.raises(PreconditionError, match="stencil outside the probed family"):
            majorant_floors(Tc, level)
        with pytest.raises(PreconditionError, match="stencil outside the probed family"):
            majorant_growth_probe(Tc, level)
    spec = tmp_path / "column_one.rzk"
    spec.write_text(COLUMN_ONE_SPEC)
    for level, code in ((1, 0), (2, 2), (5, 2)):
        assert main(["oracle", "majorant-growth", "--levels", str(level), "--spec", str(spec)]) == code
        out = capsys.readouterr().out
        if code:
            assert json.loads(out)["error"] == "stencil outside the probed family"
        else:
            assert json.loads(out)["oracle"]["floors"] == {"0": "0", "1": "1"}


def _majorant_operators():
    from rieszkit.operators import scale_op, zero_op
    from rieszkit.spaces import row_block_ek, row_block_grid
    from rieszkit.specfile import build_all, parse

    Tr = row_pair_difference_operator()
    with open("fixtures/row_pair_difference.rzk") as f:
        fixture = build_all(parse(f.read()))[1]["T"]
    return {
        "row pair difference": Tr,
        "twice": scale_op(2, Tr),
        "half": scale_op(Q(1, 2), Tr),
        "zero": zero_op(row_block_ek(), row_block_grid()),
        "fixture": fixture,
    }


@pytest.mark.parametrize("name", ["row pair difference", "twice", "half", "zero", "fixture"])
@pytest.mark.parametrize("levels", [0, 1, 2, 8])
def test_floors_match_the_per_level_probe(name, levels):
    Tm = _majorant_operators()[name]
    assert majorant_floors(Tm, levels) == [majorant_growth_probe(Tm, n) for n in range(levels + 1)]
    assert majorant_floors(Tm, -1) == []


def _rebuilt_segment_floor(T, level):
    """The floor at one level with every odd segment built from atoms and
    mapped by apply_op: the reference for the running segment images."""
    from rieszkit.elements import add, coordinate

    peak = max((c for es in T.rule.entries for _, c in es if c > 0), default=Q(0))
    for r in range(1, level + 1):
        for m_top in range(1, level + 1):
            seg = zero(T.domain)
            for m in range(1, 2 * m_top, 2):
                seg = add(seg, atom(T.domain, (r, m)))
            img = apply_op(T, seg)
            if any(coordinate(img, (r, mm)) > peak for mm in range(1, m_top + 1)):
                return "stencil outside the probed family"
    return peak * level


@pytest.mark.parametrize("name", ["row pair difference", "twice", "half", "fixture", *EDGE_SPECS])
def test_floors_agree_with_rebuilt_segments(name):
    from rieszkit.errors import PreconditionError
    from rieszkit.specfile import build_all, parse

    if name in EDGE_SPECS:
        Tm = build_all(parse(EDGE_SPECS[name]))[1]["T"]
    else:
        Tm = _majorant_operators()[name]
    for level in range(7):
        try:
            got = majorant_growth_probe(Tm, level)
        except PreconditionError as e:
            got = str(e)
        assert got == _rebuilt_segment_floor(Tm, level), level


def test_floors_below_level_zero_run_no_check(capsys):
    from rieszkit.casebook import moving_indicator_operator
    from rieszkit.cli import main
    from rieszkit.errors import PreconditionError

    Tm = moving_indicator_operator()
    assert majorant_floors(Tm, -1) == []
    with pytest.raises(PreconditionError, match="level must be >= 0"):
        majorant_growth_probe(Tm, -1)
    assert main(["oracle", "majorant-growth", "--levels", "-1",
                 "--spec", "fixtures/moving_indicator.rzk"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"]["floors"] == {}
    assert main(["oracle", "majorant-growth", "--levels", "3",
                 "--spec", "fixtures/moving_indicator.rzk"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "the probe runs on row-block domains"


def test_majorant_floors_build_each_segment_image_once(monkeypatch):
    """One atom image per (row, segment end): levels**2 of them for all
    levels together, not one segment rebuild per level, row and end."""
    from rieszkit import operators, oracles

    calls = 0
    image = operators.atom_image

    def counting_image(T, idx):
        nonlocal calls
        calls += 1
        return image(T, idx)

    Tr = row_pair_difference_operator()
    monkeypatch.setattr(operators, "atom_image", counting_image)
    monkeypatch.setattr(oracles, "atom_image", counting_image)
    assert majorant_floors(Tr, 16)[16] == 16
    assert calls <= 16 * 16 + 16
    monkeypatch.undo()
    assert majorant_floors(Tr, 32)[32] == 32


def test_segment_constraints_compare_only_changed_columns(monkeypatch):
    """Columns that passed at a row's previous segment end are compared
    again only when its unit coefficient grows: comparing every column
    1..m_top at each (row, segment end) made 2176 comparisons at level 16."""
    import fractions

    from rieszkit import oracles

    calls = 0

    def counting(compare):
        def counted(a, b):
            nonlocal calls
            calls += 1
            return compare(a, b)
        return counted

    Tr = row_pair_difference_operator()
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(fractions.Fraction, name, counting(getattr(fractions.Fraction, name)))
    monkeypatch.setattr(oracles, "qle", counting(oracles.qle))
    assert majorant_floors(Tr, 16)[16] == 16
    # one column and one unit-coefficient test per (row, segment end)
    assert calls <= 2 * 16 * 16 + 16, calls


def test_majorant_floors_read_each_image_part_once(monkeypatch):
    """Each row keeps a running coordinate table of its segment image, so
    no part is read again per (row, segment end): recomposing the segments
    read 2176 parts of 256 one-part images at level 16."""
    from rieszkit import oracles

    produced = read = 0
    image_parts, recompose = oracles.image_parts, oracles.recompose

    def counting_parts(T, ref):
        nonlocal produced
        parts = image_parts(T, ref)
        produced += len(parts)
        return parts

    def counting_recompose(space, parts):
        nonlocal read
        parts = list(parts)
        read += len(parts)
        return recompose(space, parts)

    monkeypatch.setattr(oracles, "image_parts", counting_parts)
    monkeypatch.setattr(oracles, "recompose", counting_recompose)
    assert majorant_floors(row_pair_difference_operator(), 16) == list(range(17))
    assert produced == 256
    assert read <= produced


def test_dominating_search_finds_easy_cases():
    h = element_seq(T, atoms=[(seq_form(0, 1), RationalSeq.harmonic(1))])
    res = bruteforce_dominating_search(h, 6)
    assert res.found is not None
    res0 = bruteforce_dominating_search(element_seq(T), 0)
    assert res0.found is not None


def test_dominating_search_sums_candidates_only_up_to_the_accepted_one(monkeypatch):
    """The candidates are summed on demand: the harmonic stationary atom is
    dominated by its 6th candidate, after 20 of the 144 picks within the
    bound (the rest repeat a candidate or are never reached)."""
    from rieszkit import oracles

    calls = 0
    seq_sum = oracles._seq_sum

    def counting(fams):
        nonlocal calls
        calls += 1
        return seq_sum(fams)

    monkeypatch.setattr(oracles, "_seq_sum", counting)
    h = element_seq(T, atoms=[(seq_form(0, 1), RationalSeq.harmonic(1))])
    res = bruteforce_dominating_search(h, 6)
    assert (res.found is not None, res.candidates_checked) == (True, 6)
    assert calls <= 20


def test_dominating_search_refutes_moving_indicator():
    x = element_seq(F, atoms=[(token_form(1, 0), RationalSeq.const(1))])
    res = bruteforce_dominating_search(x, 6)
    assert res.found is None
    assert res.candidates_checked > 0


def test_dominating_search_refuses_a_negative_bound():
    """Below bound 0 no candidate fits, and a refutation would rest on
    nothing: the search raises before it builds a family."""
    x = element_seq(F, atoms=[(token_form(1, 0), RationalSeq.const(1))])
    for bound in (-1, -6):
        with pytest.raises(PreconditionError, match=f"search bound must be >= 0, got {bound}"):
            bruteforce_dominating_search(x, bound)
    assert bruteforce_dominating_search(x, 0).candidates_checked == 1


def test_truncation_commutes_with_apply():
    P = identity_on_tail_seq()
    M = truncate_operator(P, 4)
    x = element_tail(T, [1, -2, 3], 7)
    assert matrix_apply(M, truncate_element(x, 4)) == truncate_element(apply_op(P, x), 4)


# ---------------------------------------------------------------------------
# the dominating search: a pinned result table and its cost guards

ROOT = Path(__file__).resolve().parents[1]
SEARCH_TABLE = Path(__file__).with_name("dominating_search_table.json")


def _search_cases():
    """(case id, subject builder, bound): the CLI subjects (the moving
    indicator, and the partial sums of the first operator of each fixture
    and of tests/specs) at bounds 0..7, then one- and two-atom l0inf and ck
    sequences with const, harmonic and steps coefficients."""
    moving = element_seq(F, atoms=[(token_form(1, 0), RationalSeq.const(1))])
    subjects = [("moving-indicator", lambda: moving)]
    for path in ["fixtures/moving_indicator.rzk", "fixtures/row_pair_difference.rzk",
                 *sorted(p.relative_to(ROOT).as_posix()
                         for p in (ROOT / "tests" / "specs").glob("*.rzk"))]:
        def spec_sums(path=path):
            _, ops = build_all(parse((ROOT / path).read_text(encoding="utf-8")))
            return partial_sum_seq(next(iter(ops.values())))
        subjects.append((path, spec_sums))
    for name, subject in subjects:
        for bound in range(8):
            yield f"{name} bound={bound}", subject, bound
    coeffs = {
        "const 3/2": RationalSeq.const(Q(3, 2)),
        "const -1/2": RationalSeq.const(Q(-1, 2)),
        "harmonic 1": RationalSeq.harmonic(1),
        "harmonic -2": RationalSeq.harmonic(-2),
        "steps 2,-1|1/2": RationalSeq.steps([2, -1], Q(1, 2)),
        "steps 0,3|0": RationalSeq.steps([0, 3], 0),
    }
    for label, space, form in [("l0inf", T, seq_form), ("ck", F, token_form)]:
        for shape, (a, b) in [("stationary", (0, 2)), ("moving", (1, 0))]:
            for cname, c in coeffs.items():
                for bound in (0, 2, 4, 6):
                    yield (f"{label} {shape} {cname} bound={bound}",
                           lambda space=space, f=form(a, b), c=c: element_seq(space, atoms=[(f, c)]),
                           bound)
        for cname, c in [("const 1", RationalSeq.const(1)), ("harmonic 1", RationalSeq.harmonic(1)),
                         ("steps 1,2|1", RationalSeq.steps([1, 2], 1))]:
            for bound in (0, 2, 4, 6):
                yield (f"{label} stationary+moving {cname} bound={bound}",
                       lambda space=space, form=form, c=c: element_seq(
                           space, atoms=[(form(0, 1), c), (form(1, 2), RationalSeq.const(-1))]),
                       bound)


def search_table() -> dict:
    """(found, checked, note) of every search case, or the refusal of the
    subject's construction."""
    out = {}
    for cid, subject, bound in _search_cases():
        try:
            res = bruteforce_dominating_search(subject(), bound)
        except RieszkitError as e:
            out[cid] = {"error": f"{type(e).__name__}: {e}"}
        else:
            out[cid] = {"found": ser(res.found), "checked": res.candidates_checked,
                        "note": res.note}
    return out


def test_dominating_search_results_are_pinned():
    """The search's answers on every case, as `dominating_search_table.json`
    records them (written before the rule was put ahead of the probe)."""
    pinned = json.loads(SEARCH_TABLE.read_text(encoding="utf-8"))
    table = search_table()
    assert sorted(table) == sorted(pinned)
    for cid, row in table.items():
        assert row == pinned[cid], cid


def test_dominating_search_builds_each_family_once_and_probes_only_converging(monkeypatch):
    """Each (shape, scale) family is built once; every candidate's limit is
    read first, decrease is checked only on a candidate whose normalized
    form settles at 0, and domination is probed only on one verified
    decreasing.  On the moving indicator 24 candidates settle at 8 zero
    limits and 1 decreasing family, none dominating; on the l0inf subject
    const(-2) the 9th candidate is found after 6 zero limits and 3 walks."""
    from rieszkit import oracles
    from rieszkit.sequences import normalize

    builds = 0

    def counted(shape):
        def build(x, c):
            nonlocal builds
            builds += 1
            return shape(x, c)
        return build

    events: list = []
    pattern, decide, walk = oracles.eventual_pattern, oracles.check_decreasing, oracles.walk_failure

    def patterning(b):
        pat = pattern(b)
        events.append(("pattern", b, pat.is_zero()))
        return pat

    def deciding(b, probe=8):
        events.append(("decreasing", b, False))
        window = decide(b, probe)
        events[-1] = ("decreasing", b, True)
        return window

    def probing(rel, x, y, first, last):
        events.append(("walk", y, None))
        return walk(rel, x, y, first, last)

    monkeypatch.setattr(oracles, "_SHAPES", tuple(map(counted, oracles._SHAPES)))
    monkeypatch.setattr(oracles, "eventual_pattern", patterning)
    monkeypatch.setattr(oracles, "check_decreasing", deciding)
    monkeypatch.setattr(oracles, "walk_failure", probing)
    # three scales each: 1, 1/2 and 2 from the coefficient 1; 1, 2 and 4
    # from the coefficient -2
    for x, found, counts in [
        (element_seq(F, atoms=[(token_form(1, 0), RationalSeq.const(1))]), False, (24, 8, 1)),
        (element_seq(T, atoms=[(seq_form(1, 0), RationalSeq.const(-2))]), True, (9, 6, 3)),
    ]:
        builds = 0
        events.clear()
        res = bruteforce_dominating_search(x, 6)
        assert (res.found is not None) == found
        stages = [stage for stage, _, _ in events]
        assert res.candidates_checked == stages.count("pattern")
        assert builds <= 5 * 3
        for before, (stage, seq, _) in zip(events, events[1:]):
            if stage == "decreasing":
                assert before[0] == "pattern" and before[1] is seq and before[2]
            elif stage == "walk":
                assert before[0] == "decreasing" and before[2] and before[1] == normalize(seq)
        assert events[0][0] == "pattern"
        assert stages.count("walk") < stages.count("pattern")
        assert tuple(map(stages.count, ("pattern", "decreasing", "walk"))) == counts


def test_the_zero_family_is_a_neutral_summand(monkeypatch):
    """A pick with the zero family is the other family itself: summing it
    on either side gives the same sequence and key at every shape and scale,
    so the search builds it once and neither sums nor keys a repeated pick;
    on the moving indicator it keys 31 picks, sums 24 pairs of families and
    yields 24 candidates."""
    from rieszkit import oracles

    subjects = [element_seq(space, atoms=atoms) for space, form in [(T, seq_form), (F, token_form)]
                for atoms in ([(form(1, 0), RationalSeq.const(1))],
                              [(form(0, 2), RationalSeq.harmonic(-2))],
                              [(form(0, 1), RationalSeq.steps([1, 2], 1)),
                               (form(1, 2), RationalSeq.const(-1))])]
    for x in subjects:
        zero = element_seq(x.space)
        for shape in oracles._SHAPES:
            for sc in (Q(1, 2), Q(1), Q(2)):
                fam = shape(x, sc)
                if fam is not None:
                    for summed in (oracles._seq_sum([zero, fam]), oracles._seq_sum([fam, zero])):
                        assert summed == fam and oracles._seq_key(summed) == oracles._seq_key(fam)
    keys, sums, zero_summands = 0, 0, 0

    def keying(seq, inner=oracles._seq_key):
        nonlocal keys
        keys += 1
        return inner(seq)

    def summing(fams, inner=oracles._seq_sum):
        nonlocal sums, zero_summands
        if len(fams) > 1:
            sums += 1
            zero_summands += any(fam == element_seq(fam.space) for fam in fams)
        return inner(fams)

    monkeypatch.setattr(oracles, "_seq_key", keying)
    monkeypatch.setattr(oracles, "_seq_sum", summing)
    res = bruteforce_dominating_search(subjects[3], 6)
    assert (res.found, res.candidates_checked) == (None, 24)
    assert (keys, sums, zero_summands) == (31, 24, 0)


def _keys_of_every_pick(x, bound) -> list:
    """The reference enumeration: every pick within the bound summed and
    keyed, in (shape, shape, scale, scale) order, each key kept at its
    first occurrence."""
    scales = {Q(1)}
    for _, coeff in x.atoms:
        v = coeff.max_abs()
        if v != 0:
            scales.update({v, v / 2, 2 * v})
    built = [[()], *([(fam,) for sc in sorted(scales) if (fam := shape(x, sc)) is not None]
                     for shape in oracles._SHAPES)]
    zero, keys = element_seq(x.space), []
    for first, second in product(built, repeat=2):
        for f1 in first:
            for f2 in second:
                fams = f1 + f2
                if sum(1 + len(fam.atoms) + len(fam.fills) for fam in fams) <= bound:
                    key = oracles._seq_key(oracles._seq_sum(fams or (zero,)))
                    if key not in keys:
                        keys.append(key)
    return keys


def _subjects_with_order_dependent_picks(seed):
    """Seeded l0inf and ck sequences with a stationary and a moving atom
    (const, harmonic or steps coefficients): a harmonic copy and a matched
    copy both carry atoms, and on l0inf two march families both carry a
    fill, so those picks are summed in both orders."""
    rng = random.Random(seed)

    def coeff():
        c = Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        return rng.choice([RationalSeq.const(c), RationalSeq.harmonic(c),
                           RationalSeq.steps([c, rng.randint(-2, 2)], c / 2)])

    for space, form in [(T, seq_form), (F, token_form)]:
        for _ in range(3):
            yield element_seq(space, atoms=[(form(0, rng.randint(1, 4)), coeff()),
                                            (form(1, rng.randint(0, 3)), coeff())])


def test_skipped_picks_change_no_candidate(monkeypatch):
    """The search yields the keys, in order, of summing and keying every
    pick, at bounds 0..8; the picks it still sums include the reverse of an
    earlier pick whose summands both carry atoms, and one whose summands
    both carry a fill."""
    summed = []

    def summing(fams, inner=oracles._seq_sum):
        summed.append(tuple(fams))
        return inner(fams)

    both = set()
    for x in _subjects_with_order_dependent_picks(34):
        for bound in range(9):
            want = _keys_of_every_pick(x, bound)
            summed.clear()
            with monkeypatch.context() as m:
                m.setattr(oracles, "_seq_sum", summing)
                got = [oracles._seq_key(c) for c in oracles._candidate_families(x, bound)]
            assert got == want, (x, bound)
            pairs = {pick for pick in summed if len(pick) == 2 and pick[0] != pick[1]}
            for a, b in pairs:
                if (b, a) in pairs:
                    both.update(part for part in ("atoms", "fills")
                                if getattr(a, part) and getattr(b, part))
    assert both == {"atoms", "fills"}


def test_dominating_search_hashes_no_scale_per_lookup():
    """The (shape, scale) families are walked in their shape's list, not
    looked up by a `Fraction` key: one search on the moving indicator
    hashes only the palette's scales (a `Fraction` key per lookup made it
    328)."""
    x = element_seq(F, atoms=[(token_form(1, 0), RationalSeq.const(1))])
    with fraction_calls(("__hash__",)) as hashes:
        res = bruteforce_dominating_search(x, 6)
    assert (res.found, res.candidates_checked) == (None, 24)
    assert hashes[0] <= 8

from __future__ import annotations

import random

import pytest

from conftest import random_element
from rieszkit.errors import PreconditionError, UnsupportedHypothesisError
from rieszkit.scalars import Q, RationalSeq
from rieszkit import calculus
from rieszkit.spaces import (
    fin_dev,
    fin_dim,
    gamma,
    pair_form,
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
    element_findev,
    element_tail,
    in_base_space,
    le,
    lincomb,
    pos,
    row_unit,
    scale,
    sub,
    unit,
    zero,
)
from rieszkit.completion import collapse
from rieszkit.operators import (
    apply_op,
    atom_image,
    add_op,
    functional,
    is_positive_operator,
    op_eq,
    operator,
    order_bounded_test,
    rank_one,
    scale_op,
    stencil_rule,
)
from rieszkit.calculus import (
    classify_pair,
    failing_generator,
    oc_projection,
    order_continuity_test,
    pervasive_witness,
    positive_part,
    projection_fixes,
    rk_value,
    verify_witness,
)
from rieszkit.convergence import verify_certificate
from rieszkit.specfile import build_all, parse
from rieszkit.operators import partial_sum_seq
from rieszkit.casebook import (
    _random_stencil_operator,
    identity_on_tail_seq,
    limit_functional_rank_one,
    moving_indicator_operator,
    row_pair_difference_operator,
)

T = tail_seq()
F = fin_dev()


def test_rk_on_atoms_is_positive_part_of_image():
    Tm = moving_indicator_operator()
    got = rk_value(Tm, atom(T, 1))
    assert collapse(got) == element_findev(F, {gamma(1): 1}, 0)
    got3 = rk_value(Tm, atom(T, 3))
    assert collapse(got3) == pos(atom_image(Tm, 3))


def test_rk_of_positive_operator_is_application(rng):
    from conftest import random_element

    for _ in range(15):
        P = _random_stencil_operator(rng, positive=True)
        x = pos(random_element(rng, T))
        assert collapse(rk_value(P, x)) == apply_op(P, x)


def test_rk_functional_unit_closed_form():
    f = functional(T, {1: 1, 2: -2}, 3)
    # max(sum of positive coefficients, unit value + sum of negative parts)
    assert coordinate(rk_value(f, unit(T)), 1) == 5
    R = rank_one(f, atom(T, 1))
    got = collapse(rk_value(R, unit(T)))
    assert got == scale(5, atom(T, 1))


def test_rk_requires_positive_argument():
    with pytest.raises(PreconditionError):
        rk_value(identity_on_tail_seq(), element_tail(T, [-1], 0))


def test_positive_part_fin_dim_matches_entrywise():
    FD2, FD3 = fin_dim(2), fin_dim(3)
    M = operator(
        FD2,
        FD3,
        {1: element_fin(FD3, [1, -3, 0]), 2: element_fin(FD3, [-2, 4, 5])},
    )
    cand, _, in_f = positive_part(M)
    assert in_f
    assert dict(cand.atom_images)[1] == element_fin(FD3, [1, 0, 0])
    assert dict(cand.atom_images)[2] == element_fin(FD3, [0, 4, 5])


def test_positive_part_of_positive_operator_is_itself(rng):
    for _ in range(10):
        P = _random_stencil_operator(rng, positive=True)
        cand, _, in_f = positive_part(P)
        assert in_f
        assert op_eq(cand, P)


def test_positive_part_row_pair_difference_not_representable():
    Tr = row_pair_difference_operator()
    cand, tail, in_f = positive_part(Tr)
    assert not in_f
    assert failing_generator(cand, tail) == "row units beyond the table"
    # the unit image itself collapses to the unit of the grid
    assert collapse(cand.unit_image) == unit(Tr.codomain)
    # atoms carry the entrywise positive parts
    assert atom_image(cand, (1, 1)) == atom(Tr.codomain, (1, 1))
    assert atom_image(cand, (1, 2)).is_zero()


def test_positive_part_row_tail_in_the_space_that_does_not_vanish():
    """Each atom maps to itself and every row unit to 0: the supremum below
    a row unit past the table is that whole row, which lies in the space
    but is not the 0 the candidate maps it to."""
    E = row_block_ek()
    rule = stencil_rule(1, 0, [[(pair_form(1, 0, 1, 0), 1)]], E)
    cand, tail, in_f = positive_part(operator(E, E, {}, rule, None, zero(E)))
    assert not in_f
    assert in_base_space(tail) and not tail.is_zero()
    assert failing_generator(cand, tail) == "row units beyond the table do not vanish"


def test_positive_part_majorant_law(rng):
    """The candidate dominates the operator and zero on generators, and any
    positive majorant provided by the suite dominates the candidate."""
    for _ in range(8):
        S = _random_stencil_operator(rng, positive=False)
        cand, _, in_f = positive_part(S)
        for i in range(1, 8):
            img = atom_image(cand, i)
            assert le(atom_image(S, i), img) and le(zero(T), img)
        assert le(S.unit_image, cand.unit_image)
        assert le(zero(T), cand.unit_image)
        # S+ + (something positive) is a positive majorant of S
        P = _random_stencil_operator(rng, positive=True)
        if in_f:
            M = add_op(cand, P)
            candM, _, _ = positive_part(M)  # M positive => candidate is M itself
            for i in range(1, 8):
                assert le(atom_image(cand, i), atom_image(M, i))


def test_order_continuity_moving_indicator():
    ok, cert = order_continuity_test(moving_indicator_operator())
    assert ok
    s = partial_sum_seq(moving_indicator_operator())
    okv, _ = verify_certificate(cert, s, zero(F))
    assert okv


def test_order_continuity_identity():
    ok, _ = order_continuity_test(identity_on_tail_seq())
    assert ok


def test_order_continuity_limit_functional_fails():
    R = limit_functional_rank_one()
    ok, cert = order_continuity_test(R)
    assert not ok
    s = partial_sum_seq(R)
    okv, _ = verify_certificate(cert, s, R.unit_image)
    assert okv


def test_order_continuity_unsupported_domain():
    with pytest.raises(UnsupportedHypothesisError):
        order_continuity_test(row_pair_difference_operator())


def test_projection_laws(rng):
    for _ in range(12):
        Tp = _random_stencil_operator(rng, positive=True)
        Sp = _random_stencil_operator(rng, positive=True)
        P_T = oc_projection(Tp)
        assert op_eq(oc_projection(P_T), P_T)
        assert le(zero(T), P_T.unit_image)
        assert le(P_T.unit_image, Tp.unit_image)
        assert op_eq(
            oc_projection(add_op(Tp, Sp)), add_op(oc_projection(Tp), oc_projection(Sp))
        )
        assert projection_fixes(Tp) == order_continuity_test(Tp)[0]


def test_projection_examples():
    assert projection_fixes(identity_on_tail_seq())
    assert projection_fixes(moving_indicator_operator())
    R = limit_functional_rank_one()
    P = oc_projection(R)
    assert P.unit_image.is_zero()
    assert not projection_fixes(R)


def test_pervasive_witness_identity():
    w = pervasive_witness(identity_on_tail_seq())
    assert w.coordinate == 1
    assert w.functional.codomain == fin_dim(1)
    assert {k: coordinate(img, 1) for k, img in w.functional.atom_images} == {1: Q(1)}
    assert w.vector == atom(T, 1)
    ok, log = verify_witness(w.operator, identity_on_tail_seq())
    assert ok, log


def test_pervasive_witness_rank_one_atom_path():
    f = functional(T, {2: Q(1, 2)}, 1)
    v = add(atom(T, 1), unit(T))
    R = rank_one(f, v)
    assert is_positive_operator(R)
    w = pervasive_witness(R)
    ok, _ = verify_witness(w.operator, R)
    assert ok
    # the witness tensors a scaled coordinate functional with an atom
    assert w.vector == atom(R.codomain, w.coordinate)


def test_pervasive_witness_unit_path():
    R = limit_functional_rank_one()
    w = pervasive_witness(R)
    assert w.generator == "unit"
    assert w.coordinate is None
    # the operator vanishes on atoms, so the witness is the operator itself
    assert apply_op(w.operator, unit(T)) == apply_op(R, unit(T))
    ok, _ = verify_witness(w.operator, R)
    assert ok


def test_pervasive_witness_skips_a_stored_zero_on_the_ck_line():
    # g(1) is stored at 0 below a positive ambient: the first positive
    # coordinate is g(2), not g(1)
    y = element_findev(F, {gamma(1): 0}, 1)
    Tc = operator(T, F, {1: y}, None, None, y)
    w = pervasive_witness(Tc)
    assert w.coordinate == gamma(2)
    ok, log = verify_witness(w.operator, Tc)
    assert ok, log


def _ck_rule_pair(table_top: int, t_rules, r_rules, unit_value: int = 1):
    """(R, T) from l0inf to ck: both map e_i to g(i) up to table_top, and
    past it each follows its rule, given as entries (coefficient, a, b) of
    a g(a n + b) per residue."""
    def op(rules):
        entries = [[(token_form(a, b), c) for c, a, b in es] for es in rules]
        rule = stencil_rule(len(rules), table_top, entries, F)
        table = {i: atom(F, gamma(i)) for i in range(1, table_top + 1)}
        return operator(T, F, table, rule, None, scale(unit_value, unit(F)))
    return op(r_rules), op(t_rules)


def test_witness_tail_window_covers_the_rule_period_and_form_meetings():
    # R = T except R(e_n) = 2 g(n) on even n: the window at probe 1 holds
    # only odd tail atoms, so the rule's period must set it
    doubled = _ck_rule_pair(2, [[(1, 1, 0)]], [[(2, 1, 0)], [(1, 1, 0)]], unit_value=2)
    # R(e_n) = g(n), while T(e_n) = g(2n - 21) + g(4n - 69) on odd n: R's
    # form meets T's at n = 21 and n = 23, where the check passes, so a
    # period of the rules from top passes too, and R !<= T at every other
    # odd n
    met = _ck_rule_pair(20, [[(1, 1, 0)], [(1, 2, -21), (1, 4, -69)]], [[(1, 1, 0)]],
                        unit_value=2)
    for R, T_ in (doubled, met):
        assert is_positive_operator(R) and is_positive_operator(T_)
        for probe in (1, 2, 3, 8):
            ok, log = verify_witness(R, T_, probe)
            assert not ok and any(line.startswith("FAIL tail") for line in log), (probe, log)
            # T itself lies below T, on the same window
            ok, log = verify_witness(T_, T_, probe)
            assert ok and "R <= T on the probed tail" in log, (probe, log)
    # T_ <= R fails off the atoms: on x = u - e_1 - ... - e_4, T_(x) is 1 at
    # g(4) and R(x) is 0 there
    R, T_ = doubled
    x = sub(unit(T), lincomb(T, [(1, atom(T, i)) for i in range(1, 5)]))
    assert coordinate(apply_op(T_, x), gamma(4)) == 1 and coordinate(apply_op(R, x), gamma(4)) == 0
    for probe in (1, 2, 3, 8, 32):
        assert verify_witness(T_, R, probe) == (
            False, ["R is positive and nonzero", "FAIL R <= T at the unit less finitely many atoms"])


@pytest.mark.parametrize("domain", [row_block_grid(), row_block_ek()], ids=["grid", "ek"])
def test_witness_on_row_blocks_checks_every_table_entry_and_row_unit(domain):
    """On a row-block domain the witness window holds rows 1..probe only:
    R <= T must still be checked at a table entry in row 40, past every
    probed row, and on ek at the row unit 40, whatever the probe.  On ek
    each row unit's image dominates its row's atom images, in T and in
    every forgery, so that all of them are positive."""
    G = row_block_grid()
    far, lit = (40, 2), atom(G, (40, 2))
    ek = domain.row_units
    rows = {1: atom(G, (1, 1)), 40: add(scale(2, lit), atom(G, (40, 5)))} if ek else {}
    T_ = operator(domain, G, {(1, 1): atom(G, (1, 1)), far: lit}, None, rows,
                  scale(2, unit(G)))
    assert is_positive_operator(T_)
    for probe in (1, 32):
        R = pervasive_witness(T_, probe).operator
        ok, log = verify_witness(R, T_, probe)
        assert ok and "R <= T on the probed atom grid and every table entry" in log, log
        # (atom images, row-unit images, unit image increase, the one FAIL line)
        raised = [({far: scale(2, lit)}, {40: scale(2, lit)} if ek else {}, scale(2, lit),
                   "FAIL R <= T at atom (40, 2)")]
        if ek:
            row5 = scale(2, atom(G, (40, 5)))
            raised.append(({}, {40: row5}, row5, "FAIL R <= T at row unit 40"))
        for images, row_images, extra, fail in raised:
            bad = operator(domain, G, {**dict(R.atom_images), **images}, None,
                           {**dict(R.row_unit_images), **row_images}, add(R.unit_image, extra))
            assert is_positive_operator(bad)
            ok, log = verify_witness(bad, T_, probe)
            assert not ok and [line for line in log if line.startswith("FAIL")] == [fail], log


def _spec_operator(dom: str, cod: str, *clauses: str):
    body = "".join(f"  {c}\n" for c in clauses)
    text = f"space E = {dom}\nspace F = {cod}\n\noperator T : E -> F {{\n{body}}}\n"
    return build_all(parse(text))[1]["T"]


FORGED = {
    "l0inf-l0inf": ("l0inf", "l0inf", "atoms n > 0 -> { 1 @ n }", "unit -> 1 * unit"),
    "l0inf-ck": ("l0inf", "ck", "atoms n > 0 -> { 1 @ g(n) }", "unit -> 1 * unit"),
    "grid-grid": ("grid", "grid", "atoms m > 0 -> { 1 @ (n,m) }", "unit -> 1 * unit"),
    "ek-l0inf": ("ek", "l0inf", "rowunit(1) -> 1 * unit", "rowunits n > 1 -> 0",
                 "unit -> 1 * unit"),
}


@pytest.mark.parametrize("name", FORGED)
def test_forged_witnesses_are_refused_at_every_probe(name):
    """R = (unit coefficient) * u, which is the limit on l0inf, lies below T
    at every atom, row unit and the unit, yet not below T: on u less
    finitely many atoms (or the first row unit, on ek) T is 0 at a
    coordinate where R is 1."""
    T_ = _spec_operator(*FORGED[name])
    R = rank_one(functional(T_.domain, {}, 1), unit(T_.codomain))
    assert any(not le(apply_op(R, x), apply_op(T_, x)) for x in _positive_test_elements(T_.domain))
    fail = "FAIL R <= T at the unit less finitely many atoms" + (
        " or row units" if T_.domain.row_units else "")
    for probe in (1, 2, 3, 8, 32):
        assert verify_witness(R, T_, probe) == (False, ["R is positive and nonzero", fail])


def test_a_difference_add_op_refuses_is_a_failed_witness():
    """On a row block one rule threshold serves every row, so T - R has no
    representation when T's rule has entries below R's threshold: the
    verifier refuses with add_op's message instead of raising."""
    G = row_block_grid()
    ident = [[(pair_form(1, 0, 1, 0), 1)]]
    T_ = operator(G, G, {}, stencil_rule(1, 0, ident, G), None, unit(G))
    R = operator(G, G, {}, stencil_rule(1, 3, [[(pair_form(1, 0, 1, 0), Q(1, 2))]], G), None,
                 unit(G))
    assert is_positive_operator(R)
    with pytest.raises(PreconditionError) as refused:
        add_op(T_, scale_op(-1, R))
    for probe in (1, 8):
        assert verify_witness(R, T_, probe) == (False, [
            "R is positive and nonzero", f"FAIL T - R is not representable: {refused.value}"])


def _positive_functional(rng, domain):
    """A random positive functional with a few atom coefficients (and on ek
    row-unit coefficients at least their row's atom coefficients)."""
    rows = domain.row.shape == "row_block"
    atoms = {((rng.randint(1, 3), rng.randint(1, 3)) if rows else rng.randint(1, 4)):
             Q(rng.randint(0, 2)) for _ in range(rng.randint(0, 3))}
    row_units = {}
    if domain.row_units:
        row_units = {r: sum((c for (n, _), c in atoms.items() if n == r), Q(rng.randint(0, 1)))
                     for r in {n for n, _ in atoms} | {1}}
    unit_value = sum((row_units or atoms).values(), Q(rng.randint(0, 2)))
    return functional(domain, atoms, unit_value, row_units)


def _random_positive_operator(rng, domain, codomain):
    """A random positive operator on a small table: atom images and their
    rows' row-unit images, each a positive element plus the sum below it."""
    rows = domain.row.shape == "row_block"
    atoms = {((rng.randint(1, 3), rng.randint(1, 3)) if rows else rng.randint(1, 4)):
             pos(random_element(rng, codomain)) for _ in range(rng.randint(1, 3))}

    def above(parts):
        return lincomb(codomain, [(1, pos(random_element(rng, codomain))),
                                  *((1, img) for img in parts)])

    row_units = {}
    if domain.row_units:
        row_units = {r: above(img for (n, _), img in atoms.items() if n == r)
                     for r in {n for n, _ in atoms}}
    return operator(domain, codomain, atoms, None, row_units,
                    above((row_units or atoms).values()))


def _positive_test_elements(domain, bound: int = 6):
    """Positive elements of the domain that separate operators: atoms, the
    unit less an initial block of atoms, and on ek a row unit less an
    initial segment of its row and the unit less the first row units."""
    if domain.row.enumerated:
        atoms = [atom(domain, i) for i in range(1, bound + 1)]
        yield from atoms
        for n in range(bound + 1):
            yield sub(unit(domain), lincomb(domain, [(1, a) for a in atoms[:n]]))
        return
    for n in range(bound + 1):
        block = [atom(domain, (r, m)) for r in range(1, n + 1) for m in range(1, n + 1)]
        yield from block[-1:]
        yield sub(unit(domain), lincomb(domain, [(1, a) for a in block]))
        if domain.row_units:
            for k in range(bound + 1):
                yield sub(row_unit(domain, n + 1),
                          lincomb(domain, [(1, atom(domain, (n + 1, m))) for m in range(1, k + 1)]))
            yield sub(unit(domain), lincomb(domain, [(1, row_unit(domain, r))
                                                     for r in range(1, n + 1)]))


def test_the_witness_verifier_is_sound_against_brute_force():
    """Random positive T (stencil operators on l0inf, small tables on ck,
    grid and ek pairs) and random positive rank-one R: the verdict is the
    same at every probe, and when it accepts, R(x) <= T(x) on every test
    element x; where a test element shows R !<= T, it refuses.  Pervasive
    witnesses, twice them, and the unit coefficient tensored with a
    multiple of the unit are among the R, so both verdicts occur."""
    rng = random.Random(20261020)
    G, E = row_block_grid(), row_block_ek()
    pairs = [(T, T), (T, F), (G, G), (E, T), (E, G)]
    verdicts = []
    for i in range(60):
        dom, cod = pairs[i % len(pairs)]
        T_ = (_random_stencil_operator(rng, positive=True) if (dom, cod) == (T, T)
              and rng.random() < 0.5 else _random_positive_operator(rng, dom, cod))
        assert is_positive_operator(T_)
        route = rng.choice(["witness", "functional", "unit"])
        if route == "witness" and not T_.unit_image.is_zero():
            R = scale_op(rng.choice([1, 2]), pervasive_witness(T_).operator)
        elif route == "unit":
            R = rank_one(functional(dom, {}, 1), scale(Q(1, rng.randint(1, 4)), unit(cod)))
        else:
            R = rank_one(_positive_functional(rng, dom), pos(random_element(rng, cod)))
        if R.unit_image.is_zero():
            continue
        outcomes = {verify_witness(R, T_, probe)[0] for probe in (1, 2, 3, 8, 32)}
        assert len(outcomes) == 1, (R, T_)
        ok = outcomes.pop()
        violated = [x for x in _positive_test_elements(dom)
                    if not le(apply_op(R, x), apply_op(T_, x))]
        # the test elements show every refusal here, though they need not
        assert ok == (not violated), (R, T_, violated[:1])
        verdicts.append(ok)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10, verdicts


def test_boundedness_precondition_is_the_leak_check(monkeypatch):
    """An unbounded operator is refused with order_bounded_test's note by
    every procedure that needs a bounded one; a bounded operator passes
    without the bound being built."""
    rule = stencil_rule(1, 0, [[(seq_form(0, 1), 1)]], T)
    leak = operator(T, T, {}, rule, None, zero(T))
    note = order_bounded_test(leak).note
    assert note == "coordinate 1 accumulates unboundedly through the tail rule"
    calls = (
        (rk_value, (leak, unit(T))),
        (positive_part, (leak,)),
        (oc_projection, (leak,)),
        (order_continuity_test, (leak,)),
    )
    for call, args in calls:
        with pytest.raises(PreconditionError) as err:
            call(*args)
        assert str(err.value) == f"operator is not order bounded: {note}"

    def no_bound(op_):
        raise AssertionError("the order bound was built")

    monkeypatch.setattr(calculus, "order_bounded_test", no_bound)
    ident = identity_on_tail_seq()
    rk_value(ident, unit(T))
    positive_part(ident)
    oc_projection(oc_projection(ident))
    order_continuity_test(ident)


def test_pervasive_witness_requires_positive():
    with pytest.raises(PreconditionError):
        pervasive_witness(moving_indicator_operator())
    from rieszkit.operators import zero_op

    with pytest.raises(PreconditionError):
        pervasive_witness(zero_op(T, T))


def test_entrywise_pos_keeps_rule_shape():
    Tm = moving_indicator_operator()
    P = positive_part(Tm)[0]
    assert atom_image(P, 3) == element_findev(F, {gamma(3): 1}, 0)


def test_positive_part_of_positive_rowblock_operator():
    """A positive operator from the row-block space is its own positive
    part; the candidate collapses on every generator including the row
    units beyond the table."""
    from rieszkit.spaces import row_block_ek, row_block_grid
    from rieszkit.elements import row_unit
    from rieszkit.operators import row_unit_image

    E, G = row_block_ek(), row_block_grid()
    img = add(atom(G, (1, 1)), atom(G, (2, 2)))
    ru1 = add(img, atom(G, (1, 2)))
    unit_img = add(ru1, unit(G))
    P = operator(E, G, {(1, 1): img}, None, {1: ru1}, unit_img)
    assert is_positive_operator(P)
    cand, _, in_f = positive_part(P)
    assert in_f
    assert op_eq(cand, P)
    assert cand.unit_image == unit_img
    assert row_unit_image(cand, 1) == ru1
    assert dict(cand.atom_images)[(1, 1)] == img


def _atom_row_operator(c, unit_value):
    """ek -> ek: e(5,1) -> c e(1,1), every row unit -> 0, unit ->
    unit_value e(1,1).  Row 5 has an atom entry and no row-unit entry;
    y = r(5) - e(5,1) is positive and T(y) = -c e(1,1)."""
    from rieszkit.elements import row_unit, sub

    E = row_block_ek()
    e11 = atom(E, (1, 1))
    T_ = operator(E, E, {(5, 1): scale(c, e11)}, None, {}, scale(unit_value, e11))
    return T_, sub(row_unit(E, 5), atom(E, (5, 1))), e11


def test_atom_row_without_a_row_unit_entry_is_not_positive():
    """The row unit 5 maps to 0 below the positive image of e(5,1), so T is
    not positive and has no rank-one minorant at any probe."""
    from rieszkit.elements import is_positive

    T_, y, e11 = _atom_row_operator(1, 1)
    assert is_positive(y) and apply_op(T_, y) == scale(-1, e11)
    assert not is_positive_operator(T_)
    for probe in (1, 8, 32):
        with pytest.raises(PreconditionError, match="T is not positive"):
            pervasive_witness(T_, probe)


@pytest.mark.parametrize("c, unit_value, row5, unit_sup", [
    (1, 1, 1, 2),
    (-1, 0, 1, 1),
], ids=["positive-image", "negative-image"])
def test_positive_part_carries_the_rows_of_atom_entries(c, unit_value, row5, unit_sup):
    """T+ below the row unit 5 is the supremum over its row, which the
    row-unit table must carry: P(r(5)) and P(unit) are the interval
    suprema, and P majorizes T and 0 at y = r(5) - e(5,1)."""
    from rieszkit.elements import row_unit

    T_, y, e11 = _atom_row_operator(c, unit_value)
    P, tail, in_f = positive_part(T_)
    assert in_f and tail.is_zero()
    assert apply_op(P, row_unit(T_.domain, 5)) == scale(row5, e11)
    assert P.unit_image == scale(unit_sup, e11)
    assert le(apply_op(T_, y), apply_op(P, y)) and le(zero(T_.codomain), apply_op(P, y))


def test_generic_row_lies_past_the_rows_where_rule_row_forms_meet():
    """The rule sends e(n,m) to e(n,m) - e(2n-1,m+1): on row 1 its two
    forms share an output row, so row 1's row sum e(1,1) is positive while
    every later row's is not.  T+(unit) sums a correction over each of
    those rows and leaves the representable fragment; it is refused,
    not read off row 1 (where 0 <= y <= unit has T(y) = 2 at (3,2) and
    row 1 would give 1)."""
    from rieszkit.elements import is_positive, row_unit, sub
    from rieszkit.operators import table_rows

    E = row_block_ek()
    rule = stencil_rule(1, 0, [[(pair_form(1, 0, 1, 0), 1),
                                (pair_form(2, -1, 1, 1), -1)]], E)
    T_ = operator(E, E, {}, rule, {}, zero(E))
    assert table_rows(T_) == [1, 2]
    y = add(atom(E, (3, 2)), sub(row_unit(E, 2), atom(E, (2, 1))))
    assert is_positive(y) and le(y, unit(E)) and coordinate(apply_op(T_, y), (3, 2)) == 2
    with pytest.raises(UnsupportedHypothesisError, match="leave the representable completion"):
        rk_value(T_, unit(E))


@pytest.mark.parametrize("codomain", [row_block_grid(), row_block_ek()], ids=["grid", "ek"])
def test_positivity_and_positive_part_on_the_generator_family(codomain):
    """Seeded ek operators whose atom tables sit partly on rows without
    row-unit entries.  T >= 0 exactly when T(y) >= 0 for every y of the
    family e_a, r_n - sum_{m<=k} e(n,m), u - sum_{n<=N} r_n over the touched
    rows and columns; positive_part's P majorizes T and 0 on that family,
    and is T itself when T >= 0."""
    from rieszkit.elements import is_positive, lincomb, row_unit, sub

    rng = random.Random(20261019)
    E, G = row_block_ek(), codomain
    cells = [(n, m) for n in range(1, 4) for m in range(1, 3)]

    def image(span=2):
        return lincomb(G, [(rng.randint(-1, span), atom(G, k)) for k in rng.sample(cells, 2)])

    positives = 0
    for _ in range(60):
        table = {k: image() for k in rng.sample(cells, rng.randint(1, 3))}
        rows = {}
        for n in {k[0] for k in table} | {rng.randint(1, 4)}:
            if rng.random() < 0.7:
                row_sum = lincomb(G, [(1, img) for k, img in table.items() if k[0] == n])
                rows[n] = add(row_sum, pos(image(1))) if rng.random() < 0.8 else image()
        total = lincomb(G, [(1, img) for img in rows.values()])
        unit_img = add(total, pos(image(1))) if rng.random() < 0.8 else image()
        T_ = operator(E, G, table, None, rows, unit_img)
        top_row, top_col = 5, 3
        family = [atom(E, (n, m)) for n in range(1, top_row + 1) for m in range(1, top_col + 1)]
        for n in range(1, top_row + 1):
            family += [sub(row_unit(E, n), lincomb(E, [(1, atom(E, (n, m)))
                                                       for m in range(1, k + 1)]))
                       for k in range(top_col + 1)]
        family += [sub(unit(E), lincomb(E, [(1, row_unit(E, n)) for n in range(1, N + 1)]))
                   for N in range(top_row + 1)]
        assert all(is_positive(y) for y in family)
        images = [apply_op(T_, y) for y in family]
        positive = is_positive_operator(T_)
        assert positive == all(is_positive(img) for img in images), T_
        positives += positive
        P, _, in_f = positive_part(T_)
        assert in_f
        for y, img in zip(family, images):
            Py = apply_op(P, y)
            assert le(img, Py) and is_positive(Py), (T_, y)
        if positive:
            assert op_eq(P, T_)
    assert 10 <= positives <= 50


def test_rk_row_unit_matches_brute_enumeration():
    """Enumerate 0/1-vectors below a row unit on a truncated grid: the
    coordinatewise maxima of the images must saturate the claimed pattern
    on the probed window and never exceed it."""
    from itertools import product as iproduct

    from rieszkit.elements import sup2
    from rieszkit.spaces import row_block_ek

    Tr = row_pair_difference_operator()
    E = Tr.domain
    r = 1
    pattern = rk_value(Tr, _row_unit(E, r))
    level = 6
    best = zero(Tr.codomain)
    for bits in iproduct((0, 1), repeat=level):
        y = zero(E)
        for m, b in enumerate(bits, start=1):
            if b:
                y = add(y, atom(E, (r, m)))
        best = sup2(best, apply_op(Tr, y))
    # saturation on the window the truncation can reach
    for m in range(1, level // 2 + 1):
        from rieszkit.elements import coordinate

        assert coordinate(best, (r, m)) == 1 == coordinate(pattern, (r, m))
    # and the enumeration never exceeds the pattern anywhere probed
    for n in range(1, 4):
        for m in range(1, level + 2):
            from rieszkit.elements import coordinate

            assert coordinate(best, (n, m)) <= coordinate(pattern, (n, m))


def _row_unit(space, r):
    from rieszkit.elements import row_unit

    return row_unit(space, r)


def test_rk_unit_matches_brute_enumeration_ek():
    """Same cross-check at the unit of the row-block domain: the claimed
    supremum is the constant-one pattern."""
    from itertools import product as iproduct

    from rieszkit.elements import coordinate, sup2

    Tr = row_pair_difference_operator()
    E = Tr.domain
    pattern = rk_value(Tr, unit(E))
    best = zero(Tr.codomain)
    for bits in iproduct((0, 1), repeat=8):
        y = zero(E)
        for k, b in enumerate(bits):
            if b:
                y = add(y, atom(E, (k // 4 + 1, k % 4 + 1)))
        best = sup2(best, apply_op(Tr, y))
    for n in range(1, 3):
        for m in range(1, 3):
            assert coordinate(best, (n, m)) == 1 == coordinate(pattern, (n, m))
    assert collapse(rk_value(Tr, unit(E))) == unit(Tr.codomain)


def test_classify_pairs():
    c = classify_pair(T, T)
    assert "grid-codomain-rk" in c.anchors
    c2 = classify_pair(T, F)
    assert not c2.riesz_space
    c3 = classify_pair(fin_dim(2), fin_dim(3))
    assert c3.riesz_space and c3.codomain_order_complete
    c4 = classify_pair(row_block_ek(), row_block_grid())
    assert "atomic-codomain-witness" in c4.anchors

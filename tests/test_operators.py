from __future__ import annotations

import random

import pytest

from conftest import random_element, random_scalar
from rieszkit.errors import InvalidIndexError, PreconditionError, StencilError
from rieszkit.scalars import Q, RationalSeq
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
    abs_,
    add,
    atom,
    coordinate,
    element_fin,
    element_findev,
    element_tail,
    le,
    lincomb,
    max_abs_coord,
    pos,
    row_unit,
    scale,
    unit,
    zero,
)
from rieszkit.operators import (
    add_op,
    apply_op,
    atom_image,
    decompose,
    first_negative_generator,
    functional,
    image_parts,
    image_sum_pattern,
    is_positive_operator,
    op_eq,
    operator,
    order_bounded_test,
    partial_sum_seq,
    rank_one,
    recompose,
    row_sum_pattern,
    row_unit_image,
    scale_op,
    stencil_rule,
    table_top,
)
from rieszkit.sequences import eval_seq
from rieszkit.specfile import build_all, parse
from rieszkit.casebook import (
    identity_on_tail_seq,
    limit_functional_rank_one,
    moving_indicator_operator,
    row_pair_difference_operator,
)

T = tail_seq()
F = fin_dev()


def test_decompose_recompose():
    x = element_tail(T, [3, 5], 5)
    parts = decompose(x)
    assert parts == [(("atom", 1), Q(-2)), (("unit",), Q(5))]
    assert recompose(T, parts) == x
    assert decompose(atom(T, 4)) == [(("atom", 4), Q(1))]


def test_decompose_rowblock(rng):
    from conftest import random_element

    E = row_block_ek()
    x = random_element(rng, E)
    assert recompose(E, decompose(x)) == x
    one_atom = atom(E, (1, 1))
    assert decompose(one_atom) == [(("atom", (1, 1)), Q(1))]


def test_decompose_all_kinds(rng):
    from conftest import ALL_SPACES, random_element

    for space in ALL_SPACES:
        for _ in range(25):
            x = random_element(rng, space)
            assert recompose(space, decompose(x)) == x


def test_apply_moving_indicator():
    Tm = moving_indicator_operator()
    assert apply_op(Tm, unit(T)).is_zero()
    assert atom_image(Tm, 3) == element_findev(F, {gamma(3): 1, gamma(2): -1}, 0)
    assert apply_op(zero_like(Tm), element_tail(T, [1, 2], 3)).is_zero()


def zero_like(op_):
    from rieszkit.operators import zero_op

    return zero_op(op_.domain, op_.codomain)


def test_apply_linear(rng):
    from conftest import random_element

    Tm = moving_indicator_operator()
    for _ in range(20):
        x = random_element(rng, T)
        y = random_element(rng, T)
        a, b = Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))
        lhs = apply_op(Tm, add(scale(a, x), scale(b, y)))
        rhs = add(scale(a, apply_op(Tm, x)), scale(b, apply_op(Tm, y)))
        assert lhs == rhs


def test_operator_arithmetic(rng):
    from conftest import random_element

    S = identity_on_tail_seq()
    R = limit_functional_rank_one()
    for _ in range(10):
        x = random_element(rng, T)
        assert apply_op(add_op(S, R), x) == add(apply_op(S, x), apply_op(R, x))
        assert apply_op(scale_op(Q(-3, 2), S), x) == scale(Q(-3, 2), apply_op(S, x))


def test_rank_one():
    f = functional(T, {1: 1}, 1)
    R = rank_one(f, atom(T, 1))
    assert apply_op(R, element_tail(T, [3, 5], 5)) == scale(3, atom(T, 1))
    Rz = rank_one(f, zero(T))
    assert apply_op(Rz, unit(T)).is_zero()
    lf = functional(T, {}, 1)
    Rl = rank_one(lf, unit(T))
    assert apply_op(Rl, element_tail(T, [3, 5], 5)) == scale(5, unit(T))


def test_rank_one_positive(rng):
    from conftest import random_element

    f = functional(T, {1: Q(1, 2), 3: 2}, 4)
    R = rank_one(f, add(atom(T, 2), unit(T)))
    for _ in range(20):
        x = random_element(rng, T)
        xp = pos(x)
        assert le(zero(T), apply_op(R, xp))


def test_partial_sums_telescope():
    Tm = moving_indicator_operator()
    s = partial_sum_seq(Tm)
    for n in range(1, 7):
        literal = zero(F)
        for k in range(1, n + 1):
            literal = add(literal, atom_image(Tm, k))
        assert eval_seq(s, n) == literal == element_findev(F, {gamma(n): 1}, 0)
    # consistency: s_n - s_{n-1} = image of the n-th atom
    for n in range(2, 8):
        assert eval_seq(s, n) - eval_seq(s, n - 1) == atom_image(Tm, n)


def test_partial_sums_identity():
    s = partial_sum_seq(identity_on_tail_seq())
    assert eval_seq(s, 3) == element_tail(T, [1, 1, 1], 0)
    z = partial_sum_seq(zero_like(identity_on_tail_seq()))
    assert eval_seq(z, 5).is_zero()


def test_order_bounded_moving_indicator():
    rep = order_bounded_test(moving_indicator_operator())
    assert rep.bounded
    assert rep.bound == scale(2, unit(F))


def test_order_bounded_fails_on_stationary_leak():
    rule = stencil_rule(1, 0, [[(seq_form(0, 1), 1)]], T)
    leak = operator(T, T, {}, rule, None, zero(T))
    rep = order_bounded_test(leak)
    assert not rep.bounded
    with pytest.raises(StencilError):
        partial_sum_seq(leak)


def test_order_bounded_zero():
    rep = order_bounded_test(zero_like(identity_on_tail_seq()))
    assert rep.bounded
    assert rep.bound == zero(T)


def test_positive_operator_checks():
    assert is_positive_operator(identity_on_tail_seq())
    assert is_positive_operator(limit_functional_rank_one())
    assert not is_positive_operator(moving_indicator_operator())
    assert not is_positive_operator(row_pair_difference_operator())


def test_the_positivity_decider_names_the_first_failing_generator():
    """A table atom, a negative rule coefficient (at its class's first atom
    past the table, on a row past the table rows), a stationary entry and
    the image sum each name the generator where T >= 0 fails; on ek a row
    whose atom images sum past its row unit's image names that row unit."""
    G, E = row_block_grid(), row_block_ek()
    ident = stencil_rule(2, 1, [[(pair_form(1, 0, 1, 0), 1)], [(pair_form(1, 0, 1, 0), -1)]], G)
    stationary = stencil_rule(1, 0, [[(seq_form(0, 1), 1)]], T)
    cases = [
        (operator(T, T, {2: element_tail(T, [0, -1], 0)}, None, None, unit(T)), ("atom", 2)),
        (operator(G, G, {(3, 1): atom(G, (3, 1))}, ident, None, unit(G)), ("atom", (4, 3))),
        (operator(T, T, {}, stationary, None, unit(T)), ("unit",)),
        (operator(T, T, {1: atom(T, 1)}, None, None, zero(T)), ("unit",)),
        (operator(E, T, {(2, 1): atom(T, 1)}, None, {2: zero(T)}, unit(T)), ("row_unit", 2)),
        (operator(E, T, {}, None, {2: unit(T)}, zero(T)), ("unit",)),
        (identity_on_tail_seq(), None),
    ]
    for T_, ref in cases:
        assert first_negative_generator(T_) == ref
        assert is_positive_operator(T_) == (ref is None)


def test_functional_application():
    f = functional(T, {1: 1, 2: -2}, 3)
    assert f.codomain == fin_dim(1)
    assert coordinate(apply_op(f, unit(T)), 1) == 3
    assert coordinate(apply_op(f, atom(T, 1)), 1) == 1
    x = element_tail(T, [3, 5], 5)
    assert coordinate(apply_op(f, x), 1) == 3 * 1 + 5 * (-2) + 5 * (3 - (-1))


def test_row_pair_difference_images():
    Tr = row_pair_difference_operator()
    E = Tr.domain
    assert apply_op(Tr, atom(E, (1, 1))) == atom(Tr.codomain, (1, 1))
    assert apply_op(Tr, atom(E, (2, 4))) == scale(-1, atom(Tr.codomain, (2, 2)))
    assert apply_op(Tr, row_unit(E, 1)).is_zero()
    assert apply_op(Tr, unit(E)).is_zero()


def test_stencil_validation():
    with pytest.raises(StencilError):
        stencil_rule(1, 0, [[(seq_form(Q(1, 2), 0), 1)]], T)  # not integral
    with pytest.raises(StencilError):
        stencil_rule(1, 0, [[(seq_form(-1, 10), 1)]], T)  # leaves the index set
    with pytest.raises(StencilError):
        stencil_rule(
            1, 0, [[(seq_form(1, 0), 1), (seq_form(2, -3), 1)]], T
        )  # collide at n = 3
    merged = stencil_rule(1, 0, [[(seq_form(1, 0), 1), (seq_form(1, 0), 2)]], T)
    assert merged.entries[0][0][1] == Q(3)


def test_pair_domain_explicit_override_of_the_rule():
    """An explicit pair image overrides the rule at that atom only; other
    rows keep their rule images and pattern sums compensate exactly."""
    E, G = row_block_ek(), row_block_grid()
    rule = stencil_rule(
        2,
        0,
        [
            [(pair_form(1, 0, Q(1, 2), 0), -1)],
            [(pair_form(1, 0, Q(1, 2), Q(1, 2)), 1)],
        ],
        G,
    )
    override = scale(5, atom(G, (7, 7)))
    Tr = operator(E, G, {(2, 3): override}, rule, {}, zero(G))
    assert atom_image(Tr, (2, 3)) == override
    assert atom_image(Tr, (1, 3)) == atom(G, (1, 2))   # rule untouched elsewhere
    assert atom_image(Tr, (2, 5)) == atom(G, (2, 3))
    sig = image_sum_pattern(Tr, "pos")
    # the overridden atom contributes 5 at (7,7) instead of 1 at (2,2)
    assert coordinate(sig, (7, 7)) == 5 + 1   # override plus the rule image of atom (7,13)
    assert coordinate(sig, (2, 2)) == 0       # the rule contribution there was overridden
    assert coordinate(sig, (1, 2)) == 1


def test_pair_domain_add_keeps_overrides():
    E, G = row_block_ek(), row_block_grid()
    rule = stencil_rule(
        2,
        0,
        [
            [(pair_form(1, 0, Q(1, 2), 0), -1)],
            [(pair_form(1, 0, Q(1, 2), Q(1, 2)), 1)],
        ],
        G,
    )
    override = scale(5, atom(G, (7, 7)))
    A = operator(E, G, {(2, 3): override}, rule, {}, zero(G))
    B = operator(E, G, {}, rule, {}, zero(G))
    S = add_op(A, B)
    assert atom_image(S, (2, 3)) == add(override, atom(G, (2, 2)))
    assert atom_image(S, (1, 3)) == scale(2, atom(G, (1, 2)))
    x = add(atom(E, (2, 3)), row_unit(E, 1))
    assert apply_op(S, x) == add(apply_op(A, x), apply_op(B, x))


def test_pair_stencil_single_atom_collision_rejected():
    # both entries hit output (3, 3) for the atom (3, 3): entrywise
    # transforms would be wrong there, so construction refuses
    E, G = row_block_ek(), row_block_grid()
    with pytest.raises(StencilError):
        stencil_rule(
            1,
            0,
            [[(pair_form(1, 0, 1, 0), 1), (pair_form(2, -3, 2, -3), -1)]],
            G,
        )


def test_add_materializes_collisions():
    a = operator(T, T, {}, stencil_rule(1, 0, [[(seq_form(1, 0), 1)]], T), None, unit(T))
    b = operator(
        T, T, {}, stencil_rule(1, 2, [[(seq_form(2, -3), 1)]], T), None, unit(T)
    )
    # the forms meet at n = 3, which add_op materializes as an explicit image
    s = add_op(a, b)
    for i in range(1, 9):
        assert atom_image(s, i) == add(atom_image(a, i), atom_image(b, i))
    assert op_eq(add_op(a, b), add_op(b, a))


def test_add_of_rules_that_meet_on_every_column_of_a_row_is_refused():
    """Rows n + 1 and 2n meet at row 1, and the columns agree everywhere, so
    the sum's entries meet at every atom (1, m): no threshold can hold them
    apart, and the sum is refused."""
    E, G = row_block_ek(), row_block_grid()
    a = operator(E, G, {}, stencil_rule(1, 0, [[(pair_form(1, 1, 1, 0), 1)]], G), None, zero(G))
    b = operator(E, G, {}, stencil_rule(1, 0, [[(pair_form(2, 0, 1, 0), 1)]], G), None, zero(G))
    with pytest.raises(StencilError, match="collide"):
        add_op(a, b)


def test_add_of_row_block_rules_with_an_entry_between_the_thresholds_is_refused():
    E, G = row_block_ek(), row_block_grid()
    early = operator(E, G, {}, stencil_rule(1, 0, [[(pair_form(1, 0, 1, 0), 1)]], G), None, zero(G))
    late = operator(E, G, {}, stencil_rule(1, 2, [[(pair_form(1, 0, 2, 0), 1)]], G), None, zero(G))
    with pytest.raises(PreconditionError, match="column 1"):
        add_op(early, late)
    # a rule that is zero on the columns between the thresholds adds
    sparse = operator(E, G, {}, stencil_rule(3, 0, [[(pair_form(1, 0, 1, 0), 1)], [], []], G),
                      None, zero(G))
    s = add_op(sparse, late)
    for m in range(1, 10):
        assert atom_image(s, (4, m)) == add(atom_image(sparse, (4, m)), atom_image(late, (4, m)))


def test_pair_rows_meeting_at_row_zero_do_not_collide():
    """Rows n and 2n meet only at n = 0, which is no row."""
    E, G = row_block_ek(), row_block_grid()
    rule = stencil_rule(1, 0, [[(pair_form(1, 0, 1, 0), 1), (pair_form(2, 0, 1, 0), 1)]], G)
    T_ = operator(E, G, {}, rule, None, zero(G))
    assert atom_image(T_, (3, 2)) == add(atom(G, (3, 2)), atom(G, (6, 2)))


def _random_rule(rng, modulus, threshold, form, cod):
    """A stencil rule with up to two random entries per residue class, drawn
    again until the entries are valid and never meet."""
    while True:
        entries = [[(form(), random_scalar(rng) or 1) for _ in range(rng.randint(0, 2))]
                   for _ in range(modulus)]
        try:
            return stencil_rule(modulus, threshold, entries, cod)
        except StencilError:
            pass


def _random_summand(rng, dom, cod, form, table_idx):
    """A table operator, a rule operator with a table, or a rank-one."""
    unit_img = random_element(rng, cod)
    rows = {r: random_element(rng, cod) for r in range(1, 3)} if dom.row_units else None
    table = {idx: random_element(rng, cod) for idx in rng.sample(table_idx, rng.randint(0, 2))}
    shape = rng.choice(("table", "rule", "rule", "rule", "rank one"))
    if shape == "rank one":
        f = functional(dom, {idx: random_scalar(rng) for idx in rng.sample(table_idx, 2)},
                       random_scalar(rng), {1: random_scalar(rng)} if dom.row_units else None)
        return rank_one(f, random_element(rng, cod))
    rule = None
    if shape == "rule":
        rule = _random_rule(rng, rng.randint(1, 3), rng.randint(0, 3), form, cod)
    return operator(dom, cod, table, rule, rows, unit_img)


@pytest.mark.parametrize("dom, cod", [(T, T), (row_block_ek(), row_block_grid()),
                                      (row_block_grid(), row_block_ek())],
                         ids=["l0inf", "ek->grid", "grid->ek"])
def test_add_op_is_the_literal_sum(dom, cod):
    """add_op(S, T) against S + T generator by generator, on seeded tables,
    rules and rank-ones: every atom up to two rule periods past the larger
    threshold, on every row up to two past the tables' rows, every row unit
    and the unit.  A refused sum is skipped, and most are not refused."""
    rng = random.Random(20261019)
    if dom.row.sequence:
        def form():
            return seq_form(rng.randint(1, 3), rng.randint(0, 12))
        table_idx = list(range(1, 4))
    else:
        def form():
            return pair_form(rng.randint(1, 2), rng.randint(0, 1), rng.randint(1, 2),
                             rng.randint(0, 2))
        table_idx = [(n, m) for n in range(1, 4) for m in range(1, 5)]
    summed = 0
    for _ in range(80):
        S, R = (_random_summand(rng, dom, cod, form, table_idx) for _ in range(2))
        try:
            SR = add_op(S, R)
        except (StencilError, PreconditionError):
            continue
        summed += 1
        top = max(table_top(S), table_top(R), table_top(SR)) + 12
        rows = range(1, 6) if dom.row.shape == "row_block" else [None]
        for n in rows:
            for m in range(1, top + 1):
                idx = m if n is None else (n, m)
                assert atom_image(SR, idx) == add(atom_image(S, idx), atom_image(R, idx)), idx
        for r in range(1, 4) if dom.row_units else ():
            assert row_unit_image(SR, r) == add(row_unit_image(S, r), row_unit_image(R, r))
        assert SR.unit_image == add(S.unit_image, R.unit_image)
    assert summed >= 60, summed


def test_add_op_materializes_no_table_column_past_the_rule():
    """The sum of the row-pair difference and a rank-one with table columns 1
    and 3 keeps the rule on every row below column 3: e_(3,1), on a row past
    both tables, maps to e_(3,1)."""
    E, G = row_block_ek(), row_block_grid()
    v = recompose(G, [(("atom", (1, 2)), 3), (("atom", (4, 1)), -1), (("unit",), 2)])
    f = functional(E, {(1, 1): 2, (2, 3): -1}, 1, {1: 1, 3: Q(-1, 2)})
    S = add_op(row_pair_difference_operator(), rank_one(f, v))
    assert atom_image(S, (3, 1)) == atom(G, (3, 1))
    assert atom_image(S, (5, 3)) == atom(G, (5, 2))


def test_image_sum_pattern_values():
    sig = image_sum_pattern(identity_on_tail_seq(), "id")
    from rieszkit.completion import collapse

    assert collapse(sig) == unit(T)
    Tm = moving_indicator_operator()
    sig_abs = image_sum_pattern(Tm, "abs")
    assert max_abs_coord(sig_abs) == 2


def test_op_eq_sees_an_explicit_image_far_down_the_rows():
    G = row_block_grid()
    far = operator(G, G, {(10, 1): atom(G, (1, 1))}, None, None, zero(G))
    none = operator(G, G, {}, None, None, zero(G))
    assert not op_eq(far, none)
    assert op_eq(far, operator(G, G, {(10, 1): atom(G, (1, 1))}, None, None, zero(G)))


def test_op_eq_sees_tail_rules_that_agree_at_one_index_only():
    def on_class_7(form):
        rule = stencil_rule(8, 0, [[] for _ in range(7)] + [[(form, 1)]], T)
        return operator(T, T, {}, rule, None, zero(T))

    a, b = on_class_7(seq_form(1, 0)), on_class_7(seq_form(2, -7))
    # n and 2n-7 meet at n = 7 and nowhere else in the class
    assert atom_image(a, 7) == atom_image(b, 7)
    assert atom_image(a, 15) != atom_image(b, 15)
    assert not op_eq(a, b)
    assert op_eq(a, on_class_7(seq_form(1, 0)))


def test_operators_from_uncountable_domain_refused():
    with pytest.raises(PreconditionError):
        operator(F, T, {}, None, None, zero(T))


# ---------------------------------------------------------------------------
# generator images as parts: apply_op, atom_image and the image sums


def _spec_operator(path: str):
    with open(path) as fh:
        return build_all(parse(fh.read()))[1]["T"]


def _parts_path_cases():
    """(operator, argument) by name, over every payload shape.  Each argument's
    generators hit what the operator stores: table atoms, rule atoms, row
    units and the unit, wherever the operator has them."""
    l0inf_rule = stencil_rule(2, 2, [
        [(seq_form(1, 0), 1), (seq_form(1, 3), -2)],
        [(seq_form(2, 0), Q(1, 2))],
    ], T)
    l0inf_stencil = operator(
        T, T, {1: element_tail(T, [0, 2], 0), 2: element_tail(T, [1, 0, -1], 1)},
        l0inf_rule, None, element_tail(T, [1], 3))
    E, G = row_block_ek(), row_block_grid()
    v = recompose(G, [(("atom", (1, 2)), 3), (("atom", (4, 1)), -1), (("unit",), 2)])
    f = functional(E, {(1, 1): 2, (2, 3): -1}, 1, {1: 1, 3: Q(-1, 2)})
    row_pair_table = add_op(row_pair_difference_operator(), rank_one(f, v))
    ek_arg = recompose(E, [
        (("atom", (1, 1)), 1), (("atom", (2, 3)), -2), (("atom", (1, 6)), 3),
        (("atom", (5, 9)), 1), (("row_unit", 1), 2), (("row_unit", 3), -1), (("unit",), 4),
    ])
    return {
        "l0inf stencil": (l0inf_stencil, element_tail(T, [1, -2, 3, 0, 5, 7], 4)),
        "ck moving indicator": (moving_indicator_operator(), element_tail(T, [2, 0, -1, 3], -1)),
        "ek->grid row pair": (row_pair_difference_operator(), ek_arg),
        "ek->grid row pair with a table": (row_pair_table, ek_arg),
        "findim matrix": (_spec_operator("tests/specs/findim_matrix.rzk"),
                          element_fin(fin_dim(3), [1, -2, 3])),
        "ek row-tail spec": (_spec_operator("tests/specs/ek_row_tail.rzk"), ek_arg),
    }


_PARTS_PATH_NAMES = ["l0inf stencil", "ck moving indicator", "ek->grid row pair",
                     "ek->grid row pair with a table", "findim matrix", "ek row-tail spec"]


def _reference_image(T_, ref):
    """T_ of one generator from the operator's data alone: a stored image as
    stored, a rule atom as the sum of the stencil's scaled codomain atoms."""
    cod = T_.codomain
    if ref[0] == "unit":
        return T_.unit_image
    if ref[0] == "row_unit":
        return dict(T_.row_unit_images).get(ref[1], zero(cod))
    idx = ref[1]
    table = dict(T_.atom_images)
    if idx in table:
        return table[idx]
    i = idx[1] if isinstance(idx, tuple) else idx
    if T_.rule is None or i <= T_.rule.threshold:
        return zero(cod)
    return lincomb(cod, [
        (c, atom(cod, (form.row.at_int(idx[0]), form.col.at_int(idx[1]))
                  if isinstance(idx, tuple) else form.at(idx)))
        for form, c in T_.rule.entries_for(i)
    ])


def _generator_kind(T_, ref):
    if ref[0] != "atom":
        return ref[0]
    return "table atom" if ref[1] in dict(T_.atom_images) else "rule atom"


@pytest.mark.parametrize("name", _PARTS_PATH_NAMES)
def test_apply_op_is_the_lincomb_of_the_generator_images(name):
    T_, x = _parts_path_cases()[name]
    parts = decompose(x)
    want = {"table atom"} if T_.atom_images else set()
    want |= {"rule atom"} if T_.rule is not None else set()
    want |= set() if T_.domain.dim else {"unit"}
    want |= {"row_unit"} if T_.domain.row_units else set()
    assert {_generator_kind(T_, ref) for ref, _ in parts} == want
    expected = lincomb(T_.codomain, [(c, _reference_image(T_, ref)) for ref, c in parts])
    assert apply_op(T_, x) == expected
    for ref, _ in parts:
        img = _reference_image(T_, ref)
        assert recompose(T_.codomain, image_parts(T_, ref)) == img, ref
        if ref[0] == "atom":
            assert atom_image(T_, ref[1]) == img, ref
        elif ref[0] == "row_unit":
            assert row_unit_image(T_, ref[1]) == img, ref


_ELEMENT_TF = {"id": lambda x: x, "pos": pos, "abs": abs_}


@pytest.mark.parametrize("transform", sorted(_ELEMENT_TF))
def test_image_sums_match_the_literal_sums_of_transformed_images(transform):
    """Every rule here sends the atoms past N to coordinates past N / 2, so
    the coordinates up to that read the literal sum over the first N atoms
    (of each row on the row blocks)."""
    etf, N, K = _ELEMENT_TF[transform], 24, 10
    cases = {name: T_ for name, (T_, _) in _parts_path_cases().items()}
    for name in ("l0inf stencil", "ck moving indicator"):
        T_ = cases[name]
        sigma = image_sum_pattern(T_, transform)
        literal = lincomb(T_.codomain, [(1, etf(atom_image(T_, i))) for i in range(1, N + 1)])
        at = gamma if name.startswith("ck") else int
        for k in range(1, K + 1):
            assert coordinate(sigma, at(k)) == coordinate(literal, at(k)), (name, k)
    for name in ("ek->grid row pair", "ek->grid row pair with a table", "ek row-tail spec"):
        T_ = cases[name]
        rows = range(1, 4)
        sigma = image_sum_pattern(T_, transform)
        literal = lincomb(T_.codomain, [(1, etf(atom_image(T_, (r, m))))
                                        for r in rows for m in range(1, N + 1)])
        for r in rows:
            row_sigma = row_sum_pattern(T_, r, transform)
            row_literal = lincomb(T_.codomain, [(1, etf(atom_image(T_, (r, m))))
                                                for m in range(1, N + 1)])
            for k in range(1, K + 1):
                assert coordinate(sigma, (r, k)) == coordinate(literal, (r, k)), (name, r, k)
                assert coordinate(row_sigma, (r, k)) == coordinate(row_literal, (r, k)), (
                    name, r, k)


def test_a_rule_form_off_the_codomain_raises_alike_from_apply_op_and_atom_image():
    C = fin_dim(2)
    off = operator(T, C, {}, stencil_rule(1, 0, [[(seq_form(0, 7), 1)]], C), None, zero(C))
    with pytest.raises(InvalidIndexError) as via_atom:
        atom_image(off, 2)
    with pytest.raises(InvalidIndexError) as via_apply:
        apply_op(off, element_tail(T, [0, 1], 0))
    assert str(via_apply.value) == str(via_atom.value) == "atom index 7 out of range"

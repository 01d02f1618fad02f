from __future__ import annotations

import pytest

from rieszkit.errors import InvalidIndexError, NotDecreasingError, StencilError
from rieszkit.scalars import Q, RationalSeq
from rieszkit.spaces import (
    affine,
    fin_dev,
    gamma,
    pair_form,
    row_block_ek,
    seq_form,
    tail_seq,
    token_form,
)
from rieszkit.elements import atom, element_findev, element_tail, le, scale, unit, zero
from rieszkit.sequences import (
    element_seq,
    eval_seq,
    eventual_pattern,
    fill,
    normalize,
    sub_element,
)
from rieszkit.convergence import (
    check_decreasing,
    decide_monotone_limit,
    decide_order_convergence,
    o1_dominating_obstruction,
    verify_certificate,
)

T = tail_seq()
F = fin_dev()


def unit_minus_march(space):
    return element_seq(
        space, static=unit(space), fills=[fill(_line_form(space), 1, 0, 1, 0, -1)]
    )


def _line_form(space):
    return token_form(1, 0) if space.kind.value == "fin_dev" else seq_form(1, 0)


def test_eval_exact():
    b = unit_minus_march(T)
    assert eval_seq(b, 1) == element_tail(T, [0], 1)
    assert eval_seq(b, 3) == element_tail(T, [0, 0, 0], 1)


def test_march_converges_in_tail_seq():
    cert = decide_monotone_limit(unit_minus_march(T))
    assert cert.converges
    ok, _ = verify_certificate(cert, unit_minus_march(T))
    assert ok


def test_march_diverges_in_fin_dev():
    """The same formal family fails over an uncountable index: a fresh point
    keeps the ambient value at every step."""
    b = unit_minus_march(F)
    cert = decide_monotone_limit(b)
    assert not cert.converges
    assert cert.minorant is not None
    star = cert.minorant.entries[0][0]
    assert star.family == "star"
    assert cert.minorant.entries[0][1] == Q(1, 2)
    ok, _ = verify_certificate(cert, b)
    assert ok


def test_zero_family_converges():
    cert = decide_monotone_limit(element_seq(T))
    assert cert.converges


def test_not_decreasing_reports_first_violation():
    b = element_seq(T, fills=[fill(seq_form(1, 0), 1, 0, 1, 0, 1)])
    with pytest.raises(NotDecreasingError) as err:
        decide_monotone_limit(b)
    assert err.value.step >= 1


def test_moving_bump_order_converges_fin_dev():
    x = element_seq(F, atoms=[(token_form(1, 0), RationalSeq.const(1))])
    cert = decide_order_convergence(x, zero(F))
    assert cert.converges
    assert cert.escaping
    ok, log = verify_certificate(cert, x, zero(F))
    assert ok, log
    # the escaping supports are decided by each form's slope, not probed
    assert "escaping supports leave every finite set (affine)" in log


def test_moving_bump_o1_obstruction():
    x = element_seq(F, atoms=[(token_form(1, 0), RationalSeq.const(1))])
    cert = o1_dominating_obstruction(x)
    assert not cert.converges
    ok, log = verify_certificate(cert, x)
    assert ok, log


def test_constant_sequence_converges_to_itself():
    x = element_tail(T, [2, 3], 1)
    seq = element_seq(T, static=x)
    cert = decide_order_convergence(seq, x)
    assert cert.converges
    cert2 = decide_order_convergence(seq, zero(T))
    assert not cert2.converges


def test_moving_bump_tail_seq_march_certificate():
    x = element_seq(T, atoms=[(seq_form(1, 0), RationalSeq.const(1))])
    cert = decide_order_convergence(x, zero(T))
    assert cert.converges
    assert not cert.escaping  # a same-index family suffices here
    assert cert.dominating is not None and cert.dominating.fills
    ok, _ = verify_certificate(cert, x, zero(T))
    assert ok


def test_telescoping_normalization():
    s = element_seq(
        F,
        static=element_findev(F, {gamma(1): 1}, 0),
        fills=[
            fill(token_form(1, 0), 1, 0, 2, 0, 1),
            fill(token_form(1, -1), 1, 0, 2, 0, -1),
        ],
    )
    ns = normalize(s)
    assert not ns.fills
    assert len(ns.atoms) == 1
    for n in range(1, 8):
        assert eval_seq(ns, n) == eval_seq(s, n) == element_findev(F, {gamma(n): 1}, 0)


def test_eventual_pattern_zero_iff_converging():
    b = unit_minus_march(T)
    assert eventual_pattern(b).is_zero()
    c = element_seq(T, static=unit(T))
    assert not eventual_pattern(c).is_zero()


def test_row_block_sequences():
    E = row_block_ek()
    x = element_seq(E, atoms=[(pair_form(1, 0, 0, 1), RationalSeq.const(1))])
    assert eval_seq(x, 3) == atom(E, (3, 1))
    cert = decide_order_convergence(x, zero(E))
    assert cert.converges
    ok, _ = verify_certificate(cert, x, zero(E))
    assert ok


def test_row_block_fills_rejected():
    E = row_block_ek()
    with pytest.raises(StencilError):
        fill(pair_form(1, 0, 1, 0), 1, 0, 1, 0, 1)


def test_harmonic_ambient_rejected():
    with pytest.raises(StencilError):
        element_seq(T, ambient=RationalSeq.harmonic(1))


def test_monotone_divergence_on_explicit_coordinate():
    b = element_seq(T, static=add_atoms())
    cert = decide_monotone_limit(b)
    assert not cert.converges
    assert cert.minorant is not None
    ok, _ = verify_certificate(cert, b)
    assert ok


def add_atoms():
    return scale(Q(3, 2), atom(T, 2))


def test_two_bumps_crossing_the_same_coordinates():
    """Distinct moving forms may pass through the same coordinate at
    different steps; the certificate must still verify."""
    x = element_seq(
        F,
        atoms=[
            (token_form(1, 0), RationalSeq.const(1)),
            (token_form(1, 1), RationalSeq.const(2)),
        ],
    )
    cert = decide_order_convergence(x, zero(F))
    assert cert.converges
    ok, log = verify_certificate(cert, x, zero(F))
    assert ok, log


def test_static_and_ambient_components_cancel():
    """The dominating family must envelope the evaluated deviations, not the
    raw components: here the static ambient and the ambient sequence cancel
    at every step."""
    static = element_findev(F, {gamma(1): 2}, 1)
    x = element_seq(F, static=static, ambient=RationalSeq.const(-1))
    limit = element_findev(F, {gamma(1): 1}, 0)
    cert = decide_order_convergence(x, limit)
    assert cert.converges
    ok, log = verify_certificate(cert, x, limit)
    assert ok, log


def test_affine_at_int_agrees_with_at(rng):
    for _ in range(200):
        a, b = (Q(rng.randint(-9, 9), rng.choice((1, 1, 2))) for _ in range(2))
        form = affine(a, b)
        for n in range(1, 51):
            v = a * n + b  # the rational value the form reads at n
            if v.denominator == 1:
                assert form.at_int(n) == v and type(form.at_int(n)) is int
            else:
                with pytest.raises(InvalidIndexError):
                    form.at_int(n)
    # the (m+1)/2 column form is integral at odd m only
    col = pair_form(1, 0, Q(1, 2), Q(1, 2)).col
    assert [col.at_int(m) for m in (1, 3, 5)] == [1, 2, 3]
    with pytest.raises(InvalidIndexError, match="not integral at n=4"):
        col.at_int(4)


def test_sub_element_subtracts_from_the_static_part_and_the_prelude(rng):
    """The reference is the sum with the negated element, step by step."""
    from conftest import ALL_SPACES, random_element
    from rieszkit.elements import add
    from rieszkit.errors import SpaceMismatchError

    for space in ALL_SPACES:
        for _ in range(10):
            x = random_element(rng, space)
            seq = element_seq(space, static=random_element(rng, space), n0=3,
                              prelude=[random_element(rng, space) for _ in range(2)])
            d = sub_element(seq, x)
            assert d.static == add(seq.static, scale(-1, x))
            assert d.prelude == tuple(add(p, scale(-1, x)) for p in seq.prelude)
            assert (d.atoms, d.fills, d.ambient, d.n0) == \
                (seq.atoms, seq.fills, seq.ambient, seq.n0)
            for n in range(1, 5):
                assert eval_seq(d, n) == add(eval_seq(seq, n), scale(-1, x))
    with pytest.raises(SpaceMismatchError):
        sub_element(element_seq(T), unit(F))


def test_a_fill_covers_what_its_steps_list_from_line_index_zero():
    """`normalize` re-indexes the fill 2k - 1 (k >= 1) as the line 2j + 1
    from j = 0, so the form's inverse must answer the line index 0 too:
    coordinate 1 is covered from the first step."""
    f, = normalize(element_seq(T, fills=[fill(seq_form(2, -1), 1, 0, 1, 0, 1)])).fills
    assert f.kmin == 0
    for n in range(1, 7):
        hits = {f.form.at(k) for k in f.ks_at(n)}
        assert [i for i in range(1, 16) if f.covers(i, n)] == sorted(hits)


# ---------------------------------------------------------------------------
# normalize returns a fill-free sequence as it is


def _normalized_by_rebuilding(seq):
    """What `normalize` built for a fill-free sequence before it returned
    one as it is: with no fill there is no group, no correction and no new
    atom, so the merge came down to rebuilding the same components through
    `element_seq`."""
    assert not seq.fills
    return element_seq(seq.space, seq.static, seq.atoms, (), seq.ambient, seq.n0, seq.prelude)


def _seeded_sequences(rng):
    """Fill-free and filled sequences from `element_seq`, `sub_element`,
    `partial_sum_seq` and the dominating search's `_seq_sum`: stationary
    and moving atoms with harmonic or steps coefficients, repeated
    forms (merged), forms that meet (hidden behind a prelude), preludes,
    fills, and the partial sums of every fixture and shipped spec."""
    from pathlib import Path

    from conftest import random_element, random_scalar
    from rieszkit import oracles
    from rieszkit.operators import partial_sum_seq
    from rieszkit.specfile import build_all, parse

    def coeff(kind):
        c = random_scalar(rng)
        return (RationalSeq.harmonic(c) if kind == "harmonic"
                else RationalSeq.steps([c, random_scalar(rng)], c / 2))

    made = []
    for space, form in [(T, seq_form), (F, token_form)]:
        for _ in range(12):
            # one coefficient kind a sequence: a repeated form adds its
            # coefficients, and a harmonic one adds only to a harmonic one
            kind = rng.choice(["harmonic", "steps"])
            atoms = [(form(rng.randint(0, 2), rng.randint(1, 4)), coeff(kind))
                     for _ in range(rng.randint(0, 3))]
            fills = ([fill(form(1, rng.randint(0, 2)), 1, 0, rng.randint(1, 3), rng.randint(0, 2),
                           random_scalar(rng))] if rng.random() < 0.3 else [])
            n0 = rng.randint(1, 3)
            seq = element_seq(space, static=random_element(rng, space), atoms=atoms, fills=fills,
                              ambient=RationalSeq.steps([random_scalar(rng)], random_scalar(rng)),
                              n0=n0, prelude=[random_element(rng, space) for _ in range(n0 - 1)])
            made += [seq, sub_element(seq, random_element(rng, space))]
            families = [fam for shape in oracles._SHAPES
                        if (fam := shape(seq, random_scalar(rng) or Q(1))) is not None]
            made += [oracles._seq_sum([a, b]) for a in families for b in families]
    root = Path(__file__).resolve().parents[1]
    for path in sorted([*(root / "fixtures").glob("*.rzk"), *(root / "tests" / "specs").glob("*.rzk")]):
        for op in build_all(parse(path.read_text(encoding="utf-8")))[1].values():
            if op.domain.row.sequence:
                made.append(partial_sum_seq(op))
    return made


def test_normalize_returns_a_fill_free_sequence_as_it_is(rng):
    """On every seeded sequence without fills, `normalize` gives the
    sequence itself, equal to what rebuilding it through `element_seq`
    gave; the seeds cover both kinds of sequence from each source."""
    kinds = set()
    for seq in _seeded_sequences(rng):
        kinds.add(bool(seq.fills))
        got = normalize(seq)
        if not seq.fills:
            assert got is seq
            assert seq == _normalized_by_rebuilding(seq)
            continue
        # a sequence with fills is still merged: one full-class fill a
        # coordinate line, the same value at every step
        lines = [(type(f.form), f.form.idx.p, f.form.idx.q % f.form.idx.p)
                 for f in got.fills if f.modulus == 1 and f.form.idx.d == 1]
        assert len(lines) == len(set(lines))
        assert all(eval_seq(got, n) == eval_seq(seq, n) for n in range(1, 9))
    assert kinds == {True, False}

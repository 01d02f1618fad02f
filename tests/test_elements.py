from __future__ import annotations

import fractions
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rieszkit.errors import InvalidIndexError, SpaceMismatchError
from rieszkit.scalars import Q, Q0, RationalSeq, qabs_le
from rieszkit import convergence, elements, oracles, sequences
from rieszkit.casebook import moving_indicator_operator, row_pair_difference_operator
from rieszkit.completion import pattern_from_pieces
from rieszkit.convergence import check_decreasing, decide_order_convergence, verify_certificate
from rieszkit.operators import partial_sum_seq
from rieszkit.oracles import majorant_floors
from rieszkit.sequences import element_seq, normalize, sub_element
from rieszkit.spaces import (
    Kind,
    Token,
    fin_dev,
    fin_dim,
    gamma,
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
    decompose,
    describe,
    element_fin,
    element_findev,
    element_rowblock,
    element_tail,
    holds,
    inf2,
    is_disjoint,
    le,
    lincomb,
    max_abs_coord,
    neg,
    piece_element,
    pos,
    recompose,
    render,
    row_unit,
    scale,
    sub,
    sup2,
    support,
    unit,
    zero,
)

from conftest import ALL_SPACES, fraction_calls, random_element, random_pattern, random_scalar

T = tail_seq()
F = fin_dev()
E = row_block_ek()
FAR = 10**6


def test_sup2_tail_seq_coordinatewise():
    x = element_tail(T, [1, -2], 0)
    y = element_tail(T, [0, 0], 0)
    assert sup2(x, y) == element_tail(T, [1, 0], 0)


def test_sup2_idempotent_on_random(rng):
    for space in ALL_SPACES:
        for _ in range(20):
            x = random_element(rng, space)
            assert sup2(x, x) == x


def test_sup2_findev_union():
    x = element_findev(F, {gamma(1): 1}, 0)
    y = element_findev(F, {gamma(2): 1}, 0)
    assert sup2(x, y) == element_findev(F, {gamma(1): 1, gamma(2): 1}, 0)


def test_pos_neg_abs_examples():
    x = element_tail(T, [1, -2], -1)
    assert pos(x) == element_tail(T, [1, 0], 0)
    assert pos(zero(T)) == zero(T)
    y = element_findev(F, {gamma(1): -3}, 2)
    assert abs_(y) == element_findev(F, {gamma(1): 3}, 2)


def test_disjointness():
    assert is_disjoint(atom(T, 1), atom(T, 2))
    x = element_tail(T, [1], 0)
    assert not is_disjoint(x, x)
    a = element_findev(F, {gamma(1): 1}, 0)
    b = element_findev(F, {gamma(2): 5}, 0)
    assert is_disjoint(a, b)


def test_coordinate_functional():
    x = element_tail(T, [1, -2], 5)
    assert coordinate(x, 2) == Q(-2)
    assert coordinate(x, 7) == Q(5)
    assert coordinate(atom(T, 3), 3) == 1
    assert coordinate(atom(T, 3), 4) == 0
    with pytest.raises(InvalidIndexError):
        coordinate(x, 0)


def test_space_mismatch_raises():
    with pytest.raises(SpaceMismatchError):
        sup2(unit(T), unit(F))


def test_row_block_basics():
    E = row_block_ek()
    a = atom(E, (2, 3))
    assert coordinate(a, (2, 3)) == 1
    assert coordinate(a, (2, 4)) == 0
    assert coordinate(a, (9, 9)) == 0
    u = row_unit(E, 2)
    assert coordinate(u, (2, 100)) == 1
    assert coordinate(u, (3, 1)) == 0
    assert le(a, u)


def test_canonicalization_idempotent(rng):
    for space in ALL_SPACES:
        for _ in range(30):
            x = random_element(rng, space)
            # rebuilding from the payload must not change anything
            assert sup2(x, x) == x
            assert add(x, zero(space)) == x


@given(
    st.lists(st.integers(-5, 5), max_size=5),
    st.integers(-3, 3),
    st.lists(st.integers(-5, 5), max_size=5),
    st.integers(-3, 3),
)
def test_lattice_laws_hypothesis(p1, t1, p2, t2):
    x = element_tail(T, [Q(v) for v in p1], Q(t1))
    y = element_tail(T, [Q(v) for v in p2], Q(t2))
    assert sup2(x, y) == sup2(y, x)
    assert inf2(x, y) == inf2(y, x)
    assert sub(pos(x), neg(x)) == x
    assert add(pos(x), neg(x)) == abs_(x)
    assert inf2(pos(x), neg(x)) == zero(T)
    assert sup2(x, inf2(x, y)) == x  # absorption
    assert le(inf2(x, y), x) and le(x, sup2(x, y))


def test_lattice_laws_all_kinds(rng):
    for space in ALL_SPACES:
        for _ in range(40):
            x = random_element(rng, space)
            y = random_element(rng, space)
            z = random_element(rng, space)
            assert sup2(x, y) == sup2(y, x)
            assert sup2(sup2(x, y), z) == sup2(x, sup2(y, z))
            assert inf2(inf2(x, y), z) == inf2(x, inf2(y, z))
            assert sup2(x, inf2(x, y)) == x
            assert inf2(x, sup2(x, y)) == x
            assert inf2(x, sup2(y, z)) == sup2(inf2(x, y), inf2(x, z))
            assert sub(pos(x), neg(x)) == x
            assert add(pos(x), neg(x)) == abs_(x)
            assert inf2(pos(x), neg(x)) == zero(space)


def test_scale_distributes(rng):
    for space in ALL_SPACES:
        for _ in range(10):
            x = random_element(rng, space)
            y = random_element(rng, space)
            c = Q(3, 2)
            assert scale(c, add(x, y)) == add(scale(c, x), scale(c, y))
            assert sup2(scale(c, x), scale(c, y)) == scale(c, sup2(x, y))


# ---------------------------------------------------------------------------
# the merge kernel against coordinate reads and against the lattice ops


def _probes(x, y) -> list:
    """Coordinates at which x and y take every value pair they have: both
    supports plus points past every prefix, row and stored token."""
    pts = support(x) + support(y)
    k = x.space.kind
    if k == Kind.FIN_DIM:
        return list(range(1, x.space.dim + 1))
    if k == Kind.TAIL_SEQ:
        return pts + [FAR]
    if k == Kind.FIN_DEV:
        return pts + [Token("star", FAR)]
    depth = max(len(x.rows), len(y.rows))
    return pts + [(n, FAR) for n in range(1, depth + 2)] + [(FAR, 1)]


def _lattice_pairs(x, y):
    """(x, y) plus pairs that are ordered and disjoint, so that both
    answers of le and is_disjoint occur."""
    return [(x, y), (x, sup2(x, y)), (inf2(x, y), y), (pos(x), neg(x)), (pos(x), neg(y))]


def test_lattice_ops_agree_with_each_other_and_with_coordinate_reads(rng):
    for space in ALL_SPACES:
        for _ in range(60):
            x, y = random_element(rng, space), random_element(rng, space)
            for a, b in _lattice_pairs(x, y):
                assert le(a, b) == (sup2(a, b) == b)
                assert is_disjoint(a, b) == inf2(abs_(a), abs_(b)).is_zero()
                assert abs_(a) == sup2(a, scale(-1, a))
                assert pos(a) == sup2(a, zero(space))
                assert a.is_zero() == (a == zero(space))
                idxs = _probes(a, b)
                pairs = [(coordinate(a, i), coordinate(b, i)) for i in idxs]
                assert le(a, b) == all(u <= v for u, v in pairs)
                assert is_disjoint(a, b) == all(u == 0 or v == 0 for u, v in pairs)
                assert max_abs_coord(a) == max(abs(u) for u, _ in pairs)
                for op, f in ((add, lambda u, v: u + v), (sub, lambda u, v: u - v),
                              (sup2, max), (inf2, min)):
                    out = op(a, b)
                    assert [coordinate(out, i) for i in idxs] == [f(u, v) for u, v in pairs]


def test_prefixes_of_unequal_length_with_different_tails():
    x = element_tail(T, [1, 2, 3], 5)
    y = element_tail(T, [4], 0)
    assert sup2(x, y) == element_tail(T, [4, 2, 3], 5)
    assert sup2(y, x) == sup2(x, y)
    assert inf2(x, y) == element_tail(T, [1], 0)
    assert add(x, y) == element_tail(T, [5, 2, 3], 5)
    assert sub(y, x) == element_tail(T, [3, -2, -3], -5)
    assert not le(x, y) and not le(y, x)
    assert le(y, sup2(x, y)) and le(inf2(x, y), y)
    assert not le(element_tail(T, [0, 0, -1], 0), element_tail(T, [], -1))
    # e1 against unit - e1: disjoint although each stores a nonzero tail slot
    assert is_disjoint(element_tail(T, [1], 0), element_tail(T, [0], 1))
    assert is_disjoint(element_tail(T, [0, 0, 3], 0), element_tail(T, [1, 2], 0))
    assert not is_disjoint(element_tail(T, [0, 0, 3], 0), element_tail(T, [1], 1))


def test_ek_rows_whose_tails_differ_from_the_global_tail():
    x = element_rowblock(E, [([1], 2), ([], 0), ([0, 3], 0)], 0)
    y = element_rowblock(E, [([5, 0, 0, 1], 0)], 1)
    assert sup2(x, y) == element_rowblock(E, [([5], 2), ([], 1), ([1, 3], 1)], 1)
    assert inf2(x, y) == element_rowblock(E, [([1, 0, 0, 1], 0), ([], 0), ([0, 1], 0)], 0)
    assert not le(x, y) and not le(y, x)
    assert le(row_unit(E, 2), unit(E)) and not le(unit(E), row_unit(E, 2))
    assert is_disjoint(row_unit(E, 1), row_unit(E, 2))
    assert is_disjoint(row_unit(E, 1), sub(unit(E), row_unit(E, 1)))
    assert not is_disjoint(row_unit(E, 1), atom(E, (1, 5)))
    assert is_disjoint(row_unit(E, 1), atom(E, (2, 5)))
    # only the row tails meet
    assert not is_disjoint(element_rowblock(E, [([0], 1)], 0), element_rowblock(E, [([1, 0], 2)], 0))


def test_ck_entries_against_a_nonzero_ambient():
    g1, g2, s1 = gamma(1), gamma(2), Token("star", 1)
    x = element_findev(F, {g1: 1, g2: 0}, 2)
    y = element_findev(F, {g2: 3, s1: -1}, 0)
    assert sup2(x, y) == element_findev(F, {g1: 1, g2: 3}, 2)
    assert inf2(x, y) == element_findev(F, {s1: -1}, 0)
    assert add(x, y) == element_findev(F, {g1: 1, g2: 3, s1: 1}, 2)
    assert abs_(element_findev(F, {g1: 2}, -2)) == element_findev(F, {}, 2)
    assert not le(x, y) and not le(y, x) and le(inf2(x, y), x)
    assert le(x, element_findev(F, {g1: 1, s1: 2}, 2))
    assert is_disjoint(element_findev(F, {g1: 0}, 1), element_findev(F, {g1: 4}, 0))
    assert not is_disjoint(element_findev(F, {g1: 0}, 1), element_findev(F, {g2: 4}, 0))
    assert [coordinate(x, t) for t in (g1, g2, s1, gamma(9))] == [1, 0, 2, 2]


# ---------------------------------------------------------------------------
# the ck payload (stars, ambient, g-line) against a dict model over tokens


class _CkModel:
    """A ck value as stored token values over a background: g(k) reads the
    residue of k where it is not stored, a star the ambient."""

    def __init__(self, values: dict, ambient, residues: tuple):
        self.values, self.ambient, self.residues = values, Q(ambient), residues

    def at(self, t: Token):
        if t in self.values:
            return self.values[t]
        return self.residues[t.k % len(self.residues)] if t.family == "g" else self.ambient

    def element(self):
        """The engine element: a base element plus one progression piece
        per residue class, each adding the residue's offset from the
        ambient, which the stored g values have taken off."""
        m, amb = len(self.residues), self.ambient
        offset = [v - amb for v in self.residues]
        base = element_findev(F, {t: v - offset[t.k % m] if t.family == "g" else v
                                  for t, v in self.values.items()}, amb)
        pieces = [(m, r or m, d) for r, d in enumerate(offset) if d]
        return pattern_from_pieces(F, base, pieces)

    def points(self, other) -> list:
        """Tokens at which two models take every value pair they have: the
        stored tokens, one lcm of the residues past the last stored g, and a
        fresh star."""
        toks = {*self.values, *other.values}
        top = max([t.k for t in toks if t.family == "g"], default=0)
        m = lcm(len(self.residues), len(other.residues))
        stars = max([t.k for t in toks if t.family == "star"], default=0)
        return sorted(toks, key=lambda t: (t.k, t.family)) + [
            gamma(k) for k in range(top + 1, top + m + 1)] + [Token("star", stars + 1)]


def _random_ck_model(rng) -> _CkModel:
    """Interleaved g and star supports, g-line residues of period 1, 2 or
    3 over the ambient, and now and then a lone far g(k)."""
    values = {gamma(k): random_scalar(rng) for k in rng.sample(range(1, 7), rng.randint(0, 4))}
    values.update({Token("star", k): random_scalar(rng)
                   for k in rng.sample(range(1, 7), rng.randint(0, 3))})
    if rng.random() < 0.2:
        values[gamma(rng.randint(300, 400))] = random_scalar(rng)
    amb = random_scalar(rng)
    m = rng.choice((1, 1, 2, 3))
    residues = (amb,) if m == 1 else tuple(rng.choice([amb, random_scalar(rng)]) for _ in range(m))
    return _CkModel(values, amb, residues)


def _is_canonical_ck(x) -> bool:
    stars, amb, (prefix, res) = x.data
    m = len(res)
    shortest = all(res != res[:d] * (m // d) for d in range(1, m) if m % d == 0)
    trimmed = not prefix or prefix[-1] != res[len(prefix) % m]
    sorted_stars = [t.k for t, _ in stars] == sorted({t.k for t, _ in stars})
    return (shortest and trimmed and sorted_stars and all(t.family == "star" for t, _ in stars)
            and all(v != amb for _, v in stars))


CK_BINARY = [(add, lambda u, v: u + v), (sub, lambda u, v: u - v), (sup2, max), (inf2, min)]
CK_UNARY = [(abs_, abs), (pos, lambda u: max(u, 0)), (neg, lambda u: max(-u, 0)),
            (lambda x: scale(Q(-3, 2), x), lambda u: Q(-3, 2) * u)]


def test_ck_lattice_ops_match_a_token_model(rng):
    for _ in range(150):
        mx, my = _random_ck_model(rng), _random_ck_model(rng)
        x, y = mx.element(), my.element()
        pts = mx.points(my)
        pairs = [(mx.at(t), my.at(t)) for t in pts]
        assert [coordinate(x, t) for t in pts] == [u for u, _ in pairs]
        for op, f in CK_BINARY:
            out = op(x, y)
            assert _is_canonical_ck(out), render(out)
            assert [coordinate(out, t) for t in pts] == [f(u, v) for u, v in pairs], op
        for op, f in CK_UNARY:
            out = op(x)
            assert _is_canonical_ck(out), render(out)
            assert [coordinate(out, t) for t in pts] == [f(u) for u, _ in pairs]
        assert le(x, y) == all(u <= v for u, v in pairs)
        assert le(x, sup2(x, y)) and le(inf2(x, y), y)
        assert holds(qabs_le, x, y) == all(abs(u) <= v for u, v in pairs)
        assert is_disjoint(x, y) == all(u == 0 or v == 0 for u, v in pairs)
        assert is_disjoint(pos(x), neg(x))
        assert max_abs_coord(x) == max(abs(u) for u, _ in pairs)


def _lattice_results(x, y) -> list:
    """x, y and what each op of the token-model test makes of them."""
    return [x, y, *(op(x, y) for op, _ in CK_BINARY), *(op(x) for op, _ in CK_UNARY)]


def test_every_zero_a_lattice_op_stores_is_q0(rng):
    """Zero is one object: every value equal to 0 in the payload of an
    operand or result of the token-model ops is Q0 itself, also where a sum
    or a difference cancels, on ck models and on l0inf and grid patterns."""
    cases = []
    for _ in range(150):
        mx, my = _random_ck_model(rng), _random_ck_model(rng)
        # the model builds equal values as distinct objects: x - x cancels
        cases += [(mx.element(), my.element()), (mx.element(), mx.element())]
    for space in (T, row_block_grid()):
        for _ in range(150):
            x, y = random_pattern(rng, space)[0], random_pattern(rng, space)[0]
            cases += [(x, y), (x, scale(-1, x))]
    for x, y in cases:
        for out in _lattice_results(x, y):
            assert all(v is Q0 for v in _payload(out) if not v), render(out)


def test_ck_render_merges_g_and_star_entries_by_index():
    s1, s3 = Token("star", 1), Token("star", 3)
    x = element_findev(F, {s3: 4, gamma(2): 3, s1: 2, gamma(1): 1, gamma(5): 0}, 0)
    assert render(x) == "{g(1):1,star(1):2,g(2):3,star(3):4|0}"
    assert x.entries == ((gamma(1), 1), (s1, 2), (gamma(2), 3), (s3, 4))
    assert support(x) == [gamma(1), s1, gamma(2), s3]
    assert decompose(x) == [(("atom", t), v) for t, v in x.entries]
    # a g-line of period 2 follows the ambient; a g entry equal to its
    # residue is not an entry
    y = add(x, piece_element(F, (2, 2, 1)))
    assert render(y) == "{g(1):1,star(1):2,g(2):4,star(3):4|0|1,0}"
    assert describe(y) == {
        "kind": "fin_dev_pattern", "extra": [["star(1)", "2"], ["star(3)", "4"]],
        "line": {"prefix": ["1", "4"], "modulus": 2, "residues": ["1", "0"]}, "ambient": "0"}
    assert render(sub(y, element_findev(F, {gamma(2): 3}, 0))) == \
        "{g(1):1,star(1):2,star(3):4|0|1,0}"


def test_a_lone_far_g_token_is_a_dense_prefix():
    k = 4000
    x = element_findev(F, {gamma(k): 5}, 1)
    stars, amb, (prefix, res) = x.data
    assert (stars, amb, res, len(prefix)) == ((), 1, (1,), k)
    assert all(v is amb for v in prefix[:-1])
    assert render(x) == "{g(4000):5|1}" and x.entries == ((gamma(k), 5),)
    assert coordinate(x, gamma(k)) == 5 and coordinate(x, gamma(k + 1)) == 1
    assert sup2(x, unit(F)) == x and inf2(x, unit(F)) == unit(F)


def test_le_and_is_disjoint_raise_across_spaces():
    pairs = [
        (unit(T), unit(F)),
        (atom(T, 1), atom(F, gamma(1))),
        (unit(fin_dim(3)), unit(fin_dim(4))),
        (unit(E), unit(row_block_grid())),
    ]
    for x, y in pairs:
        for op in (le, partial(holds, qabs_le), is_disjoint, add, sup2, inf2):
            with pytest.raises(SpaceMismatchError):
                op(x, y)


def _shared_background_rows(rng, space):
    """A row block built by `recompose`: rows 2, 3, 5 and 6 are the one
    shared background row object, and on ek row 5 gets a tail of its own
    through a row unit."""
    parts = [(("unit",), random_scalar(rng))]
    parts += [(("atom", (n, rng.randint(1, 3))), random_scalar(rng)) for n in (1, 4, 7)]
    if space.row_units:
        parts.append((("row_unit", 5), random_scalar(rng)))
    return recompose(space, parts)


def test_abs_le_is_le_of_abs(rng):
    """`holds` with the `qabs_le` kernel decides |x| <= y as le(abs_(x), y)."""
    for space in ALL_SPACES:
        for _ in range(60):
            x, y = random_element(rng, space), random_element(rng, space)
            pairs = _lattice_pairs(x, y)
            if space.kind == Kind.ROW_BLOCK:
                u, v = _shared_background_rows(rng, space), _shared_background_rows(rng, space)
                pairs += [(u, v), (u, x), (x, u), (u, sup2(abs_(u), v))]
            for a, b in pairs:
                for c in (b, abs_(a), sup2(abs_(a), b), inf2(abs_(a), b)):
                    assert holds(qabs_le, a, c) == le(abs_(a), c), (space.label, render(a), render(c))


# ---------------------------------------------------------------------------
# cost and -O guards


def _wide(space, n: int, shift: int):
    """An element storing about n coordinates, half of them shared with
    the element of shift n // 2."""
    vals = [Q((7 * i + shift) % 5 - 2, 1 + i % 3) for i in range(n)]
    if space.kind == Kind.FIN_DEV:
        # star tokens are off the line: ck patterns keep them as extras
        return element_findev(
            space, {Token("star", i + shift): v for i, v in enumerate(vals, 1)}, shift % 3)
    if space.kind == Kind.TAIL_SEQ:
        return element_tail(space, [Q(0)] * shift + vals, shift % 3)
    width = 50
    rows = [(vals[i:i + width], Q(i % 4)) for i in range(0, n, width)]
    return element_rowblock(space, [([], 1)] * (shift // width) + rows, shift % 3)


def test_lattice_ops_are_linear(monkeypatch):
    n = 2000
    counts = {"eq": 0, "coordinate": 0}
    token_eq, read = Token.__eq__, elements.coordinate

    def counting_eq(self, other):
        counts["eq"] += 1
        return token_eq(self, other)

    def counting_read(x, idx):
        counts["coordinate"] += 1
        return read(x, idx)

    for space in (F, T, E):
        x, y = _wide(space, n, 0), _wide(space, n, n // 2)
        # y's and a rebuilt x's token objects: reads compare equal tokens
        up, p, m = sup2(y, x), pos(x), neg(_wide(space, n, 0))
        monkeypatch.setattr(Token, "__eq__", counting_eq)
        monkeypatch.setattr(elements, "coordinate", counting_read)
        for name, run in [
            ("sup2", lambda: sup2(x, y)),
            ("add", lambda: add(x, y)),
            ("le", lambda: le(x, up)),
            ("is_disjoint", lambda: is_disjoint(p, m)),
        ]:
            counts.update(eq=0, coordinate=0)
            run()
            assert counts["eq"] + counts["coordinate"] <= 4 * n, (space.label, name, counts)
        monkeypatch.undo()
        # le and is_disjoint above walked every pair: both answers are True
        assert le(x, up) and is_disjoint(p, m)


def test_ck_walks_build_and_hash_no_tokens(monkeypatch):
    """sup2, add, le and abs_ on 2000-wide g supports walk the g-line as a
    tail_seq line: no Token is built or hashed, and the payload kernel runs
    once per prefix entry, residue slot and the ambient."""
    n = 2000
    x = element_findev(F, {gamma(i): Q(i % 7 - 3, 1 + i % 2) for i in range(1, n + 1)}, 1)
    y = element_findev(F, {gamma(i + n // 2): Q(i % 5 - 2) for i in range(1, n + 1)}, 2)
    y = add(y, piece_element(F, (3, 1, 1)))  # a g-line residue of period 3
    up = sup2(x, y)
    tokens = Counter()

    def counting(name):
        method = getattr(Token, name)

        def counted(self, *args):
            tokens[name] += 1
            return method(self, *args)
        return counted

    def width(*xs):
        return max(len(a.data[2][0]) for a in xs) + lcm(*(len(a.data[2][1]) for a in xs)) + 1

    cases = [("sup2", "qmax", lambda: sup2(x, y), width(x, y)),
             ("add", "qadd", lambda: add(x, y), width(x, y)),
             ("le", "qle", lambda: le(x, up), width(x, up)),
             ("abs_", "qabs", lambda: abs_(y), width(y))]
    for name, kernel, run, want in cases:
        calls = [0]
        inner = getattr(elements, kernel)

        def kernel_call(*args, inner=inner, calls=calls):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(elements, kernel, kernel_call)
        for method in ("__hash__", "__init__"):
            monkeypatch.setattr(Token, method, counting(method))
        tokens.clear()
        run()
        monkeypatch.undo()
        assert not tokens, (name, dict(tokens))
        assert calls[0] == want, (name, calls[0], want)
    assert le(x, up) and width(x, y) > 1.5 * n


def _sparse(space, n: int):
    """An element storing about n coordinates, every tail, row tail and
    ambient 0: the sparse data on which sums and scalings skip identities."""
    vals = [Q((7 * i) % 5 - 2, 1 + i % 3) for i in range(n)]
    if space.kind == Kind.FIN_DIM:
        return element_fin(space, vals)
    if space.kind == Kind.FIN_DEV:
        return element_findev(space, {Token("star", i): v for i, v in enumerate(vals, 1)}, 0)
    if space.kind == Kind.TAIL_SEQ:
        return element_tail(space, vals, 0)
    return element_rowblock(space, [(vals[i:i + 50], 0) for i in range(0, n, 50)], 0)


def _payload(x) -> list:
    """Every value stored in x's payload, tails, row tails and ambient
    included."""
    if x.space.kind == Kind.FIN_DEV:
        stars, amb, (prefix, res) = x.data
        return [v for _, v in stars] + [amb, *prefix, *res]
    if x.space.kind == Kind.ROW_BLOCK:
        rows, back = x.data
        return [v for p, res in rows + back for v in (*p, *res)]
    return [*x.data[0], *x.data[1]]  # a line: fin_dim and tail_seq


def test_identities_build_no_rationals():
    n = 2000
    one = Q(1)
    for space in (fin_dim(n), T, F, E, row_block_grid()):
        z = zero(space)
        x = _sparse(space, n)
        p = pos(x)
        atoms = [ref for ref, _ in decompose(x)]
        assert len(atoms) > n // 2
        cases = [
            ("add", lambda: add(x, z)),
            ("sub", lambda: sub(x, z)),
            ("scale 1", lambda: scale(1, x)),
            ("scale 0", lambda: scale(0, x)),
            ("lincomb", lambda: lincomb(space, [(1, x)])),
            ("recompose", lambda: recompose(space, [(ref, one) for ref in atoms])),
            # a positive part keeps or zeroes each value; the modulus and the
            # negative part of a positive element are it and 0
            ("pos", lambda: pos(x)),
            ("abs_", lambda: abs_(p)),
            ("neg", lambda: neg(p)),
        ]
        if space in (T, F, E):
            # nonzero tails: the skip depends on the operand 0 or 1, not the tail
            w = _wide(space, n, 1)
            cases += [("add wide", lambda: add(w, z)), ("sub wide", lambda: sub(w, z)),
                      ("scale 1 wide", lambda: scale(1, w)), ("pos wide", lambda: pos(w))]
        with fraction_calls() as built:
            for name, run in cases:
                built[0] = 0
                run()
                assert built[0] <= 8, (space.label, name, built[0])
        assert add(x, z) == sub(x, z) == scale(1, x) == lincomb(space, [(1, x)]) == x
        assert recompose(space, [(ref, one) for ref in atoms]) == recompose(
            space, [(ref, 1) for ref in atoms])
        for y in (scale(0, x), sub(x, x), scale(-1, x)):
            assert all(type(v) is Q for v in _payload(y)), space.label
        assert scale(0, x) == sub(x, x) == z and add(x, scale(-1, x)) == z
        assert abs_(p) == p and neg(p) == z and sub(p, neg(x)) == x
        for y in (pos(x), neg(x), abs_(x)):
            assert all(type(v) is Q for v in _payload(y)), space.label


def test_payload_trims_make_no_fraction_eq_calls():
    """A canonical line trims and folds its payload values with `qeq`, so
    results on 40 stored rows of 50 make no `Fraction.__eq__` call (one per
    stored row when the trim used ==)."""
    for space in (E, row_block_grid()):
        x = _sparse(space, 2000)
        for name, run in [("pos", lambda: pos(x)), ("abs_", lambda: abs_(x)),
                          ("lincomb", lambda: lincomb(space, [(1, x), (2, x)]))]:
            with fraction_calls(("__eq__",)) as eqs:
                run()
            assert eqs[0] == 0, (space.label, name, eqs[0])


# the zero payload of each shape: line, fin_dev, row_block
_ZERO_PAYLOADS = (((), (Q0,)), ((), Q0, ((), (Q0,))), ((), (((), (Q0,)),)))
_AN_ATOM = {Kind.FIN_DIM: 2, Kind.TAIL_SEQ: 3, Kind.FIN_DEV: gamma(2), Kind.ROW_BLOCK: (2, 1)}


def test_is_zero_reads_the_payload_without_fraction_eq(rng):
    """`is_zero` agrees with membership among the zero payloads on zero,
    the unit, half the unit, an atom, seeded elements and completion
    patterns of every space, and on a zero stored as a `Fraction` other
    than `Q0`; it compares no `Fraction` (membership made 6 to 8 `__eq__`
    calls per three elements)."""
    for space in ALL_SPACES:
        z = zero(space)
        line = ((), (Q(0),))
        other_zero = elements.Element(space, {Kind.FIN_DEV: ((), Q(0), line),
                                              Kind.ROW_BLOCK: ((), (line,))}.get(space.kind, line))
        xs = [z, other_zero, unit(space), scale(Q(1, 2), unit(space)),
              atom(space, _AN_ATOM[space.kind]),
              *(random_element(rng, space) for _ in range(20)),
              *(random_pattern(rng, space)[0] for _ in range(20))]
        with fraction_calls(("__eq__",)) as eqs:
            got = [x.is_zero() for x in xs]
        assert eqs[0] == 0, space.label
        assert got == [x.data in _ZERO_PAYLOADS for x in xs], space.label
        assert got[:5] == [True, True, False, False, False], space.label


SCALE_FACTORS = [Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2)]


def test_scale_agrees_with_lincomb_on_every_kind(rng):
    """scale decides its factor once (1, 0, -1 or any other): each case
    gives the canonical c * x, and c = 1 gives x itself."""
    for space in ALL_SPACES:
        for _ in range(10):
            x = random_element(rng, space)
            for c in SCALE_FACTORS:
                got = scale(c, x)
                assert got == lincomb(space, [(c, x)]), (space.label, c)
                assert all(type(v) is Q for v in _payload(got)), (space.label, c)
            assert scale(1, x) is x and scale(Q(1), x) is x, space.label


def test_a_zero_operand_gives_the_other_operand_back(rng):
    """add(0, y) is y, add(x, 0) and sub(x, 0) are x, also on payloads
    outside the base space; the space check comes first."""
    for space in ALL_SPACES:
        z = zero(space)
        for _ in range(10):
            x, _, _ = random_pattern(rng, space)
            assert add(z, x) is x and add(x, z) is x and sub(x, z) is x, space.label
            assert sub(z, x) == scale(-1, x), space.label
        other = zero(F if space != F else T)
        for op in (add, sub):
            with pytest.raises(SpaceMismatchError):
                op(z, other)
            with pytest.raises(SpaceMismatchError):
                op(other, z)


def test_order_convergence_subtracts_only_what_differs(monkeypatch):
    """x - S on x's own static part S is 0 at every coordinate without
    arithmetic: deciding a sequence whose static part stores 1000 entries
    makes a bounded number of Fraction subtractions, not one per entry."""
    S = element_tail(T, [Q(i % 7 + 1, 1 + i % 3) for i in range(1000)], 0)
    x = element_seq(T, static=S, atoms=[(seq_form(1, 0), RationalSeq.harmonic(1))])
    subs = 0

    def counting(name):
        subtract = getattr(fractions.Fraction, name)

        def counted(a, b):
            nonlocal subs
            subs += 1
            return subtract(a, b)
        return counted

    for name in ("__sub__", "__rsub__"):
        monkeypatch.setattr(fractions.Fraction, name, counting(name))
    cert = decide_order_convergence(x, S, 8)
    monkeypatch.undo()
    assert cert.verdict == convergence.CONVERGES
    assert subs <= 64, subs


def test_lattice_walks_make_no_fraction_comparisons(monkeypatch):
    """Every per-coordinate decision of the lattice maps and folds reads
    integer pairs through the scalars kernel: Fraction's comparisons test
    the other operand against numbers.Rational, several times the cost of
    the comparison."""
    calls = Counter()

    def counting(name):
        compare = getattr(fractions.Fraction, name)

        def counted(a, b):
            calls[name] += 1
            return compare(a, b)
        return counted

    n = 200
    for space in (fin_dim(n), T, F, E, row_block_grid()):
        x = _sparse(space, n)
        y = sub(unit(space), scale(Q(1, 2), x))
        up, p, m = sup2(x, y), pos(x), neg(x)
        cases = [
            ("sup2", lambda: sup2(x, y)),
            ("inf2", lambda: inf2(x, y)),
            ("pos", lambda: pos(y)),
            ("neg", lambda: neg(y)),
            ("abs_", lambda: abs_(y)),
            ("le", lambda: le(x, up)),
            ("holds qabs_le", lambda: holds(qabs_le, x, abs_(x))),
            ("is_disjoint", lambda: is_disjoint(p, m)),
            ("max_abs_coord", lambda: max_abs_coord(y)),
            ("decompose", lambda: decompose(y)),
        ]
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(fractions.Fraction, name, counting(name))
        for name, run in cases:
            calls.clear()
            run()
            assert not calls, (space.label, name, dict(calls))
        monkeypatch.undo()
        # the folds above walked every pair
        assert le(x, up) and holds(qabs_le, x, abs_(x)) and is_disjoint(p, m)


def _probe_cost_cases():
    """(sequence, its limit, a certificate that it order converges) on l0inf
    (a moving atom, dominated through a fill) and on ck (the moving
    indicator's partial sums, an escaping support)."""
    bump = element_seq(T, atoms=[(seq_form(1, 0), RationalSeq.const(1))])
    sums = partial_sum_seq(moving_indicator_operator())
    return [(x, zero(x.space), decide_order_convergence(x, zero(x.space)))
            for x in (bump, sums)]


def test_probe_loops_evaluate_each_step_once(monkeypatch):
    """check_decreasing reads the moving part of a step of b at most once
    and builds no step; verify_certificate builds each step of d and of b at
    most once.  The steps either reads whole are the walks' whole steps,
    the same at every probe: the other steps are read by difference (their
    count is held linear in the window by the count guard in
    test_probe_loops)."""
    moved, built = Counter(), Counter()
    moving, symbolic = sequences.moving_parts, sequences._eval_symbolic

    def counting_moving(seq, n):
        moved[seq, n] += 1
        return moving(seq, n)

    def counting_built(seq, n):
        built[seq, n] += 1
        return symbolic(seq, n)

    monkeypatch.setattr(sequences, "moving_parts", counting_moving)
    monkeypatch.setattr(sequences, "_eval_symbolic", counting_built)
    for x, limit, cert in _probe_cost_cases():
        b = cert.dominating
        whole = {"check_decreasing": set(), "verify_certificate": set()}
        for probe in (8, 16, 32):
            moved.clear()
            built.clear()
            check_decreasing(b, probe)
            assert set(moved.values()) == {1} and not built
            whole["check_decreasing"].add(frozenset(moved))
            moved.clear()
            ok, _ = verify_certificate(cert, x, limit, probe)
            assert ok
            assert set(built.values()) == {1}
            whole["verify_certificate"].add(frozenset(built))
        assert all(len(steps) == 1 for steps in whole.values()), (x.space.label, whole)


def test_verify_certificate_builds_each_step_of_d_once(monkeypatch):
    """The order-bound and domination walks read d whole only at their
    first steps, 1 and cert.n0, which lies past every other whole step of
    d: each step of d read whole is one `recompose` of d's step parts."""
    parts_of_d, steps, calls = [], [], 0
    symbolic, build = sequences._eval_symbolic, sequences.recompose
    bump, limit, cert = _probe_cost_cases()[0]
    d = normalize(sub_element(bump, limit))

    def recording(seq, n):
        parts = symbolic(seq, n)
        if seq == d:
            steps.append(n)
            parts_of_d.append(parts)
        return parts

    def counting(space, parts):
        nonlocal calls
        calls += any(parts is p for p in parts_of_d)
        return build(space, parts)

    assert cert.escaping == ()
    monkeypatch.setattr(sequences, "_eval_symbolic", recording)
    monkeypatch.setattr(sequences, "recompose", counting)
    ok, log = verify_certificate(cert, bump, limit, 8)
    assert ok and log[0] == "order bound holds at n=1..10"
    # step 1 starts the order-bound walk, step cert.n0 the domination walk
    assert steps == [1, cert.n0] and calls == len(parts_of_d) == 2


@pytest.mark.parametrize("space", [T, F], ids=lambda s: s.label)
def test_check_decreasing_cost_does_not_grow_with_the_static_part(monkeypatch, space):
    """A step compares b_{n+1} - b_n, where the static part cancels: a
    static part of 10 or of 1000 entries takes the same `qle` calls."""
    calls = 0
    decide = elements.qle

    def counting(a, b):
        nonlocal calls
        calls += 1
        return decide(a, b)

    monkeypatch.setattr(elements, "qle", counting)
    index = (lambda k: k) if space == T else gamma
    line = seq_form(1, 0) if space == T else token_form(1, 0)
    counts = []
    for size in (10, 1000):
        static = recompose(space, [(("atom", index(k)), Q(k % 7 + 1)) for k in range(1, size + 1)])
        b = element_seq(space, static=static, fills=[sequences.fill(line, 2, 1, 1, 1, -1)],
                        atoms=[(seq_form(0, 3) if space == T else token_form(0, 3),
                                RationalSeq.steps([2, 1], 0))],
                        ambient=RationalSeq.steps([3, 2], 1))
        calls = 0
        assert check_decreasing(b, 8) > 8
        counts.append(calls)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("space, line", [(T, seq_form), (F, token_form)], ids=["l0inf", "ck"])
def test_the_monotone_decider_builds_only_what_it_compares(monkeypatch, space, line):
    """On the dominating search's candidates for a moving indicator,
    `normalize` keeps the static part as it is when no lower boundary
    corrects it, and `decreasing_failure` decides b_{n+1} - b_n <= 0 from
    the difference's own values, building no zero element."""
    zeros = 0
    build = sequences.zero

    def counting(space):
        nonlocal zeros
        zeros += 1
        return build(space)

    x = element_seq(space, atoms=[(line(1, 0), RationalSeq.const(1))])
    cands = list(oracles._candidate_families(x, 6))
    monkeypatch.setattr(sequences, "zero", counting)
    for c in cands:
        b = normalize(c)
        assert b.static is c.static
        sequences.decreasing_failure(b, sequences.structural_threshold(b) + 8)
    assert zeros == 0 and len(cands) > 20


def test_verify_certificate_evaluates_each_step_of_b_once(monkeypatch):
    """The decreasing check and the domination walk evaluate a step of b at
    most once, and only b's whole steps, the same at every probe (the count
    guard in test_probe_loops holds the other steps linear in the
    window)."""
    evals = Counter()
    symbolic = sequences._eval_symbolic

    def counting(seq, n):
        evals[seq, n] += 1
        return symbolic(seq, n)

    monkeypatch.setattr(sequences, "_eval_symbolic", counting)
    for x, limit, cert in _probe_cost_cases():
        b = cert.dominating
        whole = set()
        for probe in (8, 16, 32):
            evals.clear()
            ok, _ = verify_certificate(cert, x, limit, probe)
            assert ok
            b_evals = {n: c for (seq, n), c in evals.items() if seq == b}
            assert b_evals and set(b_evals.values()) == {1}
            whole.add(frozenset(b_evals))
        assert len(whole) == 1, whole


def test_a_sequence_decomposes_its_static_part_once(monkeypatch):
    calls = 0

    def counting(x):
        nonlocal calls
        calls += 1
        return decompose(x)

    monkeypatch.setattr(sequences, "decompose", counting)
    x = element_seq(T, static=element_tail(T, [1, 2], 3),
                    atoms=[(seq_form(1, 0), RationalSeq.const(1))])
    steps = [sequences.eval_seq(x, n) for n in range(1, 30)]
    assert steps[4] == element_tail(T, [1, 2, 3, 3, 4], 3)
    assert sequences.eventual_pattern(x) == element_tail(T, [1, 2], 3)
    assert calls == 1


def test_row_block_walk_skips_repeated_row_pairs(monkeypatch):
    """Rows 2..59 of each operand are its background row object, so a full
    walk is one walk of the row line plus three row walks: rows 1 and 60
    and the background pair, which the residue pair repeats."""
    x = recompose(E, [(("atom", (1, 1)), 1), (("atom", (60, 2)), -2)])
    y = recompose(E, [(("unit",), 3), (("atom", (60, 1)), 1)])
    assert all(row is x.data[0][1] for row in x.data[0][1:59])
    calls = 0
    line = elements._line

    def counting(la, lb):
        nonlocal calls
        calls += 1
        return line(la, lb)

    monkeypatch.setattr(elements, "_line", counting)
    w = recompose(E, [(("atom", (1, 2)), 5)])
    for walk, a, b in [(le, x, y), (partial(holds, qabs_le), x, y), (is_disjoint, x, w)]:
        calls = 0
        assert walk(a, b)
        assert calls == 1 + 3
    calls = 0
    assert max_abs_coord(x) == 2 and calls == 1 + 3


def _random_parts(rng, space) -> list:
    """Generator parts with sparse indices far out, row units on ek, the
    unit, and coefficients that cancel."""
    def index():
        near = rng.randint(1, 5)
        if space.kind == Kind.FIN_DIM:
            return rng.randint(1, space.dim)
        if space.kind == Kind.TAIL_SEQ:
            return rng.choice([near, 4000])
        if space.kind == Kind.FIN_DEV:
            return rng.choice([gamma(near), gamma(4000), Token("star", near)])
        return rng.choice([(near, rng.randint(1, 5)), (near, 300), (300, near), (300, 300)])

    refs = [("atom", index()) for _ in range(rng.randint(0, 6))]
    if space.row_units:
        refs += [("row_unit", rng.choice([rng.randint(1, 5), 300]))
                 for _ in range(rng.randint(0, 3))]
    parts = []
    for ref in refs:
        c = random_scalar(rng)
        parts.append((ref, c))
        if rng.random() < 0.3:
            parts.append((ref, -c))
    if rng.random() < 0.7:
        parts.append((("unit",), random_scalar(rng)))
    rng.shuffle(parts)
    return parts


def _sums(parts):
    """(unit, atom, row unit) coefficient sums of `parts`."""
    u, atoms, rows = Q(0), {}, {}
    for ref, c in parts:
        if ref[0] == "atom":
            atoms[ref[1]] = atoms.get(ref[1], 0) + c
        elif ref[0] == "row_unit":
            rows[ref[1]] = rows.get(ref[1], 0) + c
        else:
            u += c
    return u, atoms, rows


def _dense_recompose(space, parts):
    """The sum of `parts` with one value for every index up to the largest
    stored one, through the public constructors: the reference for
    `recompose`."""
    u, atoms, rows = _sums(parts)
    if space.kind == Kind.FIN_DEV:
        width = max([t.k for t in atoms if t.family == "g"], default=0)
        dense = {gamma(k): u for k in range(1, width + 1)}
        return element_findev(space, {**dense, **{t: u + c for t, c in atoms.items()}}, u)
    if space.kind == Kind.ROW_BLOCK:
        out = []
        for n in range(1, max([n for n, _ in atoms] + list(rows), default=0) + 1):
            rt = u + rows.get(n, 0)
            width = max([m for k, m in atoms if k == n], default=0)
            out.append(([rt + atoms.get((n, m), 0) for m in range(1, width + 1)], rt))
        return element_rowblock(space, out, u)
    vals = [u + atoms.get(i, 0) for i in range(1, (space.dim or max(atoms, default=0)) + 1)]
    return element_fin(space, vals) if space.dim else element_tail(space, vals, u)


def test_recompose_matches_the_dense_sum_and_shares_untouched_values(rng):
    for space in ALL_SPACES:
        for _ in range(60):
            parts = _random_parts(rng, space)
            x = recompose(space, parts)
            assert x == _dense_recompose(space, parts), (space.label, parts)
            _, atoms, rows = _sums(parts)
            if space.kind == Kind.ROW_BLOCK:
                lines, (back,) = x.data
                for n, row in enumerate(lines, start=1):
                    rt = row[1][0]
                    if not rows.get(n):
                        assert rt is back[1][0]
                        if not any(c for (k, _), c in atoms.items() if k == n):
                            assert row is back
                    assert all(v is rt for m, v in enumerate(row[0], start=1)
                               if not atoms.get((n, m)))
            else:
                # the g-line of ck is a line over the g tokens
                fin_dev = space.kind == Kind.FIN_DEV
                prefix, res = x.data[2] if fin_dev else x.data
                untouched = [v for i, v in enumerate(prefix, start=1)
                             if not atoms.get(gamma(i) if fin_dev else i)]
                assert len({id(v) for v in untouched}) <= 1
                if not space.dim:
                    assert all(v is res[0] for v in untouched)


def test_recompose_of_a_far_atom_adds_once_per_part(monkeypatch):
    """The sum is written at its stored atoms only: one add to collect the
    part, one to put it over the unit, whatever the index."""
    calls = 0
    qadd = elements.qadd

    def counting(a, b):
        nonlocal calls
        calls += 1
        return qadd(a, b)

    monkeypatch.setattr(elements, "qadd", counting)
    for space, idx in [(T, 4000), (E, (300, 300)), (row_block_grid(), (300, 300))]:
        calls = 0
        x = recompose(space, [(("atom", idx), 1)])
        assert calls <= 2, (space.label, calls)
        assert coordinate(x, idx) == 1 and decompose(x) == [(("atom", idx), 1)]


def test_majorant_floors_build_no_sums_with_add(monkeypatch):
    calls = [0]

    def counting_add(x, y):
        calls[0] += 1
        return add(x, y)

    for mod in [m for name, m in sys.modules.items() if name.startswith("rieszkit")]:
        if getattr(mod, "add", None) is add:
            monkeypatch.setattr(mod, "add", counting_add)
    T_ = row_pair_difference_operator()
    assert majorant_floors(T_, 16) == list(range(17))
    assert calls[0] == 0
    monkeypatch.undo()
    # the counter sees an add: Element.__add__ reads the module's binding
    monkeypatch.setattr(elements, "add", counting_add)
    assert atom(T, 1) + atom(T, 2) == recompose(T, [(("atom", 1), 1), (("atom", 2), 1)])
    assert calls[0] == 1


def _lattice_battery(seed: int = 11) -> str:
    """sup2, inf2, abs_, le, is_disjoint and coordinate on seeded elements
    of every space, one line per pair; then scale, lincomb and recompose
    with coefficients 0, 1 and -1, where sums and products reuse an operand;
    then add, sup2 and scale on seeded periodic patterns, described."""
    rng = random.Random(seed)
    lines = []
    for space in ALL_SPACES:
        for _ in range(25):
            x, y = random_element(rng, space), random_element(rng, space)
            for a, b in _lattice_pairs(x, y):
                coords = ",".join(str(coordinate(a, i)) for i in _probes(a, b))
                lines.append(" ".join([
                    space.label, render(sup2(a, b)), render(inf2(a, b)), render(abs_(a)),
                    str(le(a, b)), str(is_disjoint(a, b)), coords]))
            for c, d in [(0, 1), (1, -1), (-1, 0), (1, 1), (Q(1, 2), -1)]:
                parts = [(ref, c) for ref, _ in decompose(x)] + [
                    (ref, d * v) for ref, v in decompose(y)]
                lines.append(" ".join([
                    space.label, render(scale(c, x)), render(lincomb(space, [(c, x), (d, y)])),
                    render(recompose(space, parts))]))
        for _ in range(10):
            a, b = random_pattern(rng, space)[0], random_pattern(rng, space)[0]
            lines.append(" ".join([space.label] + [json.dumps(describe(p)) for p in (
                a, b, add(a, b), sup2(a, b), scale(Q(-3, 2), a))]))
    return "\n".join(lines)


def test_lattice_battery_is_the_same_under_python_O():
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = ("import sys; from test_elements import _lattice_battery; "
            "print(sys.flags.optimize); print(_lattice_battery())")
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=here,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"1\n{_lattice_battery()}\n"

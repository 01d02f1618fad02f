"""Completion patterns against a per-coordinate reference.

A pattern built by `pattern_from_pieces` denotes its base plus its pieces.
The reference adds them up at each coordinate, and reads the result of an
operation back through `elements.describe`, so that the test does not depend
on how patterns are stored.  The window covers every prefix and every
explicit row plus two periods of the lcm of the moduli in play; on ck it
adds the star tokens the bases store and a fresh one, which reads the
ambient.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from rieszkit.completion import collapse, pattern_from_pieces
from rieszkit.elements import (
    Element,
    add,
    coordinate,
    describe,
    in_base_space,
    is_positive,
    le,
    pos,
    scale,
    sub,
    sup2,
)
from rieszkit.scalars import Q
from rieszkit.spaces import Token, gamma

from conftest import ALL_SPACES, random_element, random_pattern

FRESH = Token("star", 99)


def _covers(step: int, first: int, i: int) -> bool:
    return i == first if step == 0 else i >= first and (i - first) % step == 0


def _reference(space, base, pieces):
    """idx -> the value of base plus pieces at idx."""

    def at(idx):
        v = coordinate(base, idx)
        for *where, c in pieces:
            if space.row.shape == "row_block":
                hit = _covers(*where[:2], idx[0]) and _covers(*where[2:], idx[1])
            elif space.row.shape == "fin_dev":
                hit = idx.family == "g" and _covers(*where, idx.k)
            else:
                hit = _covers(*where, idx)
            if hit:
                v += c
        return v

    return at


def _line_at(line: dict, i: int) -> Fraction:
    pref = line["prefix"]
    return Fraction(pref[i - 1] if i <= len(pref) else line["residues"][i % line["modulus"]])


def _described(desc: dict):
    """idx -> the value of a described pattern at idx."""
    kind = desc["kind"]
    if kind == "element":
        vals = [Fraction(v) for v in desc["value"].strip("()").split(",")]
        return lambda i: vals[i - 1]
    if kind == "tail_pattern":
        return lambda i: _line_at(desc, i)
    if kind == "fin_dev_pattern":
        extra = {t: Fraction(v) for t, v in desc["extra"]}

        def at(tok):
            if str(tok) in extra:
                return extra[str(tok)]
            if tok.family == "g":
                return _line_at(desc["line"], tok.k)
            return Fraction(desc["ambient"])

        return at
    rows, res = desc["rows"], desc["row_residues"]
    return lambda idx: _line_at(
        rows[idx[0] - 1] if idx[0] <= len(rows) else res[idx[0] % len(res)], idx[1])


def _lines(desc: dict) -> list:
    kind = desc["kind"]
    if kind == "tail_pattern":
        return [desc]
    if kind == "fin_dev_pattern":
        return [desc["line"]]
    if kind == "row_block_pattern":
        return desc["rows"] + desc["row_residues"]
    return []


def _extent(desc: dict) -> tuple[int, int]:
    """(length of the explicit region, lcm of the moduli) of a description."""
    lines = _lines(desc)
    width = max([len(line["prefix"]) for line in lines], default=0)
    period = lcm(1, *(line["modulus"] for line in lines))
    if desc["kind"] == "row_block_pattern":
        width = max(width, len(desc["rows"]))
        period = lcm(period, len(desc["row_residues"]))
    return width, period


def _window(space, descs, pieces):
    """(indices, W, period): every index up to W, where W passes every
    explicit region and first index by two periods."""
    extents = [_extent(d) for d in descs]
    # a piece is (step, first, value) or (row_step, row_first, col_step,
    # col_first, value)
    steps = [p[i] for p in pieces for i in range(0, len(p) - 1, 2) if p[i]]
    firsts = [p[i + 1] for p in pieces for i in range(0, len(p) - 1, 2)]
    period = lcm(1, *steps, *(m for _, m in extents))
    w = max([e for e, _ in extents] + firsts) + 2 * period
    if space.dim:
        return list(range(1, space.dim + 1)), w, period
    if space.row.sequence:
        return list(range(1, w + 1)), w, period
    if space.row.shape == "fin_dev":
        stars = [Token("star", i) for i in range(1, 5)]
        return [gamma(i) for i in range(1, w + 1)] + stars + [FRESH], w, period
    return [(n, m) for n in range(1, w + 1) for m in range(1, w + 1)], w, period


def _in_base_space_reference(space, at, w: int, period: int) -> bool:
    last = range(w - period + 1, w + 1)
    if space.dim:
        return True
    if space.row.sequence:
        return len({at(i) for i in last}) == 1
    if space.row.shape == "fin_dev":
        return {at(gamma(i)) for i in last} == {at(FRESH)}
    c = at((w, w))
    background = all(at((n, m)) == c for n in last for m in range(1, w + 1))
    row_tails = [{at((n, m)) for m in last} for n in range(1, w + 1)]
    if space.row_units:
        return background and all(len(t) == 1 for t in row_tails)
    return background and all(t == {c} for t in row_tails)


def _assert_canonical_line(line: dict) -> None:
    res, m, pref = line["residues"], line["modulus"], line["prefix"]
    assert len(res) == m
    for d in range(1, m):
        if m % d == 0:
            assert any(res[r] != res[r % d] for r in range(m)), line
    assert not pref or pref[-1] != res[len(pref) % m], line


def _assert_canonical(desc: dict) -> None:
    """Minimal modulus and trimmed prefix at every level."""
    for line in _lines(desc):
        _assert_canonical_line(line)
    if desc["kind"] == "fin_dev_pattern":
        assert all(not t.startswith("g(") and v != desc["ambient"] for t, v in desc["extra"])
    if desc["kind"] == "row_block_pattern":
        rows, res = desc["rows"], desc["row_residues"]
        for d in range(1, len(res)):
            if len(res) % d == 0:
                assert any(res[r] != res[r % d] for r in range(len(res))), desc
        assert not rows or rows[-1] != res[len(rows) % len(res)], desc


def _check_pair(space, a, b, c) -> None:
    (ca, base_a, pieces_a), (cb, base_b, pieces_b) = a, b
    ra, rb = _reference(space, base_a, pieces_a), _reference(space, base_b, pieces_b)
    results = [
        (add(ca, cb), lambda u, v: u + v),
        (sub(ca, cb), lambda u, v: u - v),
        (sup2(ca, cb), max),
        (scale(c, ca), lambda u, v: c * u),
        (pos(ca), lambda u, v: max(u, 0)),
    ]
    descs = [describe(p) for p in (ca, cb, base_a, base_b)]
    descs += [describe(p) for p, _ in results]
    idxs, w, period = _window(space, descs, pieces_a + pieces_b)
    for desc in descs:
        _assert_canonical(desc)
    for ce, ref in ((ca, ra), (cb, rb)):
        got = _described(describe(ce))
        assert [got(i) for i in idxs] == [ref(i) for i in idxs]
    for p, f in results:
        got = _described(describe(p))
        assert [got(i) for i in idxs] == [f(ra(i), rb(i)) for i in idxs], describe(p)
    up = sup2(ca, cb)
    assert le(ca, cb) == all(ra(i) <= rb(i) for i in idxs)
    assert le(cb, ca) == all(rb(i) <= ra(i) for i in idxs)
    assert le(ca, up) and le(cb, up)
    assert is_positive(ca) == all(ra(i) >= 0 for i in idxs)
    assert is_positive(pos(ca))
    assert ca.is_zero() == all(ra(i) == 0 for i in idxs)
    assert sub(ca, ca).is_zero()
    for ce, ref in ((ca, ra), (up, lambda i: max(ra(i), rb(i)))):
        member = _in_base_space_reference(space, ref, w, period)
        assert in_base_space(ce) == member, describe(ce)
        x = collapse(ce)
        assert (x is not None) == member
        if member:
            assert isinstance(x, Element) and x.space == space
            assert [coordinate(x, i) for i in idxs] == [ref(i) for i in idxs]


def test_pattern_operations_match_the_reference(rng):
    for space in ALL_SPACES:
        for _ in range(25):
            a, b = random_pattern(rng, space), random_pattern(rng, space)
            _check_pair(space, a, b, Q(rng.randint(-3, 3), rng.randint(1, 2)))


def test_moduli_that_differ_between_the_operands(rng):
    """Steps 3 and 4 on the two operands: results have modulus 12."""
    for space in ALL_SPACES:
        if space.dim:
            continue
        base_a, base_b = random_element(rng, space), random_element(rng, space)
        if space.row.shape == "row_block":
            pieces_a, pieces_b = [(1, 2, 3, 1, Q(1))], [(2, 1, 4, 2, Q(-2))]
        else:
            pieces_a, pieces_b = [(3, 2, Q(1))], [(4, 1, Q(-2)), (0, 3, Q(5))]
        a = (pattern_from_pieces(space, base_a, pieces_a), base_a, pieces_a)
        b = (pattern_from_pieces(space, base_b, pieces_b), base_b, pieces_b)
        _check_pair(space, a, b, Q(-1, 2))
        assert _extent(describe(add(a[0], b[0])))[1] == 12


def test_a_base_element_collapses_to_itself(rng):
    for space in ALL_SPACES:
        for _ in range(40):
            x = random_element(rng, space)
            assert in_base_space(x)
            assert collapse(x) == x


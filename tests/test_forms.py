"""The coordinate forms' geometry against brute force over a window.

Each method of `SeqForm`, `TokenForm` and `PairForm` that answers a
question about infinitely many steps or atoms (the inverse, where two forms
meet along a sequence or in a rule, the pattern piece a rule entry sweeps,
the coordinate a stationary entry keeps hitting) is compared with a search
over a window large enough to hold every answer, on seeded forms with
integral and half-integral slopes.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

import pytest

from rieszkit.errors import InvalidIndexError, PreconditionError, StencilError
from rieszkit.scalars import Q
from rieszkit.spaces import PairForm, SeqForm, Token, TokenForm, affine, gamma

SEEDS = range(40)
W = 40  # steps, atoms per residue class and rows searched
SLOPES = [0, Q(1, 2), 1, Q(3, 2), 2]


def _component(rng, slopes=SLOPES, offsets=range(-6, 7), halves=True):
    return affine(rng.choice(slopes), Q(rng.choice(offsets), 2 if halves else 1))


def _form(rng, kind, **kw):
    if kind == "pair":
        return PairForm(_component(rng, **kw), _component(rng, **kw))
    return (SeqForm if kind == "seq" else TokenForm)(_component(rng, **kw))


def _reads(read, arg):
    """read(arg), or None where the coordinate is not one (not integral, or
    a token below g(1))."""
    try:
        return read(arg)
    except InvalidIndexError:
        return None


def _key(coord):
    return coord.k if isinstance(coord, Token) else coord


def _rule_entry(rng, kind):
    """(form, modulus, threshold, residue, first) for a form `check_rule`
    accepts: the rule reads half-integral slopes over classes mod 2."""
    while True:
        modulus, threshold = rng.choice([1, 2]), rng.randint(0, 3)
        residue = rng.randrange(modulus)
        first = threshold + 1 + (residue - threshold - 1) % modulus
        form = _form(rng, kind)
        if kind == "pair":
            form = PairForm(_component(rng, slopes=[0, 1, 2], offsets=range(0, 4),
                                       halves=False), form.col)
        try:
            form.check_rule(modulus, residue, first, False)
        except StencilError:
            continue
        return form, modulus, threshold, residue, first


def _share(rng, g, f):
    """g, or for pair forms g with f's row or column half of the time, so
    that pairs of forms often meet."""
    if isinstance(g, PairForm) and rng.random() < 0.5:
        return PairForm(*rng.choice([(f.row, g.col), (g.row, f.col)]))
    return g


def _atoms(kind, modulus, first):
    drives = range(first, first + modulus * W, modulus)
    return [(n, m) for n in range(1, W + 1) for m in drives] if kind == "pair" else list(drives)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["seq", "token", "pair"])
def test_preimage_is_the_one_atom_the_rule_sends_there(kind, seed):
    """A form moving in every component has at most one preimage of each
    coordinate: a line form at any integer step, a pair form on the rows
    from 1.  A stationary component refuses the inverse of its own image."""
    rng = random.Random(seed)
    form = _form(rng, kind)
    if kind == "pair":
        atoms = [(n, m) for n in range(1, W) for m in range(-W, W)]
        targets = [(r, c) for r in range(1, 9) for c in range(1, 9)]
        moving = form.row.moving and form.col.moving
    else:
        atoms = range(-2 * W, 2 * W)
        targets = [gamma(k) for k in range(1, 21)] if kind == "token" else range(1, 21)
        moving = form.moving
    found = defaultdict(list)
    for a in atoms:
        found[_reads(form.image, a)].append(a)
    for target in targets:
        if moving:
            assert len(found[target]) <= 1
            assert form.preimage(target) == (found[target] or [None])[0]
        elif found[target]:
            with pytest.raises(PreconditionError, match="rule is not locally finite"):
                form.preimage(target)
    if kind == "token":
        assert form.preimage(Token("star", 1)) is None


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["seq", "token", "pair"])
def test_collides_at_is_the_one_step_two_sequences_meet(kind, seed):
    """A sequence reads its forms at every step n >= 1, so they are integral
    and read coordinates there; two distinct forms meet at one step at
    most."""
    rng = random.Random(seed)
    kw = dict(slopes=[0, 1, 2], offsets=range(1, 6), halves=False)
    f = _form(rng, kind, **kw)
    g = _share(rng, _form(rng, kind, **kw), f)
    if f == g:
        assert f.collides_at(g) is None
        return
    found = [n for n in range(1, 3 * W) if f.at(n) == g.at(n)]
    assert len(found) <= 1
    assert f.collides_at(g) == (found[0] if found else None)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["seq", "token", "pair"])
def test_meets_is_the_driving_index_two_rule_entries_meet(kind, seed):
    """Two distinct entries of one residue class send some atom with the
    same driving index to one coordinate at one driving index at most; two
    pair entries with one column form that meet on a row meet at every
    column, which `meets` reports as the class's first driving index."""
    rng = random.Random(seed)
    f, modulus, threshold, residue, first = _rule_entry(rng, kind)
    while True:
        g = _share(rng, _rule_entry(rng, kind)[0], f)
        try:
            g.check_rule(modulus, residue, first, False)
        except StencilError:
            continue
        if g != f:
            break
    drives = range(first, first + modulus * W, modulus)
    if kind == "pair":
        found = [m for m in drives if any(f.image((n, m)) == g.image((n, m))
                                          for n in range(1, W + 1))]
    else:
        found = [i for i in drives if f.image(i) == g.image(i)]
    want = found[0] if found else None
    if kind == "pair" and f.col == g.col:
        assert found in ([], list(drives))
    else:
        assert len(found) <= 1
    assert f.meets(g, threshold, modulus, residue) == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["seq", "token", "pair"])
def test_piece_is_the_set_a_rule_entry_sweeps(kind, seed):
    """The progression(s) of `piece` hold exactly the coordinates the entry
    reaches from the class's first driving index, over all rows or one."""
    rng = random.Random(seed)
    form, modulus, _, _, first = _rule_entry(rng, kind)
    bound = 12

    def progression(step, start):
        return {start} if step == 0 else set(range(start, bound + 1, step))

    if kind == "pair":
        for row in (None, rng.randint(1, 4)):
            rs, r0, cs, c0, value = form.piece(modulus, first, Q(3), row)
            rows = range(row, row + 1) if row else range(1, W + 1)
            swept = {form.image((n, m)) for n in rows
                     for m in range(first, first + modulus * W, modulus)}
            want = {(r, c) for r in progression(rs, r0) for c in progression(cs, c0)}
            assert value == 3
            assert {rc for rc in swept if max(rc) <= bound} == {
                rc for rc in want if max(rc) <= bound}
    else:
        step, start, value = form.piece(modulus, first, Q(3), None)
        swept = {_key(form.image(i)) for i in _atoms(kind, modulus, first)}
        assert value == 3
        assert {k for k in swept if k <= bound} == {
            k for k in progression(step, start) if k <= bound}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["seq", "token", "pair"])
def test_leak_is_the_coordinate_every_atom_of_the_class_hits(kind, seed):
    """A form moving in every component sends distinct atoms of its class to
    distinct coordinates; otherwise `leak` is the coordinate the first atom
    of the class hits, which every row or every column of the class hits
    too."""
    rng = random.Random(seed)
    form, modulus, _, _, first = _rule_entry(rng, kind)
    counts = Counter(form.image(a) for a in _atoms(kind, modulus, first))
    leak = form.leak(first)
    if leak is None:
        assert max(counts.values()) == 1
    else:
        assert leak == form.image((1, first) if kind == "pair" else first)
        assert counts[leak] >= W

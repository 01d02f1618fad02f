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

from conftest import fraction_calls
from rieszkit.errors import InvalidIndexError, PreconditionError, StencilError
from rieszkit.scalars import Q, qstr
from rieszkit.spaces import (
    PairForm, SeqForm, Token, TokenForm, affine, fin_dev, fin_dim, gamma, row_block_ek, tail_seq)

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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["seq", "findim", "token", "pair"])
def test_first_off_is_the_first_step_of_the_class_that_reads_no_atom(kind, seed):
    """Along a sequence, `first_off(s, dim, modulus)` is the first step from
    s in its class mod modulus at which the form is not integral or reads
    an index the space refuses, or None when every step of the class reads
    an atom; negative slopes leave the index set late, moving forms leave
    findim."""
    rng = random.Random(seed)
    slopes = [-1, Q(-1, 2), *SLOPES]
    form = _form(rng, "seq" if kind == "findim" else kind, slopes=slopes,
                 offsets=range(-6, 13), halves=rng.random() < 0.3)
    space = {"seq": tail_seq(), "findim": fin_dim(rng.randint(1, 8)), "token": fin_dev(),
             "pair": row_block_ek()}[kind]
    s, modulus = rng.randint(1, 6), rng.choice([1, 2, 3])

    def off(n):
        try:
            space.row.check_atom(form.at(n), space.dim)
        except InvalidIndexError:
            return True
        return False

    steps = range(s, s + modulus * W, modulus)
    want = next((n for n in steps if off(n)), None)
    got = form.first_off(s, space.dim, modulus)
    assert got == want or (want is None and got > steps[-1] and off(got)), (form, s, modulus)


# ---------------------------------------------------------------------------
# the integer reading against the rational formulas it replaces


def _ref_str(a, b) -> str:
    if a == 0:
        return qstr(b)
    an = "n" if a == 1 else f"{qstr(a)}n"
    if b == 0:
        return an
    return f"{an}{'+' if b > 0 else '-'}{qstr(abs(b))}"


def _ref_at_int(a, b, n):
    v = a * n + b
    if v.denominator != 1:
        raise InvalidIndexError(f"index form {_ref_str(a, b)} is not integral at n={n}")
    return v.numerator


def _ref_check_class(a, b, modulus, residue, first, finite):
    if a < 0:
        raise StencilError(f"index form {_ref_str(a, b)} eventually leaves the index set")
    if (a * modulus).denominator != 1 or (a * residue + b).denominator != 1:
        raise StencilError(f"index form {_ref_str(a, b)} is not integral on its class")
    if a * first + b < 1:
        raise StencilError(f"index form {_ref_str(a, b)} leaves the index set at i={first}")
    if finite and a != 0:
        raise StencilError("moving forms cannot target a finite-dimensional space")


def _ref_check_rule(row, col, modulus, residue, first, finite):
    (ra, rb), (ca, cb) = row, col
    if ra < 0:
        raise StencilError(f"index form {_ref_str(ra, rb)} eventually leaves the index set")
    if ra.denominator != 1 or rb.denominator != 1:
        raise StencilError(f"row form {_ref_str(ra, rb)} is not integral")
    if ra + rb < 1:
        raise StencilError(f"row form {_ref_str(ra, rb)} leaves the index set")
    _ref_check_class(ca, cb, modulus, residue, first, finite)


def _ref_meet(f, g):
    (a, b), (c, d) = f, g
    if a == c:
        return None
    n = (d - b) / (a - c)
    return n.numerator if n.denominator == 1 and n >= 1 else None


def _coeffs(rng):
    """(a, b): seeded slopes, negative ones included, and half offsets."""
    return Q(rng.choice(SLOPES + [Q(-1, 2), -1])), Q(rng.randint(-6, 6), 2)


def _outcomes(call):
    try:
        return "ok", call()
    except (InvalidIndexError, StencilError) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_integer_reading_agrees_with_the_rational_formulas(seed):
    rng = random.Random(seed)
    (a, b), (c, d) = _coeffs(rng), _coeffs(rng)
    f, g = affine(a, b), affine(c, d)
    assert str(f) == _ref_str(a, b)
    assert repr(f) == f"Affine(a={a!r}, b={b!r})"
    assert str(PairForm(f, g)) == f"({_ref_str(a, b)},{_ref_str(c, d)})"
    for n in range(-4, 12):
        assert _outcomes(lambda: f.at_int(n)) == _outcomes(lambda: _ref_at_int(a, b, n))
    assert f.compose(g) == affine(a * c, a * d + b)
    assert f.meet(g) == _ref_meet((a, b), (c, d))
    for modulus in (1, 2, 3):
        for residue in range(modulus):
            for first in range(residue or modulus, 8, modulus):
                for finite in (False, True):
                    args = (modulus, residue, first, finite)
                    want = _outcomes(lambda: _ref_check_rule((a, b), (c, d), *args))
                    got = _outcomes(lambda: PairForm(f, g).check_rule(*args))
                    assert got == want, args
                    if got[0] != "ok":
                        continue
                    assert PairForm(f, g).piece(modulus, first, Q(3), None) == (
                        int(a), _ref_at_int(a, b, 1), int(c * modulus),
                        _ref_at_int(c, d, first), 3)
                    assert SeqForm(g).piece(modulus, first, Q(3), None) == (
                        int(c * modulus), _ref_at_int(c, d, first), 3)


def test_a_form_is_its_canonical_triple():
    """Equal forms from any input are equal and hash equal."""
    assert affine(Q(2, 2), Q(4, 2)) == affine(1, 2) == affine("1", "2")
    assert hash(affine(Q(2, 2), Q(4, 2))) == hash(affine(1, 2))
    assert affine(Q(2, 4), Q(3, 6)) == affine(Q(1, 2), Q(1, 2))
    assert affine(0, Q(-4, 2)) == affine(0, -2) != affine(0, 2)
    # the forms' text, as reports and error messages print it
    assert [str(affine(*ab)) for ab in [(0, 0), (0, Q(-3, 2)), (1, 0), (Q(1, 2), Q(1, 2)),
                                        (Q(3, 2), -1), (-2, Q(5, 2))]] == [
        "0", "-3/2", "n", "1/2n+1/2", "3/2n-1", "-2n+5/2"]
    assert repr(PairForm(affine(1, 0), affine(Q(1, 2), Q(-1, 2)))) == (
        "PairForm(row=Affine(a=Fraction(1, 1), b=Fraction(0, 1)), "
        "col=Affine(a=Fraction(1, 2), b=Fraction(-1, 2)))")


def test_form_index_methods_make_no_fraction_calls():
    """Every index method of the forms computes on integers, on any Python:
    no Fraction is built, added, multiplied or ordered."""
    rng = random.Random(7)
    forms = {kind: [_form(rng, kind) for _ in range(30)] for kind in ("seq", "token", "pair")}
    value = Q(3)
    with fraction_calls() as calls:
        for kind, fs in forms.items():
            for f, g in zip(fs, fs[1:]):
                hash(f)
                assert (f == f) and (f == g) is (str(f) == str(g))
                f.moving
                f.collides_at(g)
                f.meets(g, 2, 2, 1)
                for n in range(1, 6):
                    arg = (n, n + 1) if kind == "pair" else n
                    _reads(f.at, n)
                    _reads(f.image, arg)
                    _reads(f.leak, n)
                    try:
                        f.preimage((n, n) if kind == "pair" else gamma(n) if kind == "token" else n)
                    except PreconditionError:
                        pass
                for modulus, residue, first in ((1, 0, 1), (2, 1, 3)):
                    try:
                        f.check_rule(modulus, residue, first, False)
                        f.piece(modulus, first, value, None)
                    except (StencilError, InvalidIndexError):
                        pass
                if kind == "pair":
                    f.compose(g)
                    f.row_meet(g)
    assert calls[0] == 0

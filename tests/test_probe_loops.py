"""Differential test of the two probe loops against their definitions.

`check_decreasing` decides b_{n+1} <= b_n on the moving parts of the two
steps, and the verifier's minorant loop decides h <= x_n against the static
part; both must agree with the definitions evaluated naively on whole
steps, `le(eval_seq(b, n + 1), eval_seq(b, n))` and `le(h, eval_seq(x, n))`:
the same verdict, the same first failing n and the same message.  The
sequences are seeded draws over all five space kinds, with preludes, fills
with lag and modulus, harmonic coefficients and colliding forms.
"""

from __future__ import annotations

import random

import pytest

from rieszkit.convergence import (
    DIVERGES,
    ConvergenceCertificate,
    check_decreasing,
    verify_certificate,
)
from rieszkit.elements import add, inf2, le, recompose, scale, sub, unit
from rieszkit.errors import NotDecreasingError, RieszkitError
from rieszkit.scalars import Q, RationalSeq
from rieszkit.sequences import element_seq, eval_seq, fill, structural_threshold
from rieszkit.spaces import (
    Token,
    fin_dim,
    fin_dev,
    gamma,
    pair_form,
    row_block_ek,
    row_block_grid,
    seq_form,
    tail_seq,
    token_form,
)

SPACES = [fin_dim(4), tail_seq(), fin_dev(), row_block_ek(), row_block_grid()]


def _q(rng, lo=-2, hi=2):
    return Q(rng.randint(lo, hi), rng.choice([1, 1, 2, 3]))


def _index(rng, space):
    """A fixed atom index of the space."""
    kind = space.kind.value
    if kind == "fin_dim":
        return rng.randint(1, space.dim)
    if kind == "tail_seq":
        return rng.randint(1, 6)
    if kind == "fin_dev":
        return gamma(rng.randint(1, 6)) if rng.random() < 0.7 else Token("star", rng.randint(1, 3))
    return (rng.randint(1, 4), rng.randint(1, 4))


def _form(rng, space, moving):
    """A coordinate form of the space: stationary, or strictly moving from
    index 1 on (sometimes from index 0 on, which is out of range at n = 1)."""
    kind = space.kind.value
    if kind == "fin_dim" or not moving:
        idx = _index(rng, space)
        if kind == "fin_dim" or kind == "tail_seq":
            return seq_form(0, idx)
        if kind == "fin_dev":
            return token_form(0, rng.randint(1, 6))
        return pair_form(0, idx[0], 0, idx[1])
    a = rng.choice([1, 1, 2])
    b = rng.randint(1 - a, 3) - (rng.random() < 0.03)
    if kind == "tail_seq":
        return seq_form(a, b)
    if kind == "fin_dev":
        return token_form(a, b)
    if rng.random() < 0.5:
        return pair_form(a, b, 0, rng.randint(1, 3))
    return pair_form(0, rng.randint(1, 3), a, b)


def _coeff(rng, stationary):
    """Mostly nonincreasing coefficients, with a late bump now and then."""
    shape = rng.choice(["const", "steps", "steps", "harmonic"])
    if shape == "const":
        return RationalSeq.const(_q(rng))
    if shape == "harmonic":
        return RationalSeq.harmonic(_q(rng, 1, 3) if stationary else _q(rng))
    vals = sorted((_q(rng) for _ in range(rng.randint(1, 5))), reverse=True)
    if rng.random() < 0.3:
        k = rng.randrange(len(vals))
        vals[k] += 1
    return RationalSeq.steps(vals, vals[-1] - rng.choice([0, 0, 1]))


def _static(rng, space):
    parts = [(("atom", _index(rng, space)), _q(rng)) for _ in range(rng.randint(0, 5))]
    parts.append((("unit",), _q(rng)))
    if space.row_units:
        parts += [(("row_unit", rng.randint(1, 4)), _q(rng)) for _ in range(rng.randint(0, 2))]
    return recompose(space, parts)


def _symbolic(rng, space):
    """Static part, atoms, fills and ambient of one draw."""
    atoms = []
    for _ in range(rng.randint(0, 3)):
        moving = rng.random() < 0.5
        atoms.append((_form(rng, space, moving), _coeff(rng, not moving)))
    if space.kind.value in ("tail_seq", "fin_dev") and rng.random() < 0.3:
        # two strictly moving forms that meet at one step: the constructor
        # hides the collision behind a prelude
        make = seq_form if space.kind.value == "tail_seq" else token_form
        c = rng.randint(2, 4)
        atoms += [(make(1, 1), _coeff(rng, False)), (make(2, 1 - c), _coeff(rng, False))]
    fills = []
    if space.kind.value in ("tail_seq", "fin_dev"):
        make = seq_form if space.kind.value == "tail_seq" else token_form
        for _ in range(rng.randint(0, 2)):
            modulus = rng.randint(1, 3)
            fills.append(fill(make(rng.randint(1, 2), rng.randint(0, 2)), modulus,
                              rng.randrange(modulus), rng.randint(1, 3), rng.randint(0, 2),
                              -_q(rng, 1, 2) if rng.random() < 0.85 else _q(rng, 1, 2)))
    ambient = RationalSeq.steps(sorted((_q(rng) for _ in range(rng.randint(0, 3))), reverse=True),
                                _q(rng, -2, 0))
    return _static(rng, space), atoms, fills, ambient


def _draw(rng, space):
    """One sequence, or None when the draw cannot be built."""
    static, atoms, fills, ambient = _symbolic(rng, space)
    try:
        seq = element_seq(space, static, atoms, fills, ambient)
        if rng.random() < 0.4:
            # an explicit prelude above the symbolic steps: decreasing
            # offsets of the unit, or now and then an arbitrary element
            m = rng.randint(2, 4)
            offsets = sorted((_q(rng, 0, 3) for _ in range(m - 1)), reverse=True)
            prelude = [_static(rng, space) if rng.random() < 0.15
                       else add(eval_seq(seq, k + 1), scale(c, unit(space)))
                       for k, c in enumerate(offsets)]
            seq = element_seq(space, static, atoms, fills, ambient, n0=m, prelude=prelude)
    except (RieszkitError, ValueError):  # merged forms: harmonic + constant
        return None
    return seq


def _draws(seed, space, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        seq = _draw(rng, space)
        if seq is not None:
            out.append((rng, seq))
    return out


def _outcome(call):
    try:
        return ("ok", call())
    except RieszkitError as e:
        return (type(e).__name__, str(e))


def _naive_decreasing(b, probe):
    """The definition, step by step on whole elements; the tail conditions
    are the checked function's own, so only a window failure is decided."""
    window = structural_threshold(b) + probe
    prev = eval_seq(b, 1)
    for n in range(1, window + 1):
        cur = eval_seq(b, n + 1)
        if not le(cur, prev):
            raise NotDecreasingError(n, f"b({n + 1}) !<= b({n})")
        prev = cur
    return window


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label)
def test_decreasing_check_agrees_with_whole_step_comparisons(space):
    failing = set()
    for _, b in _draws(21, space, 60):
        for probe in (1, 8):
            want = _outcome(lambda: _naive_decreasing(b, probe))
            got = _outcome(lambda: check_decreasing(b, probe))
            if want[0] == "ok":
                # the window holds; the symbolic tail conditions decide
                assert got[0] == "ok" or "!<=" not in got[1], (b, probe, got)
                if got[0] == "ok":
                    assert got == want
            else:
                assert got == want, (b, probe)
                failing.add(want[1])
    # the draws fail at several different steps
    assert len(failing) >= 3, failing


def test_a_first_step_out_of_range_raises_as_whole_steps_do():
    """The step differences drop the terms that cancel; a fill hit that is
    out of range from step 1 on is still reported, as on whole steps."""
    b = element_seq(tail_seq(), fills=[fill(seq_form(1, -1), 1, 0, 1, 0, -1)])
    want = _outcome(lambda: _naive_decreasing(b, 8))
    assert want[0] == "InvalidIndexError"
    assert _outcome(lambda: check_decreasing(b, 8)) == want


def _minorant(rng, x, window):
    """An element below some steps of x: the inf of a few of them, lowered
    or raised a little now and then."""
    steps = [eval_seq(x, rng.randint(1, window)) for _ in range(rng.randint(1, 3))]
    h = steps[0]
    for s in steps[1:]:
        h = inf2(h, s)
    tweak = rng.choice([0, 0, Q(-1, 2), Q(1, 4)])
    return sub(h, scale(tweak, unit(x.space))) if tweak else h


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label)
def test_minorant_loop_agrees_with_whole_step_comparisons(space):
    lines = set()
    for rng, x in _draws(22, space, 60):
        probe = rng.choice([1, 4, 8])
        window = structural_threshold(x) + probe
        try:
            h = _minorant(rng, x, window)
        except RieszkitError:
            continue
        cert = ConvergenceCertificate(verdict=DIVERGES, space=space, mode="monotone", minorant=h)
        want = _outcome(lambda: next(
            (f"FAIL minorant not below the family at n={n}"
             for n in range(1, window + 1) if not le(h, eval_seq(x, n))),
            f"minorant below the family at n=1..{window}"))
        got = _outcome(lambda: verify_certificate(cert, x, None, probe))
        if got[0] == "ok":
            ok, log = got[1]
            got = ("ok", *(line for line in log if "below the family" in line))
            assert ok == all("FAIL" not in line for line in log)
        assert got == want, (x, h)
        lines.add(want[1])
    assert any(line.startswith("FAIL") for line in lines)
    assert any(not line.startswith("FAIL") for line in lines)

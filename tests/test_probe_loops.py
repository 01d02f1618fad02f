"""Differential test of the probe walks against their definitions.

Each walk compares a whole step only at its first step, a prelude step, the
first symbolic step and a step where an ambient changes, and every other
step on the coordinates the step touches (`sequences.StepWalk`).  Every
walk must agree with its definition evaluated naively on whole steps:

  check_decreasing           le(eval_seq(b, n + 1), eval_seq(b, n))
  the verifier's order bound le(abs_(d_n), order_bound)
  its domination walk        le(abs_(d_n - escaping_n), eval_seq(b, n))
  its minorant walk          le(h, eval_seq(x, n))
  the dominating search      le(abs_(eval_seq(x, n)), eval_seq(candidate, n))

with the same verdict, the same first failing n and the same message.  The
sequences are seeded draws over all five space kinds, with preludes, fills
with lag and modulus, harmonic coefficients, ambients that change past the
prelude and colliding forms; the domination walks start at certificate
steps n0 > 1 as well, and read prelude steps less escaping atoms against a
family fitted to them.  A count guard holds the walks linear in the window.
"""

from __future__ import annotations

import math
import random

import pytest

from rieszkit import convergence, oracles, sequences
from rieszkit.convergence import (
    CONVERGES,
    DIVERGES,
    ConvergenceCertificate,
    check_decreasing,
    decide_monotone_limit,
    decide_order_convergence,
    eventual_pattern,
    verify_certificate,
)
from rieszkit.elements import (
    abs_,
    add,
    decompose,
    in_base_space,
    inf2,
    le,
    recompose,
    scale,
    sub,
    unit,
    zero,
)
from rieszkit.errors import NotDecreasingError, RieszkitError
from rieszkit.oracles import bruteforce_dominating_search
from rieszkit.scalars import Q, RationalSeq, qabs_le
from rieszkit.sequences import (
    deviation_bound,
    element_seq,
    eval_seq,
    fill,
    normalize,
    structural_threshold,
    sub_element,
)
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


def _naive_walk_lines(cert, x, limit, probe):
    """The order-bound and domination lines of `verify_certificate`, from
    whole steps.  The decreasing check and the settling test between the two
    walks run as the verifier runs them, so an error either raises is
    raised at the same point."""
    d = x if limit is None else normalize(sub_element(x, limit))
    window = structural_threshold(d) + probe
    lines = []
    if cert.order_bound is not None:
        n = next((n for n in range(1, window + 1)
                  if not le(abs_(eval_seq(d, n)), cert.order_bound)), None)
        lines.append(f"order bound holds at n=1..{window}" if n is None
                     else f"FAIL order bound at n={n}")
    b = cert.dominating
    if b is not None:
        try:
            check_decreasing(b, probe)
        except NotDecreasingError:
            pass
        eventual_pattern(b)

        def less(n):
            return recompose(d.space, [*decompose(eval_seq(d, n)), *(
                (("atom", form.at(n)), -c) for form, coeff in cert.escaping if (c := coeff.at(n)))])

        n = next((n for n in range(max(1, cert.n0), window + 1)
                  if not le(abs_(less(n)), eval_seq(b, n))), None)
        lines.append(f"stationary part dominated at n={cert.n0}..{window}" if n is None
                     else f"FAIL domination of the stationary part at n={n}")
    return lines


def _fitted_family(d, escaping):
    """A family that dominates d less the escaping atoms on d's prelude
    steps and nothing more there, read from whole steps, and the deviation
    bound of d from n0 on; it does not dominate d itself where an escaping
    atom sits on a prelude step."""
    prelude = [abs_(recompose(d.space, [*decompose(eval_seq(d, n)), *(
        (("atom", form.at(n)), -c) for form, coeff in escaping if (c := coeff.at(n)))]))
        for n in range(1, d.n0)]
    return element_seq(d.space, ambient=RationalSeq.const(deviation_bound(d)), n0=d.n0,
                       prelude=prelude)


def _order_certificate(rng, d):
    """A certificate that d order converges, as the decider builds it from a
    deviation bound, with the bound, the dominating family, the escaping
    atoms and the first dominated step varied: some hold, some fail."""
    bound = deviation_bound(d)
    dom, escaping = convergence._build_residual(d, bound * rng.choice([1, 1, Q(1, 2), Q(1, 4)]))
    if escaping and rng.random() < 0.3:
        escaping = escaping[1:]
    if rng.random() < 0.25:
        # a drawn family, which seldom dominates and may not decrease
        dom = _draw(rng, d.space) or dom
    elif escaping and d.n0 > 1 and rng.random() < 0.5:
        dom = _fitted_family(d, escaping)
    if rng.random() < 0.3:
        order_bound = abs_(eval_seq(d, rng.randint(1, structural_threshold(d) + 2)))
    else:
        order_bound = scale(bound * rng.choice([1, 1, Q(1, 2), 0]), unit(d.space))
    n0 = rng.choice([1, 1, 2, 3, structural_threshold(d)])
    return ConvergenceCertificate(verdict=CONVERGES, space=d.space, dominating=dom,
                                  escaping=escaping, escape_bound=bound,
                                  order_bound=order_bound, n0=n0)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label)
def test_order_bound_and_domination_walks_agree_with_whole_step_comparisons(space):
    lines, late_starts, late_fails, prelude_escapes = set(), 0, set(), 0
    for rng, x in _draws(23, space, 60):
        probe = rng.choice([1, 4, 8])
        try:
            # mostly the limit, so that the decider's families dominate
            limit = rng.choice([eventual_pattern(x)] * 3 + [None, eval_seq(x, 1)])
            if not in_base_space(limit or unit(space)):
                limit = None
            d = x if limit is None else normalize(sub_element(x, limit))
            cert = _order_certificate(rng, d)
        except RieszkitError:
            continue
        want = _outcome(lambda: ("ok", *_naive_walk_lines(cert, x, limit, probe)))
        got = _outcome(lambda: verify_certificate(cert, x, limit, probe))
        if got[0] == "ok":
            ok, log = got[1]
            assert ok == all("FAIL" not in line for line in log)
            got = ("ok", ("ok", *(line for line in log
                                  if "order bound" in line or "stationary part" in line)))
        assert got == want, (x, cert)
        if want[0] == "ok":
            lines.update(want[1][1:])
            late_starts += cert.n0 > 1
            # the domination walk reads prelude steps less escaping atoms
            prelude_escapes += bool(cert.escaping) and max(1, cert.n0) < d.n0
            # (walk, whether it fails past its whole first steps)
            late_fails.update(
                (bounds, int(line.rsplit("=", 1)[1]) > max(1 if bounds else cert.n0, d.n0))
                for line in want[1][1:] if line.startswith("FAIL")
                for bounds in ["order bound" in line])
    for walk in ("order bound", "stationary part"):
        found = [line for line in lines if walk in line]
        assert any(line.startswith("FAIL") for line in found), walk
        assert any(not line.startswith("FAIL") for line in found), walk
    assert late_starts and {(True, True), (False, True)} <= late_fails
    assert prelude_escapes or space.kind.value not in ("fin_dev", "row_block")


def test_escaping_atoms_come_off_the_prelude_from_the_walks_first_step():
    """The escaping atom's row is 0, out of range, at step 1 only; the
    domination walk starts at step 2, on the prelude, and never reads it."""
    space = row_block_ek()
    escaping = ((pair_form(1, -1, 0, 1), RationalSeq.const(1)),)
    x = element_seq(space, atoms=escaping, n0=3, prelude=[zero(space), unit(space)])
    cert = ConvergenceCertificate(verdict=CONVERGES, space=space, escaping=escaping,
                                  escape_bound=Q(1), order_bound=scale(2, unit(space)),
                                  dominating=element_seq(space, ambient=RationalSeq.const(2)), n0=2)
    want = _naive_walk_lines(cert, x, None, 8)
    ok, log = verify_certificate(cert, x, None, 8)
    assert [line for line in log if "order bound" in line or "stationary part" in line] == want
    assert want == ["order bound holds at n=1..12", "stationary part dominated at n=2..12"]


def test_the_draws_change_their_ambient_past_the_prelude():
    """The walks' whole steps where the ambient changes past n0 are reached:
    some drawn sequences with a prelude change their ambient after it."""
    assert any(len(x.ambient.prefix) + 1 > x.n0 > 1
               for space in SPACES for _, x in _draws(23, space, 60))


def _naive_search(x, bound):
    """`bruteforce_dominating_search` with its domination probe on whole
    steps: (the family found, the candidates checked)."""
    window, checked = max(10, 2 * bound), 0
    for cand in oracles._candidate_families(x, bound):
        checked += 1
        try:
            cert = decide_monotone_limit(cand)
        except NotDecreasingError:
            continue
        if cert.converges and all(le(abs_(eval_seq(x, n)), eval_seq(cand, n))
                                  for n in range(1, window + 1)):
            return cand, checked
    return None, checked


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label)
def test_dominating_search_probe_agrees_with_whole_step_comparisons(space):
    """The draws, and bare moving atoms, which a march candidate dominates
    on l0inf."""
    rng = random.Random(24)
    subjects = [x for _, x in _draws(24, space, 12)]
    if space.kind.value != "fin_dim":
        subjects += [element_seq(space, atoms=[(_form(rng, space, True), RationalSeq.const(c))])
                     for c in (1, -2, Q(1, 2))]
    outcomes = set()
    for x in subjects:
        want = _outcome(lambda: _naive_search(x, 4))
        got = _outcome(lambda: (lambda r: (r.found, r.candidates_checked))(
            bruteforce_dominating_search(x, 4)))
        assert got == want, x
        outcomes.add(want[0] == "ok" and want[1][0] is not None)
    if space.kind.value == "tail_seq":
        assert outcomes == {True, False}


def _coordinates_read(monkeypatch) -> list:
    """A counter of the coordinates the walks read: the parts of each step
    built whole, and the coordinates of each step read by difference."""
    count = [0]
    moving, step = sequences.moving_parts, sequences.StepWalk.step

    def counting_moving(seq, n):
        parts = moving(seq, n)
        count[0] += len(parts)
        return parts

    def counting_step(walk, n):
        moved = step(walk, n)
        count[0] += len(moved)
        return moved

    monkeypatch.setattr(sequences, "moving_parts", counting_moving)
    monkeypatch.setattr(sequences.StepWalk, "step", counting_step)
    return count


def _slope(windows, counts) -> float:
    """The least-squares slope of log(count) over log(window)."""
    xs, ys = [math.log(w) for w in windows], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((a - mx) * (b - my) for a, b in zip(xs, ys))
            / sum((a - mx) ** 2 for a in xs))


@pytest.mark.parametrize("space, line", [(tail_seq(), seq_form), (fin_dev(), token_form)],
                         ids=["l0inf", "ck"])
def test_probe_walks_read_coordinates_linear_in_the_window(monkeypatch, space, line):
    """On the march family (fill form(1, 0), lag 2, ambient 1) and on a
    moving atom, `check_decreasing` and the verifier's walks read a number
    of coordinates whose log-log slope over windows 13 to 517 is at most
    1.15: each step reads what it changes, not the whole step."""
    march = element_seq(space, fills=[fill(line(1, 0), 1, 0, 1, 2, -1)],
                        ambient=RationalSeq.const(1))
    bump = element_seq(space, atoms=[(line(1, 0), RationalSeq.const(1))])
    origin = zero(space)
    mono, order = decide_monotone_limit(march), decide_order_convergence(bump, origin)
    walks = {
        "check_decreasing on the march": (march, lambda p: check_decreasing(march, p)),
        "verifier on the march": (march, lambda p: verify_certificate(mono, march, None, p)[0]),
        "verifier on the moving atom": (
            normalize(bump), lambda p: verify_certificate(order, bump, origin, p)[0]),
    }
    count = _coordinates_read(monkeypatch)
    windows = (13, 69, 261, 517)
    for name, (subject, run) in walks.items():
        counts = []
        for window in windows:
            count[0] = 0
            assert run(window - structural_threshold(subject))
            counts.append(count[0])
        assert _slope(windows, counts) <= 1.15, (name, counts)


@pytest.mark.parametrize("space, line", [(tail_seq(), seq_form), (fin_dev(), token_form)],
                         ids=["l0inf", "ck"])
def test_a_walk_reads_a_constant_coefficient_once_its_prefix_has_passed(monkeypatch, space, line):
    """A 400-step walk of a one-atom sequence, stationary or moving, calls
    `RationalSeq.at` on the atom's constant coefficient at most prefix + 2
    times: past the prefix the walk reads its tail."""
    calls = []
    at = RationalSeq.at

    def counting(seq, n):
        calls.append(seq)
        return at(seq, n)

    monkeypatch.setattr(RationalSeq, "at", counting)
    bound = scale(4, unit(space))
    for coeff in (RationalSeq.const(1), RationalSeq.steps([3, -2], 1)):
        for form in (line(0, 2), line(1, 0)):
            x = element_seq(space, atoms=[(form, coeff)])
            calls.clear()
            assert sequences.walk_failure(qabs_le, x, bound, 1, 400) is None
            assert sum(c is coeff for c in calls) <= len(coeff.prefix) + 2, (form, coeff)


LATE_OUT_OF_RANGE = [
    # two atoms that start at step 3, out of range there: the first index in
    # atom order is the one reported
    (tail_seq(), [(seq_form(1, -5), RationalSeq.steps([0, 0], -1)),
                  (seq_form(1, -4), RationalSeq.steps([0, 0], -1))], []),
    # a stationary atom past the dimension that starts at step 2
    (fin_dim(4), [(seq_form(0, 5), RationalSeq.steps([0], -1))], []),
    # a fill whose first hit, at step 3, is out of range
    (tail_seq(), [], [fill(seq_form(1, -2), 1, 0, 1, 2, -1)]),
]


@pytest.mark.parametrize("space, atoms, fills", LATE_OUT_OF_RANGE,
                         ids=["atoms", "dimension", "fill"])
def test_an_index_out_of_range_at_a_later_step_raises_as_whole_steps_do(space, atoms, fills):
    """A step read by difference checks the indices it touches, so an index
    out of range first stored at a later step raises there, with the whole
    step's error, in every walk."""
    x = element_seq(space, atoms=atoms, fills=fills)
    window = structural_threshold(x) + 8
    want = _outcome(lambda: _naive_decreasing(x, 8))
    assert want[0] == "InvalidIndexError"
    assert _outcome(lambda: check_decreasing(x, 8)) == want
    bound = ConvergenceCertificate(verdict=CONVERGES, space=space, dominating=element_seq(space),
                                   order_bound=unit(space))
    want = _outcome(lambda: [le(abs_(eval_seq(x, n)), unit(space)) for n in range(1, window + 1)])
    assert _outcome(lambda: verify_certificate(bound, x, None, 8)) == want
    below = ConvergenceCertificate(verdict=DIVERGES, space=space, mode="monotone",
                                   minorant=scale(-2, unit(space)))
    assert _outcome(lambda: verify_certificate(below, x, None, 8)) == want
    assert want[0] == "InvalidIndexError"


ONE = RationalSeq.const(1)


@pytest.mark.parametrize("space, atoms, fills", LATE_OUT_OF_RANGE + [
    # a moving pair atom on row 0 at step 1, which no prelude hides
    (row_block_ek(), [(pair_form(1, -1, 0, 1), ONE)], []),
    # a negative slope: index 0 at step 5
    (tail_seq(), [(seq_form(-1, 5), ONE)], []),
    # a moving atom on findim(4): index 5 at step 5
    (fin_dim(4), [(seq_form(1, 0), ONE)], []),
    # a half slope, not integral at step 2
    (tail_seq(), [(seq_form(Q(1, 2), Q(1, 2)), ONE)], []),
    # a negative slope that leaves the index set far out, at step 100
    (tail_seq(), [(seq_form(-1, 100), ONE)], []),
    # fills past the dimension at step 4, and not integral at step 2
    (fin_dim(3), [], [fill(seq_form(1, 0), 1, 0, 1, 0, 1)]),
    (tail_seq(), [], [fill(seq_form(Q(1, 2), Q(1, 2)), 1, 0, 1, 0, 1)]),
], ids=["atoms", "dimension", "fill", "row", "negative-slope", "moving-on-findim",
        "half-slope", "far", "fill-dimension", "fill-half-slope"])
def test_the_decider_raises_what_the_first_bad_whole_step_raises(space, atoms, fills):
    """A sequence whose symbolic steps hold an index out of range is no
    sequence of elements: the order-convergence decider and the certificate
    verifier raise the error of the first such step instead of certifying
    it, however late the step."""
    x = element_seq(space, atoms=atoms, fills=fills)
    want = _outcome(lambda: [eval_seq(x, n) for n in range(1, structural_threshold(x) + 109)])
    assert want[0] == "InvalidIndexError"
    assert _outcome(lambda: decide_order_convergence(x, zero(space))) == want
    cert = ConvergenceCertificate(verdict=CONVERGES, space=space, dominating=element_seq(space),
                                  order_bound=unit(space))
    assert _outcome(lambda: verify_certificate(cert, x, zero(space))) == want


def test_a_form_that_leaves_the_index_set_where_its_coefficient_vanishes_is_read_nowhere():
    """-n + 5 reaches index 0 at step 5, but its coefficient is 0 from step 3
    on: every step is an element, and the decider's certificate verifies."""
    x = element_seq(tail_seq(), atoms=[(seq_form(-1, 5), RationalSeq.steps([1, 1], 0))])
    assert all(in_base_space(eval_seq(x, n)) for n in range(1, 20))
    cert = decide_order_convergence(x, zero(tail_seq()))
    assert cert.verdict == CONVERGES and verify_certificate(cert, x, zero(tail_seq()))[0]

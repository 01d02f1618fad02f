"""Cross-checks of the decision rules against brute evaluation."""

from __future__ import annotations

import random

from rieszkit.scalars import Q, RationalSeq
from rieszkit.spaces import fin_dev, gamma, seq_form, tail_seq, token_form
from rieszkit.elements import atom, coordinate, describe, le, scale, sub, unit, zero
from rieszkit.sequences import element_seq, eval_seq, fill
from rieszkit.convergence import _pattern_witness, decide_order_convergence
from rieszkit.operators import apply_op, atom_image
from rieszkit.calculus import order_continuity_test
from rieszkit.casebook import _random_stencil_operator, moving_indicator_operator

from conftest import ALL_SPACES, random_pattern
from test_completion import FRESH, _described

T = tail_seq()
F = fin_dev()


def _random_tail_sequence(rng: random.Random):
    """A random symbolic sequence over the eventually constant space."""
    atoms = []
    for _ in range(rng.randint(0, 2)):
        a = rng.choice([0, 1, 2])
        b = rng.randint(1, 3)
        kind = rng.choice(["const", "steps", "harmonic"])
        if kind == "const":
            coeff = RationalSeq.const(Q(rng.randint(-2, 2)))
        elif kind == "steps":
            coeff = RationalSeq.steps(
                [Q(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))],
                Q(rng.randint(-1, 1)),
            )
        else:
            coeff = RationalSeq.harmonic(Q(rng.randint(-2, 2)))
        if a == 0 or kind != "harmonic":
            atoms.append((seq_form(a, b), coeff))
    fills = []
    if rng.random() < 0.4:
        fills.append(fill(seq_form(1, 0), 1, 0, 1, 0, Q(rng.randint(-1, 1))))
    amb = RationalSeq.steps(
        [Q(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))], Q(rng.randint(-1, 1))
    )
    try:
        return element_seq(T, atoms=atoms, fills=fills, ambient=amb)
    except Exception:
        return element_seq(T)


def _two_point_limit(a: Q, b: Q, n1: int, n2: int) -> Q:
    """Limit of a value sequence sampled past every structural transition.

    Beyond the threshold a coordinate's value is base + c/n; two samples
    recover base exactly (equal samples mean the value has settled)."""
    if a == b:
        return a
    c = (a - b) / (Q(1, n1) - Q(1, n2))
    return a - c / n1


def test_order_convergence_matches_brute_coordinates():
    """The symbolic verdict agrees with coordinatewise inspection at steps
    past every structural transition."""
    from rieszkit.sequences import structural_threshold

    rng = random.Random(77)
    for _ in range(80):
        seq = _random_tail_sequence(rng)
        limit = scale(Q(rng.randint(-1, 1)), unit(T))
        cert = decide_order_convergence(seq, limit)
        far = structural_threshold(seq) + 40
        x1, x2 = eval_seq(seq, far), eval_seq(seq, far + 7)
        brute_ok = True
        for i in range(1, 9):
            got = _two_point_limit(coordinate(x1, i), coordinate(x2, i), far, far + 7)
            if got != coordinate(limit, i):
                brute_ok = False
                break
        if brute_ok and not seq.fills:
            # the untouched-coordinate class settles at the tail value
            brute_ok = x1.tail == limit.tail
        assert cert.converges == brute_ok, (seq, limit, cert.verdict)


def test_sigma_net_harness():
    """Order continuity implies the image of every representable monotone
    null family is order null (necessary-condition harness)."""
    rng = random.Random(88)
    tested = 0
    while tested < 25:
        op_ = _random_stencil_operator(rng, positive=True)
        ok, _ = order_continuity_test(op_)
        if not ok:
            continue
        # x_n = (unit minus the first n atoms): decreasing to zero
        probe = 7
        for n in range(1, probe + 1):
            x = unit(T)
            for k in range(1, n + 1):
                x = sub(x, atom(T, k))
            img = apply_op(op_, x)
            # the images must shrink below every fixed coordinate eventually:
            # evaluate the claimed limit behavior coordinatewise
            if n == probe:
                for i in range(1, 5):
                    far_x = unit(T)
                    for k in range(1, 30):
                        far_x = sub(far_x, atom(T, k))
                    assert coordinate(apply_op(op_, far_x), i) == 0
        tested += 1


def _random_findev_sequence(rng: random.Random):
    atoms = []
    for _ in range(rng.randint(0, 2)):
        a = rng.choice([0, 1, 2])
        b = rng.randint(1, 3)
        kind = rng.choice(["const", "steps", "harmonic"])
        if kind == "const":
            coeff = RationalSeq.const(Q(rng.randint(-2, 2)))
        elif kind == "steps":
            coeff = RationalSeq.steps(
                [Q(rng.randint(-2, 2))], Q(rng.randint(-1, 1))
            )
        else:
            coeff = RationalSeq.harmonic(Q(rng.randint(-2, 2)))
        atoms.append((token_form(a, b), coeff))
    amb = RationalSeq.steps([Q(rng.randint(-2, 2))], Q(rng.randint(-1, 1)))
    static_entries = {
        gamma(k): Q(rng.randint(-2, 2)) for k in rng.sample(range(1, 5), rng.randint(0, 2))
    }
    from rieszkit.elements import element_findev

    static = element_findev(F, static_entries, Q(rng.randint(-1, 1)))
    try:
        return element_seq(F, static=static, atoms=atoms, ambient=amb)
    except Exception:
        return element_seq(F)


def test_findev_order_rule_matches_brute_samples():
    """The uncountable-index rule (touched coordinates converge AND the
    ambient class converges) agrees with sampled evaluation."""
    from rieszkit.sequences import structural_threshold
    from rieszkit.spaces import fresh_star

    from rieszkit.completion import collapse
    from rieszkit.sequences import eventual_pattern

    rng = random.Random(99)
    verdicts = {"converges": 0, "diverges": 0}
    for k in range(80):
        seq = _random_findev_sequence(rng)
        from rieszkit.elements import element_findev

        if k % 2 == 0:
            # aim at the sequence's own settled element: mostly converges
            target = collapse(eventual_pattern(seq))
            if target is None:
                continue
            limit = target
        else:
            limit = element_findev(
                F, {gamma(1): Q(rng.randint(-1, 1))}, Q(rng.randint(-1, 1))
            )
        cert = decide_order_convergence(seq, limit)
        verdicts[cert.verdict] += 1
        far = structural_threshold(seq) + 30
        x1, x2 = eval_seq(seq, far), eval_seq(seq, far + 7)
        brute_ok = True
        probes = [gamma(k) for k in range(1, 7)]
        probes.append(fresh_star([]))  # an untouched point sees the ambient class
        for tok in probes:
            got = _two_point_limit(
                coordinate(x1, tok), coordinate(x2, tok), far, far + 7
            )
            if got != coordinate(limit, tok):
                brute_ok = False
                break
        assert cert.converges == brute_ok, (seq, limit, cert.verdict)
    assert min(verdicts.values()) > 10  # both outcomes well represented


def test_findev_monotone_rule_matches_brute_samples():
    """Monotone families over the uncountable index vanish iff the sampled
    coordinates and the ambient class all reach 0."""
    from rieszkit.errors import NotDecreasingError
    from rieszkit.sequences import structural_threshold
    from rieszkit.spaces import fresh_star
    from rieszkit.convergence import decide_monotone_limit

    rng = random.Random(101)
    seen = {"converges": 0, "diverges": 0}
    trials = 0
    while trials < 60:
        amb_head = Q(rng.randint(1, 3))
        amb_tail = Q(rng.choice([0, 0, 1]))
        atoms = []
        if rng.random() < 0.7:
            c_head = Q(rng.randint(0, 2))
            c_tail = Q(rng.choice([0, 1])) if rng.random() < 0.5 else Q(0)
            kind = rng.choice(["steps", "harmonic"])
            coeff = (
                RationalSeq.steps([max(c_head, c_tail)], min(c_head, c_tail))
                if kind == "steps"
                else RationalSeq.harmonic(c_head)
            )
            atoms.append((token_form(0, rng.randint(1, 3)), coeff))
        b = element_seq(
            F, atoms=atoms, ambient=RationalSeq.steps([amb_head], min(amb_head, amb_tail))
        )
        try:
            cert = decide_monotone_limit(b)
        except NotDecreasingError:
            continue
        trials += 1
        seen[cert.verdict] += 1
        far = structural_threshold(b) + 30
        x1, x2 = eval_seq(b, far), eval_seq(b, far + 7)
        brute_ok = True
        for tok in [gamma(k) for k in range(1, 5)] + [fresh_star([])]:
            got = _two_point_limit(
                coordinate(x1, tok), coordinate(x2, tok), far, far + 7
            )
            if got != 0:
                brute_ok = False
                break
        assert cert.converges == brute_ok
    assert min(seen.values()) > 5


def test_rowblock_order_rule_matches_brute_samples():
    """Pair-indexed sequences: the verdict agrees with sampled cells."""
    from rieszkit.spaces import pair_form, row_block_ek
    from rieszkit.sequences import structural_threshold
    from rieszkit.elements import element_rowblock

    rng = random.Random(123)
    E = row_block_ek()
    verdicts = {"converges": 0, "diverges": 0}
    for k in range(60):
        atoms = []
        for _ in range(rng.randint(0, 2)):
            ra, ca = rng.choice([(1, 0), (0, 1), (1, 1), (0, 0)])
            rb, cb = rng.randint(1, 2), rng.randint(1, 2)
            kind = rng.choice(["const", "harmonic", "steps"])
            if kind == "const":
                coeff = RationalSeq.const(Q(rng.randint(-2, 2)))
            elif kind == "steps":
                coeff = RationalSeq.steps([Q(rng.randint(-2, 2))], Q(rng.randint(-1, 1)))
            else:
                coeff = RationalSeq.harmonic(Q(rng.randint(-2, 2)))
            atoms.append((pair_form(ra, rb, ca, cb), coeff))
        static = element_rowblock(
            E,
            [([Q(rng.randint(-1, 1))], Q(rng.randint(-1, 1)))]
            if rng.random() < 0.5
            else [],
            Q(rng.randint(-1, 1)),
        )
        amb = RationalSeq.steps([Q(rng.randint(-1, 1))], Q(rng.randint(-1, 1)))
        try:
            seq = element_seq(E, static=static, atoms=atoms, ambient=amb)
        except Exception:
            continue
        if k % 2 == 0:
            from rieszkit.completion import collapse
            from rieszkit.sequences import eventual_pattern

            limit = collapse(eventual_pattern(seq))
            if limit is None:
                continue
        else:
            limit = element_rowblock(E, [], Q(rng.randint(-1, 1)))
        cert = decide_order_convergence(seq, limit)
        verdicts[cert.verdict] += 1
        # sample beyond every probed cell so moving atoms cannot sit on one
        far = max(structural_threshold(seq) + 30, 50)
        x1, x2 = eval_seq(seq, far), eval_seq(seq, far + 7)
        brute_ok = True
        for cell in [(n, m) for n in range(1, 5) for m in range(1, 5)] + [(40, 40)]:
            got = _two_point_limit(
                coordinate(x1, cell), coordinate(x2, cell), far, far + 7
            )
            if got != coordinate(limit, cell):
                brute_ok = False
                break
        assert cert.converges == brute_ok, (seq, limit, cert.verdict)
    assert min(verdicts.values()) > 5


def test_moving_indicator_images_are_order_null():
    """The operator's images of the monotone family unit-minus-atoms form
    exactly the moving indicator, which the decider certifies as order null."""
    Tm = moving_indicator_operator()
    seq = element_seq(F, atoms=[(token_form(1, 0), RationalSeq.const(1))])
    for n in range(1, 9):
        x = unit(T)
        for k in range(1, n + 1):
            x = sub(x, atom(T, k))
        assert apply_op(Tm, scale(-1, x)) == eval_seq(seq, n)
    cert = decide_order_convergence(seq, zero(F))
    assert cert.converges


def test_pattern_witness_names_a_coordinate_of_its_class(rng):
    """The divergence witness of a nonzero pattern reads its value at its
    coordinate (a fresh point when the class is the ambient)."""
    for space in ALL_SPACES:
        for _ in range(40):
            ce = random_pattern(rng, space)[0]
            coord, value, _ = _pattern_witness(ce)
            if ce.is_zero():
                assert (coord, value) == (None, 0)
            else:
                assert value != 0
                at = _described(describe(ce))
                assert at(FRESH if coord is None else coord) == value

"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is exact (the engine is rational arithmetic end to end);
the runtime criteria are asserted with wall-clock budgets.
"""

from __future__ import annotations

import random
import time

from rieszkit.scalars import Q, RationalSeq
from rieszkit.spaces import (
    fin_dev,
    fin_dim,
    gamma,
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
    inf2,
    le,
    neg,
    pos,
    scale,
    sub,
    sup2,
    unit,
    zero,
)
from rieszkit.completion import collapse
from rieszkit.sequences import element_seq, eval_seq
from rieszkit.convergence import (
    decide_order_convergence,
    o1_dominating_obstruction,
    verify_certificate,
)
from rieszkit.operators import (
    add_op,
    atom_image,
    functional,
    is_positive_operator,
    op_eq,
    operator,
    order_bounded_test,
    partial_sum_seq,
    rank_one,
    stencil_rule,
)
from rieszkit.calculus import (
    oc_projection,
    order_continuity_test,
    pervasive_witness,
    positive_part,
    rk_value,
    verify_witness,
)
from rieszkit.oracles import (
    bruteforce_dominating_search,
    grid_interval_sup,
    majorant_growth_probe,
    matrix_positive_part,
)
from rieszkit.casebook import (
    _random_stencil_operator,
    limit_functional_rank_one,
    moving_indicator_operator,
    run_bounded_not_regular,
    run_not_directed,
)

from conftest import ALL_SPACES, random_element

T = tail_seq()
F = fin_dev()


def _random_bounded_stencil_op(rng: random.Random, codomain):
    """Order-bounded operator with a nontrivial tail rule, any sign."""
    while True:
        threshold = rng.randint(1, 3)
        images = {}
        for i in range(1, threshold + 1):
            if codomain.kind.value == "fin_dev":
                toks = rng.sample(range(1, 6), rng.randint(0, 2))
                images[i] = element_findev(
                    codomain, {gamma(k): Q(rng.randint(-3, 3)) for k in toks}, 0
                )
            else:
                width = rng.randint(0, 3)
                images[i] = element_tail(
                    codomain, [Q(rng.randint(-3, 3)) for _ in range(width)], 0
                )
        q = rng.choice([1, 2])
        entries = []
        for r in range(q):
            es = []
            for _ in range(rng.randint(0, 2)):
                a = rng.choice([1, 2])
                b = rng.randint(0, 3)
                c = Q(rng.randint(-3, 3))
                if c == 0:
                    continue
                form = (
                    token_form(a, b)
                    if codomain.kind.value == "fin_dev"
                    else seq_form(a, b)
                )
                es.append((form, c))
            entries.append(es)
        try:
            rule = stencil_rule(q, threshold, entries, codomain)
        except Exception:
            continue
        if codomain.kind.value == "fin_dev":
            unit_img = element_findev(codomain, {gamma(1): Q(rng.randint(-2, 2))}, 0)
        else:
            unit_img = element_tail(codomain, [Q(rng.randint(-2, 2))], 0)
        op_ = operator(T, codomain, images, rule, None, unit_img)
        if order_bounded_test(op_).bounded:
            return op_


def test_criterion_1_lattice_laws():
    start = time.time()
    rng = random.Random(1)
    for space in ALL_SPACES:
        elems = [random_element(rng, space) for _ in range(500)]
        z = zero(space)
        for i in range(500):
            x = elems[i]
            y = elems[(i * 7 + 3) % 500]
            w = elems[(i * 13 + 11) % 500]
            assert sup2(x, y) == sup2(y, x)
            assert inf2(x, y) == inf2(y, x)
            assert sup2(sup2(x, y), w) == sup2(x, sup2(y, w))
            assert sup2(x, inf2(x, y)) == x
            assert inf2(x, sup2(x, y)) == x
            assert inf2(x, sup2(y, w)) == sup2(inf2(x, y), inf2(x, w))
            assert sub(pos(x), neg(x)) == x
            assert add(pos(x), neg(x)) == abs_(x)
            assert inf2(pos(x), neg(x)) == z
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: lattice laws on 500 elements x {len(ALL_SPACES)} kinds "
          f"({elapsed:.1f}s)")


def test_criterion_2_matrix_positive_part_agreement():
    rng = random.Random(2)
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        M = [
            [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
        dom, cod = fin_dim(n), fin_dim(m)
        op_ = operator(
            dom,
            cod,
            {j + 1: element_fin(cod, [M[i][j] for i in range(m)]) for j in range(n)},
        )
        cand, _, in_f = positive_part(op_)
        assert in_f
        P = matrix_positive_part(M)
        for j in range(n):
            assert dict(cand.atom_images)[j + 1] == element_fin(
                cod, [P[i][j] for i in range(m)]
            )
    print("PASS criterion 2: positive part equals the entrywise oracle on 200 matrices")


def test_criterion_3_unit_closed_form_vs_grid():
    rng = random.Random(3)
    for _ in range(50):
        coeffs = {
            i + 1: Q(rng.randint(-8, 8), rng.randint(1, 2))
            for i in range(rng.randint(0, 4))
        }
        s = Q(rng.randint(-8, 8), rng.randint(1, 2))
        f = functional(T, coeffs, s)
        closed = coordinate(rk_value(f, unit(T)), 1)
        scale_bound = sum((abs(v) for v in coeffs.values()), Q(0)) + abs(s)
        for depth in range(7):
            grid = coordinate(grid_interval_sup(f, unit(T), depth), 1)
            assert grid <= closed
            assert closed - grid <= scale_bound / 2**depth
    print("PASS criterion 3: unit closed form dominates the grid oracle, "
          "gap within 2^-depth scale, 50 functionals x depths 0..6")


def test_criterion_4_atom_positive_part_identity():
    rng = random.Random(4)
    for k in range(100):
        codomain = F if k % 2 == 0 else T
        op_ = _random_bounded_stencil_op(rng, codomain)
        top = (op_.rule.threshold if op_.rule else 0) + 4
        for i in range(1, top + 1):
            got = collapse(rk_value(op_, atom(T, i)))
            assert got == pos(atom_image(op_, i))
    print("PASS criterion 4: interval supremum on every atom equals the "
          "positive part of its image, 100 stencil operators")


def test_criterion_5_partial_sum_criterion_reproduction():
    Tm = moving_indicator_operator()
    ok, cert = order_continuity_test(Tm)
    assert ok
    s = partial_sum_seq(Tm)
    # the certificate's subject is exactly the moving indicator
    assert len(s.atoms) == 1 and not s.fills and s.static.is_zero()
    form, coeff = s.atoms[0]
    assert str(form) == "g(n)" and coeff == RationalSeq.const(1)
    okv, log = verify_certificate(cert, s, zero(F))
    assert okv, log

    R = limit_functional_rank_one()
    ok2, cert2 = order_continuity_test(R)
    assert not ok2
    okv2, log2 = verify_certificate(cert2, partial_sum_seq(R), R.unit_image)
    assert okv2, log2
    print("PASS criterion 5: partial-sum criterion true for the moving-indicator "
          "operator, false for the limit-functional tensor; certificates re-verify")


def test_criterion_6_asymmetry_of_convergence_notions():
    x = element_seq(F, atoms=[(token_form(1, 0), RationalSeq.const(1))])
    cert = decide_order_convergence(x, zero(F))
    assert cert.converges
    okc, _ = verify_certificate(cert, x, zero(F))
    assert okc
    search = bruteforce_dominating_search(x, bound=6)
    assert search.found is None
    obstruction = o1_dominating_obstruction(x)
    assert obstruction.minorant is not None
    star = obstruction.minorant.entries[0][0]
    assert star.family == "star"
    oko, log = verify_certificate(obstruction, x)
    assert oko, log
    print("PASS criterion 6: moving indicator order converges, no same-index "
          "dominating family at size 6, fresh-point minorant re-verifies")


def test_criterion_7_not_directed_end_to_end():
    rep = run_not_directed()
    assert rep.verdict == "not directed"
    assert rep.details["order_bound"] == scale(2, unit(F))
    print("PASS criterion 7: directedness counterexample end-to-end with the "
          "exact bound of twice the unit")


def test_criterion_8_bounded_not_regular_end_to_end():
    start = time.time()
    rep = run_bounded_not_regular()
    assert "order bounded" in rep.verdict and "order continuous" in rep.verdict
    assert rep.details["positive_part_in_space"] is False
    mu = rep.oracle["majorant_floor"]
    for n in range(9):
        assert mu[str(n)] >= Q(n, 2)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"PASS criterion 8: bounded-not-regular end-to-end, floors grow "
          f">= level/2 up to 8 ({elapsed:.1f}s)")


def test_criterion_9_projection_band_laws():
    rng = random.Random(9)
    for k in range(100):
        positive = k % 2 == 0
        op_ = _random_stencil_operator(rng, positive=positive)
        P = oc_projection(op_)
        assert op_eq(oc_projection(P), P)
        if positive:
            assert le(zero(T), P.unit_image)
            assert le(P.unit_image, op_.unit_image)
        other = _random_stencil_operator(rng, positive=True)
        assert op_eq(
            oc_projection(add_op(op_, other)),
            add_op(P, oc_projection(other)),
        )
        assert (P.unit_image == op_.unit_image) == order_continuity_test(op_)[0]
    print("PASS criterion 9: projection idempotent, additive, squeezed for "
          "positive input, fixed exactly on the order-continuous ones (100 operators)")


def test_criterion_10_pervasiveness_witnesses():
    rng = random.Random(10)
    produced = 0
    while produced < 100:
        kind = produced % 3
        if kind == 0:
            op_ = _random_stencil_operator(rng, positive=True)
            if not any(not img.is_zero() for _, img in op_.atom_images) and (
                op_.rule is None or op_.rule.is_zero()
            ) and op_.unit_image.is_zero():
                continue
        elif kind == 1:
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            dom, cod = fin_dim(n), fin_dim(m)
            cols = {
                j + 1: element_fin(cod, [Q(rng.randint(0, 3)) for _ in range(m)])
                for j in range(n)
            }
            op_ = operator(dom, cod, cols)
            if all(v.is_zero() for v in cols.values()):
                continue
        else:
            coeffs = {i + 1: Q(rng.randint(0, 2)) for i in range(rng.randint(0, 3))}
            slack = Q(rng.randint(0, 2))
            uval = sum(coeffs.values(), Q(0)) + slack
            f = functional(T, coeffs, uval)
            toks = rng.sample(range(1, 5), rng.randint(1, 2))
            v = element_findev(F, {gamma(t): Q(rng.randint(1, 3)) for t in toks}, 0)
            op_ = rank_one(f, v)
            if uval == 0 and not coeffs:
                continue
        if not is_positive_operator(op_):
            continue
        try:
            w = pervasive_witness(op_)
        except Exception:
            continue
        ok, log = verify_witness(w.operator, op_)
        assert ok, log
        produced += 1
    print("PASS criterion 10: 100 positive operators each yield a verified "
          "rank-one minorant")

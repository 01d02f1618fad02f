from __future__ import annotations

import functools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from rieszkit.scalars import Q
from rieszkit.spaces import SpaceDesc, Token, fin_dim, fin_dev, gamma, row_block_ek, row_block_grid, tail_seq
from rieszkit.elements import (
    Element,
    add,
    element_fin,
    element_findev,
    element_rowblock,
    element_tail,
    zero,
)
from rieszkit.completion import pattern_from_pieces
from rieszkit.operators import Operator, operator

ALL_SPACES = [fin_dim(4), tail_seq(), fin_dev(), row_block_ek(), row_block_grid()]

# the constructor, the arithmetic, equality and the order comparisons of Fraction
FRACTION_METHODS = ("__new__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__pos__", "__neg__",
                    "__abs__", "__int__", "__trunc__", "__floor__", "__ceil__", "__round__",
                    *(f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv", "floordiv",
                                                "mod", "divmod", "pow") for r in ("", "r")))


@contextmanager
def fraction_calls(methods=FRACTION_METHODS):
    """Count the calls of `methods` of Fraction while the block runs;
    yields a one-item list holding the count.  Python 3.12 and later build
    an arithmetic result without `Fraction.__new__`, so counting the
    constructor alone misses it there."""
    count = [0]
    saved = {name: Fraction.__dict__[name] for name in methods if name in Fraction.__dict__}

    def counted(f):
        @functools.wraps(f)
        def call(*args, **kwargs):
            count[0] += 1
            return f(*args, **kwargs)
        return call

    for name, f in saved.items():
        setattr(Fraction, name, staticmethod(counted(f.__func__)) if name == "__new__"
                else counted(f))
    try:
        yield count
    finally:
        for name, f in saved.items():
            setattr(Fraction, name, f)


def zero_op(domain: SpaceDesc, codomain: SpaceDesc) -> Operator:
    """The zero operator: no table, no rule, and the zero unit image."""
    return operator(domain, codomain, {}, None, None, zero(codomain))


def loglog_slope(sizes, counts) -> float:
    """The least-squares slope of log(count) over log(size)."""
    xs, ys = [math.log(w) for w in sizes], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((a - mx) * (b - my) for a, b in zip(xs, ys))
            / sum((a - mx) ** 2 for a in xs))


def random_scalar(rng: random.Random, span: int = 6) -> Q:
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Q(num, den)


def random_element(rng: random.Random, space: SpaceDesc) -> Element:
    if space.dim:
        return element_fin(space, [random_scalar(rng) for _ in range(space.dim)])
    if space.row.sequence:
        width = rng.randint(0, 4)
        return element_tail(
            space, [random_scalar(rng) for _ in range(width)], random_scalar(rng)
        )
    if space.row.shape == "fin_dev":
        toks = rng.sample(range(1, 8), rng.randint(0, 3))
        return element_findev(
            space,
            {gamma(k): random_scalar(rng) for k in toks},
            random_scalar(rng),
        )
    tail = random_scalar(rng)
    rows = []
    for _ in range(rng.randint(0, 3)):
        width = rng.randint(0, 3)
        rtail = random_scalar(rng) if space.row_units else tail
        rows.append(([random_scalar(rng) for _ in range(width)], rtail))
    return element_rowblock(space, rows, tail)


def random_pattern(rng: random.Random, space: SpaceDesc):
    """(completion element, base, pieces): a random base plus up to three
    random pieces with steps 0..4, built by `pattern_from_pieces`.  ck bases
    also store star tokens, which the line pieces never touch."""
    base = random_element(rng, space)
    if space.row.shape == "fin_dev":
        stars = {Token("star", k): random_scalar(rng) for k in rng.sample(range(1, 5), 2)}
        base = add(base, element_findev(space, stars, 0))
    pieces = []
    for _ in range(rng.randint(0, 3)):
        v = random_scalar(rng)
        if space.dim:
            pieces.append((0, rng.randint(1, space.dim), v))
        elif space.row.shape == "row_block":
            pieces.append((rng.randint(0, 4), rng.randint(1, 4), rng.randint(0, 4),
                           rng.randint(1, 4), v))
        else:
            pieces.append((rng.randint(0, 4), rng.randint(1, 5), v))
    return pattern_from_pieces(space, base, pieces), base, pieces


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)

"""Representable fragment of the order completion.

A completion element carries an element payload (see `elements`) whose
residue tuples may be longer than one: past the explicit entries the values
repeat by residue class instead of settling.  This fragment is closed under
the sums, positive parts and limits the engine produces (local finiteness of
tail rules keeps every coordinate's contribution list finite).  The space
sits inside it as the modulus-1 payloads, so `embed` only tags its argument
and membership (`in_space`, `collapse`) is the modulus check
`elements.in_base_space`.  The lattice operations are the element walkers,
which align residues by absolute index.

`pattern_from_pieces` builds a pattern from a base element plus
arithmetic-progression pieces; `describe_pattern` is the report format,
which each payload shape of `elements` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .scalars import QLike
from .spaces import SpaceDesc
from .elements import (
    Element,
    add,
    describe,
    in_base_space,
    is_positive,
    le,
    piece_element,
    pos,
    scale,
    sub,
    sup2,
    zero,
)


@dataclass(frozen=True)
class CompletionElement:
    """An element payload read in the completion of its space."""

    pat: Element

    def is_zero(self) -> bool:
        return self.pat.is_zero()


def pattern_from_pieces(space: SpaceDesc, base: Element, pieces) -> CompletionElement:
    """base plus arithmetic-progression pieces, as a completion element.

    A line piece (step, first, value) adds value at the indices first,
    first + step, ... of the coordinate line (the integers of tail_seq and
    fin_dim, the g tokens of fin_dev).  A row-block piece (row_step,
    row_first, col_step, col_first, value) adds it at every cell whose row
    and column lie on the two progressions.  Step 0 means the one index
    first.
    """
    return CompletionElement(reduce(add, (piece_element(space, p) for p in pieces), base))


def embed(x: Element) -> CompletionElement:
    return CompletionElement(x)


def embed_zero(space: SpaceDesc) -> CompletionElement:
    return CompletionElement(zero(space))


def ce_add(a: CompletionElement, b: CompletionElement) -> CompletionElement:
    return CompletionElement(add(a.pat, b.pat))


def ce_sub(a: CompletionElement, b: CompletionElement) -> CompletionElement:
    return CompletionElement(sub(a.pat, b.pat))


def ce_sup(a: CompletionElement, b: CompletionElement) -> CompletionElement:
    return CompletionElement(sup2(a.pat, b.pat))


def ce_scale(c: QLike, a: CompletionElement) -> CompletionElement:
    return CompletionElement(scale(c, a.pat))


def ce_pos(a: CompletionElement) -> CompletionElement:
    return CompletionElement(pos(a.pat))


def ce_le(a: CompletionElement, b: CompletionElement) -> bool:
    return le(a.pat, b.pat)


def ce_is_nonneg(a: CompletionElement) -> bool:
    return is_positive(a.pat)


def in_space(a: CompletionElement) -> bool:
    return in_base_space(a.pat)


def collapse(a: CompletionElement) -> Element | None:
    """The element of the base space the pattern denotes, if it is one."""
    return a.pat if in_base_space(a.pat) else None


def describe_pattern(a: CompletionElement) -> dict:
    """JSON-friendly description with deterministic ordering (see
    `elements.describe`)."""
    return describe(a.pat)

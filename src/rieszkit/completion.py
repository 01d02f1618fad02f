"""Representable fragment of the order completion.

A completion payload is an element payload (see `elements`) whose residue
tuples may be longer than one: past the explicit entries the values repeat
by residue class instead of settling.  This fragment is closed under the
sums, positive parts and limits the engine produces (local finiteness of
tail rules keeps every coordinate's contribution list finite).  The space
sits inside it as the modulus-1 payloads, so a base element already is a
completion payload and membership (`collapse`) is the modulus check
`elements.in_base_space`.  The lattice operations are the element
operations, which align residues by absolute index, and the report format
is `elements.describe`.

`pattern_from_pieces` builds a pattern from a base element plus
arithmetic-progression pieces.
"""

from __future__ import annotations

from functools import reduce

from .spaces import SpaceDesc
from .elements import Element, add, in_base_space, piece_element


def pattern_from_pieces(space: SpaceDesc, base: Element, pieces) -> Element:
    """base plus arithmetic-progression pieces, as a completion payload.

    A line piece (step, first, value) adds value at the indices first,
    first + step, ... of the coordinate line (the integers of tail_seq and
    fin_dim, the g tokens of fin_dev).  A row-block piece (row_step,
    row_first, col_step, col_first, value) adds it at every cell whose row
    and column lie on the two progressions.  Step 0 means the one index
    first.
    """
    return reduce(add, (piece_element(space, p) for p in pieces), base)


def collapse(a: Element) -> Element | None:
    """The element of the base space the pattern denotes, if it is one."""
    return a if in_base_space(a) else None

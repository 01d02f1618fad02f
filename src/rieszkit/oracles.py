"""Brute-force references on finite truncations.

Everything here is enumerative and independent of the symbolic engine: the
oracles re-derive values from definitions on truncated index sets, and the
test suite compares the engine against them.  Box-linear maxima are taken on
dyadic grids whose endpoints include the box vertices, which is exact for
linear objectives.  The grid oracle visits every grid point as integer pairs
(n * k, d * 2**depth) over each axis top n/d and builds one `Fraction` per
maximized term; only the joint route's enumerated points become `Fraction`
elements.
"""

from __future__ import annotations

from itertools import product

from .records import record
from .errors import NotDecreasingError, PreconditionError
from .scalars import Q, Q0, RationalSeq, qabs_le, qadd, qle, qof, qsub
from .spaces import fresh_star, seq_form
from .elements import (
    Element,
    add,
    coordinate,
    element_tail,
    lincomb,
    recompose,
    sup2,
    support as elem_support,
)
from .operators import Operator, apply_op, atom_image, image_parts
from .sequences import (
    ElementSeq,
    element_seq,
    eval_seq,
    eventual_pattern,
    fill,
    normalize,
    walk_failure,
)
from .convergence import check_decreasing


# ---------------------------------------------------------------------------
# truncation to finite dimensions


def truncate_element(x: Element, level: int) -> list[Q]:
    """Coordinates 1..level plus the tail slot (tail_seq only)."""
    if not x.space.row.sequence:
        raise PreconditionError("truncation is defined for tail sequences")
    return [coordinate(x, i) for i in range(1, level + 1)] + [x.tail]


def truncate_operator(T: Operator, level: int) -> list[list[Q]]:
    """Matrix of T on the truncated basis e_1..e_level plus the tail block.

    Column j < level is the truncation of T(e_j); the last column is the
    image of the tail generator (unit minus the listed atoms)."""
    imgs = [atom_image(T, j) for j in range(1, level + 1)]
    tail_gen_img = lincomb(T.codomain, [(1, T.unit_image), *((-1, img) for img in imgs)])
    cols = [truncate_element(img, level) for img in (*imgs, tail_gen_img)]
    return [[cols[j][i] for j in range(level + 1)] for i in range(level + 1)]


def matrix_positive_part(M) -> list[list[Q]]:
    return [[max(qof(v), Q(0)) for v in row] for row in M]


def matrix_apply(M, v) -> list[Q]:
    return [sum((qof(a) * qof(x) for a, x in zip(row, v)), Q(0)) for row in M]


# ---------------------------------------------------------------------------
# grid supremum over an order interval


# the deepest grid the oracle walks: each term visits 2**MAX_GRID_DEPTH + 1
# points, and the shipped specs answer in under a second at this depth
MAX_GRID_DEPTH = 19


def _dyadic_axis(top: Q, depth: int) -> tuple[int, int, int]:
    """The grid top * k / 2**depth, k = 0..2**depth, as the integer pairs
    (n * k, d * 2**depth) over the top n/d: returned as (n, d * 2**depth,
    2**depth), one shared positive denominator, with the points generated
    from k."""
    n, d = top.as_integer_ratio()
    return n, d << depth, 1 << depth


def _axis_points(axis) -> list[Q]:
    n, den, steps = axis
    return [Q(n * k, den) for k in range(steps + 1)]


def _term_max(a: Q, axis) -> Q:
    """max(a * v for v on the axis), visiting every grid point.

    With a = p/q each product is p * n * k over the positive denominator
    q * d * 2**depth that every point shares, so the integer cross-products
    compare the numerators alone; the winner is the one `Fraction` built."""
    n, den, steps = axis
    p, q = a.as_integer_ratio()
    c = p * n
    best = max(c * k for k in range(steps + 1))
    return Q(best, q * den) if best else Q0


def grid_interval_sup(T: Operator, x: Element, depth: int, joint_budget: int = 4096) -> Element:
    """Coordinatewise max of T(y) over the dyadic grid of [0, x].

    Grid points vary the coordinates that the data can see (the atom
    supports of the operator's table plus x's prefix) and the tail value.
    Each axis is the integer pairs (n * k, d * 2**depth) over its top n/d,
    and every grid point is visited.  Small cases enumerate the product grid
    outright, as `Fraction` points; larger ones maximize per output
    coordinate, which agrees with the joint maximum because the objective is
    linear in each grid variable.  A functional is an operator into
    fin_dim(1), so its grid supremum is that space's one coordinate.  A
    depth outside 0..MAX_GRID_DEPTH is refused before any grid is built.
    """
    if not x.space.row.sequence:
        raise PreconditionError("the grid oracle runs on tail sequences")
    if depth < 0:
        raise PreconditionError("grid depth must be >= 0")
    if depth > MAX_GRID_DEPTH:
        raise PreconditionError(f"grid depth must be <= {MAX_GRID_DEPTH}")
    support = set(elem_support(x))
    support |= {i for i, _ in T.atom_images if isinstance(i, int)}
    if T.rule is not None:
        support |= set(range(T.rule.threshold + 1, T.rule.threshold + 4))
    support = sorted(support)
    axes = [_dyadic_axis(coordinate(x, i), depth) for i in support]
    tail_axis = _dyadic_axis(x.tail, depth)

    def build(yvals, t) -> Element:
        prefix = []
        top = max(support, default=0)
        vals = dict(zip(support, yvals))
        for i in range(1, top + 1):
            prefix.append(vals.get(i, min(t, coordinate(x, i))))
        return element_tail(x.space, prefix, t)

    if (2**depth + 1) ** (len(support) + 1) <= joint_budget:
        best = None
        for combo in product(*map(_axis_points, axes), _axis_points(tail_axis)):
            img = apply_op(T, build(combo[:-1], combo[-1]))
            best = img if best is None else sup2(best, img)
        return best
    # separable route: per output coordinate the objective is linear in each
    # grid variable, so the coordinatewise grid maximum splits per variable
    return _grid_sup_separable(T, support, axes, tail_axis)


def _grid_sup_separable(T: Operator, support, axes, tail_axis):
    """Coordinatewise grid maximum of T, over the grid `axes[j]` of each
    coordinate `support[j]` and the tail grid.

    T(y) at output k equals sum_i y_i * a_{i,k} + t * (U_k - sigma_k) where
    a_{i,k} is coordinate k of the i-th atom image, U the unit image and
    sigma_k the row sum over the support; each output coordinate maximizes
    its variables independently.  Each term's maximum visits every point of
    its axis as integer pairs and builds one `Fraction`, and the terms are
    summed by `qadd`/`qsub`.  The target is assembled from the coordinates
    the images store and the points past them, on every codomain."""
    imgs = {i: atom_image(T, i) for i in support}
    U = T.unit_image
    touched = set(elem_support(U))
    for img in imgs.values():
        touched.update(elem_support(img))

    def coord_max(k) -> Q:
        out = Q0
        sigma = Q0
        for i, axis in zip(support, axes):
            a = coordinate(imgs[i], k)
            sigma = qadd(sigma, a)
            out = qadd(out, _term_max(a, axis))
        return qadd(out, _term_max(qsub(coordinate(U, k), sigma), tail_axis))

    cod = T.codomain
    if cod.row.shape == "row_block":
        # each touched cell against its row's tail, read past every touched
        # column (a row unit on ek), and the background past every stored row
        col = max((m for _, m in touched), default=0) + 1
        rows = max(len(img.rows) for img in (U, *imgs.values()))
        base = coord_max((rows + 1, 1))
        tails = {n: coord_max((n, col)) for n in range(1, rows + 1)}
        return recompose(cod, [(("unit",), base)]
                         + [(("row_unit", n), qsub(t, base)) for n, t in tails.items()
                            if cod.row_units]
                         + [(("atom", k), qsub(coord_max(k), tails[k[0]])) for k in touched])
    # the coordinates the images store, and a point past all of them that
    # reads the background: the tail class, or a fresh point for the ambient
    if cod.dim:
        coords, far = range(1, cod.dim + 1), None
    elif cod.row.sequence:
        coords = range(1, max(touched, default=0) + 1)
        far = len(coords) + 1
    else:
        coords, far = sorted(touched), fresh_star(touched)
    base = Q0 if far is None else coord_max(far)
    return recompose(cod, [(("unit",), base)]
                     + [(("atom", k), qsub(coord_max(k), base)) for k in coords])


# ---------------------------------------------------------------------------
# majorant growth for the row-pair difference family


def majorant_floors(T: Operator, levels: int) -> list[Q]:
    """Majorant floors mu_0..mu_levels for alternating row-difference
    stencils on row-block domains.

    The floor at level n is the stencil's positive coefficient `peak` times
    n: the constant slot of S(u_r) must reach `peak` for every row r <= n,
    and the unit dominates the sum of the first n row units.  This is a
    constraint probe, not a certified bound: no majorant S is built (a
    certified LP with primal and dual witnesses is ROADMAP item 4).  What is
    checked is the segment constraints of the level-`levels` truncation: for
    every row r and every segment end m_top <= levels, T of the odd segment
    e_(r,1) + e_(r,3) + ... + e_(r,2*m_top-1) stays <= peak at columns
    1..m_top of row r; otherwise PreconditionError("stencil outside the
    probed family").  Level n's constraints (r, m_top <= n) are a subset of
    these, and they are checked in level order, so a failure raises exactly
    what the first failing level would raise on its own.
    """
    if levels < 0:
        return []
    if not T.domain.row_units:
        raise PreconditionError("the probe runs on row-block domains")
    entries = T.rule.entries if T.rule is not None else ()
    peak = max((c for es in entries for _, c in es if c > 0), default=Q(0))
    if peak > 0:
        _check_segment_constraints(T, levels, peak)
    return [peak * n for n in range(levels + 1)]


def _check_segment_constraints(T: Operator, levels: int, peak: Q) -> None:
    """The segment constraints with r, m_top <= levels, level by level.

    T is linear, so the image of row r's odd segment grows by the generator
    parts of each new odd atom's image.  Each row keeps a running table of
    that image: its atom coefficients, and its unit plus row-unit-r
    coefficient, which every coordinate of row r adds.  Only the new parts
    are read, and their atom indices are checked in order, as `recompose`
    checks them.  Columns 1..m_top - 1 of row r passed at the row's previous
    segment end, so only the columns the new parts touch and the new column
    m_top can fail, unless the unit coefficient grew: then the whole row is
    compared again."""
    space = T.codomain
    check, dim = space.row.check_atom, space.dim
    cells: list[dict] = []  # row r: atom coefficients of its segment image
    level: list = []  # row r: the image's unit plus row-unit-r coefficient
    for n in range(1, levels + 1):
        cells.append({})
        level.append(Q0)
        for r in range(1, n + 1):
            row = cells[r - 1]
            # rows r < n gain segment end n; the new row n takes ends 1..n
            for m_top in range(n if r < n else 1, n + 1):
                before, touched = level[r - 1], []
                for ref, c in image_parts(T, ("atom", (r, 2 * m_top - 1))):
                    if ref[0] == "atom":
                        check(ref[1], dim)
                        row[ref[1]] = qadd(row.get(ref[1], Q0), c)
                        touched.append(ref[1])
                    elif ref[0] == "unit" or ref[1] == r:
                        level[r - 1] = qadd(level[r - 1], c)
                check((r, 1), dim)  # as `coordinate` checks before the first read
                room = qsub(peak, level[r - 1])
                if qle(level[r - 1], before):
                    cols = {m_top, *(m for i, m in touched if i == r and m <= m_top)}
                else:
                    cols = range(1, m_top + 1)
                if not all(qle(row.get((r, mm), Q0), room) for mm in cols):
                    raise PreconditionError("stencil outside the probed family")


def majorant_growth_probe(T: Operator, level: int) -> Q:
    """The majorant floor at one level, `majorant_floors(T, level)[level]`:
    the segment constraints of the level-`level` truncation are checked and
    `peak * level` is returned.  No majorant S is built; a certified LP
    bound is ROADMAP item 4."""
    if level < 0:
        raise PreconditionError("level must be >= 0")
    return majorant_floors(T, level)[level]


# ---------------------------------------------------------------------------
# bounded search for dominating families


# shape generators of the candidate families, each (x, scale) -> family or
# None when the shape does not apply to x; the zero family is built apart


def _amb_const(x: ElementSeq, c):
    return element_seq(x.space, ambient=RationalSeq.const(c))


def _harmonic_unitless(x: ElementSeq, c):
    atoms = [(form, RationalSeq.harmonic(c)) for form, _ in x.atoms if not form.moving]
    return element_seq(x.space, atoms=atoms) if atoms else None


def _matched_moving(x: ElementSeq, c):
    atoms = [(form, RationalSeq.const(c)) for form, _ in x.atoms if form.moving]
    return element_seq(x.space, atoms=atoms) if atoms else None


def _march(x: ElementSeq, c):
    if not x.space.row.sequence:
        return None
    return element_seq(
        x.space,
        fills=[fill(seq_form(1, 0), 1, 0, 1, 1, -c)],
        ambient=RationalSeq.const(c),
    )


_SHAPES = (_amb_const, _harmonic_unitless, _matched_moving, _march)


def _candidate_families(x: ElementSeq, bound: int):
    """Decreasing-family candidates with representation size <= bound.

    The palette scales come from the sequence's own coefficient values; the
    shapes combine a constant ambient, harmonic copies of the stationary
    atoms, matched moving-atom copies, and unit-minus-march terms.  Each
    (shape, scale) family is built once, into its shape's list in scale
    order, which the pairs walk without a lookup by scale; the candidates
    are the sums of two of them, in (shape, shape, scale, scale) order,
    without repeats, each summed only when the search asks for it.  The
    zero family comes before every shape, has no scale and is a neutral
    summand: it is built once and read at one scale, and a pick with it is
    the other family itself, unsummed.

    A pick (B, A) after (A, B) is skipped, neither summed nor keyed, unless
    both summands carry atoms or both carry fills; every (family, zero) is
    such a pick.  Static parts, ambients, n0 and preludes add commutatively,
    and a sum lists the atoms, then the fills, of its first summand before
    those of its second, so with at most one summand carrying each the two
    orders give the same sequence, a repeat.  Any other pick is summed and
    dropped when its key repeats an earlier one: (A, B) and (B, A) with
    atoms on both sides list them in different orders, and 1/2 + 1/2 is
    the family at scale 1."""
    scales = {Q(1)}
    for _, coeff in x.atoms:
        v = coeff.max_abs()
        if v != 0:
            scales.update({v, v / 2, 2 * v})
    scales = sorted(scales)
    # each shape's families in scale order, after the zero family's, as
    # (rank, summands, size, 1 if atoms | 2 if fills); (A, B) comes before
    # (B, A) exactly when A ranks lower
    built, rank = [[(0, (), 0, 0)]], 0
    for shape in _SHAPES:
        families = []
        for sc in scales:
            if (fam := shape(x, sc)) is not None:
                rank += 1
                families.append((rank, (fam,), 1 + len(fam.atoms) + len(fam.fills),
                                 bool(fam.atoms) | 2 * bool(fam.fills)))
        built.append(families)
    zero = element_seq(x.space)
    seen = set()
    for first, second in product(built, repeat=2):
        for r1, f1, n1, m1 in first:
            for r2, f2, n2, m2 in second:
                if n1 + n2 > bound or (r2 < r1 and not m1 & m2):
                    continue
                cand = _seq_sum(f1 + f2 or (zero,))
                key = _seq_key(cand)
                if key not in seen:
                    seen.add(key)
                    yield cand


def _seq_sum(fams):
    base = fams[0]
    for other in fams[1:]:
        base = element_seq(
            base.space,
            static=add(base.static, other.static),
            atoms=list(base.atoms) + list(other.atoms),
            fills=list(base.fills) + list(other.fills),
            ambient=base.ambient.add(other.ambient),
            n0=max(base.n0, other.n0),
            prelude=tuple(
                add(eval_seq(base, n), eval_seq(other, n))
                for n in range(1, max(base.n0, other.n0))
            ),
        )
    return base


def _seq_key(seq: ElementSeq):
    return (
        str(seq.static),
        tuple((str(f), c.describe()) for f, c in seq.atoms),
        tuple((str(f.form), f.modulus, f.residue, f.kmin, f.lag, f.value) for f in seq.fills),
        seq.ambient.describe(),
    )


@record
class SearchResult:
    found: ElementSeq | None
    candidates_checked: int
    note: str


def bruteforce_dominating_search(x: ElementSeq, bound: int = 6) -> SearchResult:
    """Search for a decreasing family y_n >= |x_n| with infimum 0.

    Candidates are drawn from a structured class (constant ambients,
    harmonic copies, matched moving atoms, unit-minus-march shapes, and
    pairwise sums) with representation size at most `bound`, without
    repeats; a pick whose sum cannot differ from an earlier pick's is
    skipped unsummed (`_candidate_families`).  Each candidate is put to
    three checks, cheapest first, and a check runs only when the ones
    before it pass: its normalized form's eventual pattern (the
    coordinatewise limit) must be zero, for the zero infimum; that form
    must be verified decreasing (`check_decreasing`); and domination
    |x_n| <= y_n is probed on the steps 1..max(10, 2 * bound), in one
    `walk_failure` over x and the candidate.  The pattern and the decrease
    are the monotone decision rule's two conditions, read without building
    its certificate.  The accepted candidate is the first that passes all
    three, and `candidates_checked` counts the candidates up to it, so the
    order of the checks cannot change the result; reading the limit first
    spares the decrease check and the probe on every candidate that
    settles above 0.  A bound below 0 admits no candidate, so a search
    over it would refute on nothing: it is refused.
    """
    if bound < 0:
        raise PreconditionError(f"search bound must be >= 0, got {bound}")
    checked = 0
    window = max(10, 2 * bound)
    for cand in _candidate_families(x, bound):
        checked += 1
        b = normalize(cand)
        if not eventual_pattern(b).is_zero():
            continue
        try:
            check_decreasing(b)
        except NotDecreasingError:
            continue
        if walk_failure(qabs_le, x, cand, 1, window) is None:
            return SearchResult(cand, checked, "dominating family found")
    return SearchResult(
        None,
        checked,
        f"no decreasing dominating family of size <= {bound} in the candidate class",
    )

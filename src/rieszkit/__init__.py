"""rieszkit: exact symbolic calculus for regular operators between
concretely representable vector lattices, with machine-checkable
certificates for order-convergence and positivity claims."""

from .scalars import Q, RationalSeq
from .spaces import (
    SpaceDesc,
    Token,
    fin_dev,
    fin_dim,
    gamma,
    pair_form,
    row_block_ek,
    row_block_grid,
    seq_form,
    tail_seq,
    token_form,
)
from .elements import (
    Element,
    abs_,
    atom,
    coordinate,
    decompose,
    element_fin,
    element_findev,
    element_rowblock,
    element_tail,
    inf2,
    is_disjoint,
    le,
    neg,
    pos,
    row_unit,
    sup2,
    unit,
    zero,
)
from .sequences import ElementSeq, element_seq, eval_seq, fill
from .convergence import (
    ConvergenceCertificate,
    decide_monotone_limit,
    decide_order_convergence,
    o1_dominating_obstruction,
    verify_certificate,
)
from .operators import (
    Operator,
    apply_op,
    functional,
    operator,
    order_bounded_test,
    partial_sum_seq,
    rank_one,
    stencil_rule,
)
from .calculus import (
    classify_pair,
    oc_projection,
    order_continuity_test,
    pervasive_witness,
    positive_part,
    rk_value,
    verify_witness,
)
from .oracles import (
    bruteforce_dominating_search,
    grid_interval_sup,
    majorant_floors,
    majorant_growth_probe,
    matrix_positive_part,
)
from .casebook import CASEBOOK

__version__ = "0.1.0"

"""Datatype-generic segment sums, from Kadane's list algorithm to the
shape-generic pipeline over collection monads and semirings, with every
supporting equality runnable as a law case."""

from types import ModuleType as _ModuleType

from .errors import (
    BenchBudgetError,
    CarrierError,
    DistributivityError,
    KindMismatchError,
    ReduceLawError,
    RoutesDisagreeError,
    SegmaxError,
    ShapeMismatchError,
    SizeGuardError,
    TermSyntaxError,
    UnknownLawError,
)
from .horner import (
    BOOL_OR_AND,
    MAX_PLUS,
    MIN_PLUS,
    PLUS_TIMES,
    SEMIRINGS,
    Semiring,
    ensure_distributive,
    foldr_list,
    generic_product_alg,
    horner_alg,
    horner_generic,
    horner_generic_brute,
    horner_list,
    inits_list,
    max_prefix_sum,
    mss_generic,
    mss_linear,
    mss_quadratic,
    mss_spec,
    scanr_list,
    segs_list,
    tails_list,
)
from .ints import I64_MAX, I64_MIN, check_i64, checked_add, checked_mul
from .labelled import (
    Labelled,
    map_labelled,
    preorder_values,
    root,
    scan_generic,
    subterms,
    subterms_para,
    value_count,
)
from .lawcheck import LAW_IDS, LawReport, replay, run_all, run_law
from .monads import (
    Collection,
    CollectionKind,
    ReduceOp,
    collection,
    cp,
    dist_list,
    empty,
    join_c,
    map_c,
    opt,
    reduce,
    singleton,
    to_text,
    union,
)
from .pruning import (
    is_pruning_of,
    prune,
    prune_count,
    pruned_fold,
    segs_count,
    segs_generic,
)
from .schemes import (
    bidist_node,
    contents_node,
    contents_term,
    distribute_node,
    fold,
    map_term,
    para,
)
from .shapes import (
    EMPTY,
    Node,
    ShapeKind,
    Term,
    bimap_node,
    bin_,
    cons,
    fork,
    inode,
    leaf,
    list_term,
    make_node,
    nil,
    nilt,
    parse_pruned,
    parse_term,
    print_pruned,
    print_term,
    term_size,
    tip,
)

# the submodules are bound here too; a star-import takes only their exports
__all__ = [
    n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)
]

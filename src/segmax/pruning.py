"""Pruned terms and the nondeterministic pruning map.

A pruned term is a term in which any subterm may be replaced by the
empty marker; prune(t) is the collection of all such replacements (the
generic counterpart of `inits`).  For each node,

    prune (in n)  =  <EMPTY>  `union`  <in n' | n' one pruning per child>

so a childless node always has exactly two prunings and a node with
children has 1 + the product of its children's pruning counts.  The
total count grows multiplicatively with depth, so enumeration is fenced
by an element guard, GUARD = 10^6.  The guard counts prunings, not their
size: printed, the collection is the sum of the prunings' sizes, which
is quadratic on a list (n + 2 prunings of up to n nodes; 72 MB of text
at 4,000 elements), and nothing bounds it.  Prunings share their
children, so shapes.print_items writes each shared child once.

Counting and enumerating prunings are post-order steps, and by the
scan lemma (map (fold f) . subterms = scan f) the segments take one
scan each, the per-subterm results listed in preorder (contents order):

    segs        =  concat . contents . scan prune
    segs_count  =  sum . contents . scan prune_count

The count step has the parser's close action signature (tag, labels,
kids), as horner.horner_step has: it is Horner's rule in the counting
semiring.  So prune_count_text counts while parsing and builds no term,
as horner.mss_generic_text scans while parsing.

Every child of a segment is itself a segment, so the brute route
folds the segments through one memo keyed by identity (pruned_fold):
each pruned node is folded once over all of them, while the caller
keeps the prunings alive.

The default collection kind for consumers is the bag: multiplicity is
meaningful for sum-like reductions, and bag union is not idempotent, so
no distributivity requirement is silently strengthened.

Enumeration order is deterministic, and independent subterm prunings
may safely be computed in parallel as long as results are recombined
through the kind's canonical union.
"""

from __future__ import annotations

import itertools
import math

from .errors import SizeGuardError
from .monads import Collection, CollectionKind, collection
from .schemes import Algebra
from .shapes import EMPTY, Node, ShapeKind, Term, _parse, postorder, zip_slots
# segbench's traced run rebinds these names here, so they stay bound
from .labelled import preorder_values, subterms  # noqa: F401
from .schemes import fold  # noqa: F401

GUARD = 10**6  # the most prunings or segments an enumeration may list


def _count_step(tag: str, labels: tuple, kids: tuple) -> int:
    """The prunings of a node from its children's counts; also the
    parser's close action."""
    return 1 + math.prod(kids)


def prune_count(t: Term) -> int:
    """Number of prunings, by the recurrence 1 + product over children
    (so 2 for every childless node).  Cheap: no enumeration."""
    return postorder(t, lambda n, kids: _count_step(n.tag, n.labels, kids))


def prune_count_text(text: str, shape: ShapeKind) -> int:
    """prune_count(parse_term(text, shape)) in one pass over the text that
    builds no term, with the count step as the parser's close action.  It
    raises parse_term's syntax faults and node limit, and nothing else."""
    return _parse(text, shape, _count_step)


def _check_guard(size: int) -> None:
    if size > GUARD:
        raise SizeGuardError(size, GUARD)


def _prune_step(n: Node, kids: tuple) -> list:
    """All prunings of n from its children's: the empty marker first,
    then n over each choice of one pruning per child, in lexicographic
    positional order.  Substructure is shared."""
    new = tuple.__new__  # Node(...) without its Python-level __new__
    return [EMPTY, *(new(Node, (n.shape, n.tag, n.labels, picked))
                     for picked in itertools.product(*kids))]


def _prune_items(t: Term) -> list:
    """All prunings in the canonical order, duplicate-free, so the list
    is a canonical bag and set."""
    return postorder(t, _prune_step)


def prune(t: Term, kind: CollectionKind = CollectionKind.BAG) -> Collection:
    """The collection of all prunings of t, if there are at most GUARD."""
    _check_guard(prune_count(t))
    return Collection(kind, tuple(_prune_items(t)))


def pruned_fold(b, alg: Algebra, p, memo: dict | None = None) -> object:
    """Fold a pruned term: the empty marker is worth b, and every real
    node is evaluated by alg over its recursively evaluated children.

    A memo (shapes.postorder's, keyed by identity, so the caller keeps
    the prunings alive) shares the folds among calls with the same b and
    alg.  Over the segments of one term, each pruned node is then folded
    once, and each call folds its own constructor layer over its
    children's memoised values.

    The error order is the memo-free calls'.  Every memoised sub-fold
    finished without overflow, and a fold depends only on its node, so
    each call meets its first overflow at the same node as without the
    memo, and the first call to overflow is the same segment."""
    new = tuple.__new__  # Node(...) without its Python-level __new__
    return postorder(p, lambda n, kids: alg(new(Node, (n.shape, n.tag, n.labels, kids))), b,
                     memo=memo)


def segs_count(t: Term) -> int:
    """Number of generic segments: the prunings of every subterm,
    summed over one scan of prune_count."""
    counts: list = []
    postorder(t, lambda n, kids: _count_step(n.tag, n.labels, kids), out=counts)
    return sum(counts)


def _segs_items(t: Term) -> list:
    _check_guard(segs_count(t))
    per_subterm: list = []
    postorder(t, _prune_step, out=per_subterm)
    return [p for ps in per_subterm for p in ps]


def segs_generic(t: Term, kind: CollectionKind = CollectionKind.BAG) -> Collection:
    """All generic segments of t, concat . contents . scan prune: the
    prunings of every subterm, from one scan (oracles.segs_generic_literal
    spells out join . map prune . contents . subterms)."""
    return collection(kind, _segs_items(t))


def is_pruning_of(p, t: Term) -> bool:
    """Positional containment: p equals t except that some subterms are
    replaced by the empty marker."""
    return all(
        not isinstance(x, Node) or (x.tag, x.labels) == (y.tag, y.labels)
        for x, y in zip_slots(p, t)
    )

"""Pruned terms and the nondeterministic pruning map.

A pruned term is a term in which any subterm may be replaced by the
empty marker; prune(t) is the collection of all such replacements (the
generic counterpart of `inits`).  For each node,

    prune (in n)  =  <EMPTY>  `union`  <in n' | n' one pruning per child>

so a childless node always has exactly two prunings and a node with
children has 1 + the product of its children's pruning counts.  The
total count grows multiplicatively with depth, so enumeration is fenced
by a configurable element guard.  The guard counts prunings, not their
size: printed, the collection is the sum of the prunings' sizes, which
is quadratic on a list (n + 2 prunings of up to n nodes; 72 MB of text
at 4,000 elements), and nothing bounds it.  Prunings share their
children, so shapes.print_items writes each shared child once.

The default collection kind for consumers is the bag: multiplicity is
meaningful for sum-like reductions, and bag union is not idempotent, so
no distributivity requirement is silently strengthened.

Enumeration order is deterministic, and independent subterm prunings
may safely be computed in parallel as long as results are recombined
through the kind's canonical union.
"""

from __future__ import annotations

import itertools

from .errors import SizeGuardError
from .labelled import preorder_values, subterms
from .monads import Collection, CollectionKind, collection
from .schemes import Algebra, fold
from .shapes import (  # noqa: F401
    EMPTY, Node, Term, parse_pruned, postorder, print_pruned, zip_slots,
)

DEFAULT_GUARD = 10**6


def prune_count(t: Term) -> int:
    """Number of prunings, by the recurrence 1 + product over children
    (so 2 for every childless node).  Cheap: no enumeration."""
    def alg(n: Node) -> int:
        c = 1
        for v in n.children:
            c *= v
        return 1 + c

    return fold(alg, t)


def _check_guard(size: int, guard: int | None) -> None:
    if guard is not None and size > guard:
        raise SizeGuardError(size, guard)


def _prune_items(t: Term) -> list:
    """All prunings, empty marker first, children in lexicographic
    positional order: the canonical order, and duplicate-free, so the
    list is a canonical bag and set.  Substructure is shared."""
    def alg(n: Node) -> list:
        out: list = [EMPTY]
        for picked in itertools.product(*n.children):
            out.append(Node(n.shape, n.tag, n.labels, picked))
        return out

    return fold(alg, t)


def prune(t: Term, kind: CollectionKind = CollectionKind.BAG,
          guard: int | None = DEFAULT_GUARD) -> Collection:
    """The collection of all prunings of t."""
    _check_guard(prune_count(t), guard)
    return Collection(kind, tuple(_prune_items(t)))


def pruned_fold(b, alg: Algebra, p) -> object:
    """Fold a pruned term: the empty marker is worth b, and every real
    node is evaluated by alg over its recursively evaluated children."""
    new = tuple.__new__  # Node(...) without its Python-level __new__
    return postorder(p, lambda n, kids: alg(new(Node, (n.shape, n.tag, n.labels, kids))), b)


def segs_count(t: Term) -> int:
    """Number of generic segments: total prunings over all subterms.

    One fold of the pair (prune count, running total) -- the scan lemma
    applied to prune_count, summed as it goes."""
    def alg(n: Node) -> tuple[int, int]:
        count, total = 1, 0
        for c, s in n.children:
            count *= c
            total += s
        return 1 + count, total + 1 + count

    return fold(alg, t)[1]


def _segs_items(t: Term, guard: int | None) -> list:
    _check_guard(segs_count(t), guard)
    items: list = []
    for s in preorder_values(subterms(t)):
        items.extend(_prune_items(s))
    return items


def segs_generic(t: Term, kind: CollectionKind = CollectionKind.BAG,
                 guard: int | None = DEFAULT_GUARD) -> Collection:
    """All generic segments of t: prune every subterm and union the
    results,

        segs = join . map prune . contents . subterms
    """
    return collection(kind, _segs_items(t, guard))


def is_pruning_of(p, t: Term) -> bool:
    """Positional containment: p equals t except that some subterms are
    replaced by the empty marker."""
    return all(
        not isinstance(x, Node) or (x.tag, x.labels) == (y.tag, y.labels)
        for x, y in zip_slots(p, t)
    )

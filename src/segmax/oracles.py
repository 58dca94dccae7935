"""Alternative formulations kept purely as cross-check oracles.

These are the "other route" for dual-route laws and tests: top-down
(unfold-style) rebuildings of subterms and scan, the literal monadic
compositions behind prune and segs, the literal fold of a pruned term,
and the lifted definition of the list distributor.  They favour
obviousness over efficiency (no sharing, recursive), so they are only
run on the small terms the law generators and tests produce.
"""

from __future__ import annotations

from itertools import product

from .labelled import Labelled, preorder_values, subterms
from .monads import Collection, CollectionKind, collection, join_c, map_c, opt, singleton
from .pruning import _check_guard, prune, segs_count
from .schemes import Algebra, distribute_node, fold
from .shapes import EMPTY, Node, Term


def subterms_unfold(t: Term) -> Labelled:
    """Top-down subterms: the root keeps the whole structure, children
    are generated from the children of the input."""
    return Labelled(t, t.shape, t.tag, tuple(subterms_unfold(c) for c in t.children))


def scan_unfold(alg: Algebra, t: Term) -> Labelled:
    """Top-down scan; refolds every subterm from scratch."""
    return Labelled(
        fold(alg, t), t.shape, t.tag, tuple(scan_unfold(alg, c) for c in t.children)
    )


def prune_via_fold(t: Term, kind: CollectionKind) -> Collection:
    """prune as the literal fold of  opt EMPTY . distribute  (the maybe
    layer collapses into the pruned representation: a kept node is the
    node itself, the dropped case is the empty marker)."""

    def alg(n: Node) -> Collection:
        return opt(EMPTY, distribute_node(n, kind))

    return fold(alg, t)


def prune_recursive(t: Term, kind: CollectionKind) -> Collection:
    """prune by the recursive characterization: the empty marker, plus
    one node per choice of a pruning for each child."""
    kids = [prune_recursive(c, kind).items for c in t.children]
    items = [EMPTY]
    items.extend(Node(t.shape, t.tag, t.labels, picked) for picked in product(*kids))
    return collection(kind, items)


def segs_generic_literal(t: Term, kind: CollectionKind = CollectionKind.BAG) -> Collection:
    """segs spelled with the collection combinators,
    join . map prune . contents . subterms; a cross-check for the
    one-scan enumeration in pruning.segs_generic."""
    _check_guard(segs_count(t))
    subs = collection(kind, preorder_values(subterms(t)))
    return join_c(map_c(lambda s: prune(s, kind), subs))


def pruned_fold_literal(b, step, p):
    """The fold pruning.pruned_fold memoises, as a recursion: the empty
    marker is worth b, and a node step(tag, labels, its children's folds),
    the children folded left to right."""
    if p is EMPTY:
        return b
    return step(p.tag, p.labels, tuple(pruned_fold_literal(b, step, c) for c in p.children))


def _lift_m2(f, mx: Collection, my: Collection) -> Collection:
    return join_c(map_c(lambda a: map_c(lambda b: f(a, b), my), mx))


def dist_list_lifted(mbs, kind: CollectionKind) -> Collection:
    """The list distributor via lifted pairing:

        dist []       = return ()
        dist (mb:mbs) = lift2 cons mb (dist mbs)
    """
    mbs = list(mbs)
    if not mbs:
        return singleton(kind, ())
    rest = dist_list_lifted(mbs[1:], kind)
    return _lift_m2(lambda a, tl: (a,) + tl, mbs[0], rest)

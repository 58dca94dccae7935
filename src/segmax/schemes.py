"""Recursion schemes over terms.

An algebra is a total function from a Node whose child slots hold
carrier values to a carrier value; fold is the unique homomorphism it
induces:

    fold alg t  =  alg (node with every child replaced by its fold)

para is the variant whose step also sees the original child subterms.
contents and the distributors are the positional traversals the generic
developments build on: every constructor exposes a fixed left-to-right
sequence of element positions (labels first, then children).

fold and para are instances of the post-order walk in shapes, so
deeply right-nested terms (long list-shaped chains) do not hit the
interpreter recursion limit.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from .errors import KindMismatchError
from .monads import Collection, CollectionKind, collection
from .shapes import Node, Term, _label, iter_nodes, postorder

Algebra = Callable[[Node], Any]


def fold(alg: Algebra, t: Term):
    """Catamorphism: bottom-up replacement of every node by alg's value."""
    return postorder(t, lambda n, kids: alg(Node(n.shape, n.tag, n.labels, kids)))


def para(palg: Callable[[Node], Any], t: Term):
    """Paramorphism: like fold, but each child slot holds the pair
    (recursive result, original child subterm)."""
    return postorder(
        t, lambda n, kids: palg(Node(n.shape, n.tag, n.labels, tuple(zip(kids, n.children))))
    )


def contents_node(n: Node) -> list:
    """Element positions of one constructor layer, left to right: label
    slots first, then child slots (the diagonal instance, so both must
    hold the same carrier)."""
    return list(n.labels) + list(n.children)


def contents_term(t: Term) -> list:
    """All labels of a term, in preorder."""
    return [l for nd in iter_nodes(t) for l in nd.labels]


def map_term(g: Callable[[int], int], t: Term) -> Term:
    """Relabel a term, as the fold of the relabelling algebra."""
    return fold(
        lambda n: Node(n.shape, n.tag, tuple(_label(g(l)) for l in n.labels), n.children),
        t,
    )


def _expect_collections(cols, kind: CollectionKind):
    for c in cols:
        if not isinstance(c, Collection) or c.kind is not kind:
            raise KindMismatchError(f"expected a {kind.value} collection, got {c!r}")


def distribute_node(n: Node, kind: CollectionKind) -> Collection:
    """Distribute the constructor over collections in its child slots:
    one node per choice of a single element from each child collection,
    enumerated in lexicographic positional order.  A node with no child
    positions yields the singleton of itself."""
    _expect_collections(n.children, kind)
    combos = itertools.product(*[c.items for c in n.children])
    return collection(
        kind, (Node(n.shape, n.tag, n.labels, picked) for picked in combos)
    )


def bidist_node(n: Node, kind: CollectionKind) -> Collection:
    """Distribute over every element position (labels and children)."""
    cols = contents_node(n)
    _expect_collections(cols, kind)
    k = len(n.labels)
    combos = itertools.product(*[c.items for c in cols])
    return collection(
        kind,
        (Node(n.shape, n.tag, vals[:k], vals[k:]) for vals in combos),
    )

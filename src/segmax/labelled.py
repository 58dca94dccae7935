"""The labelled variant: every node carries exactly one value.

A Labelled pairs a value with a skeleton constructor whose label slots
have been erased -- only the tag and the (recursively labelled) children
remain.  The skeleton's tag sequence mirrors the source term, so a
labelled structure has exactly one value per source node.  The class
lives in shapes, beside Node, so that the same two iterative walks
serve both: preorder_values and value_count read the preorder walk,
and map_labelled and scan_generic are post-order steps.

subterms labels every node of a term with the subterm rooted there (the
generic counterpart of `tails`), and scan_generic labels every node with
the fold of that subterm, computed in a single pass:

    scan alg  =  map_labelled (fold alg) . subterms

scan_generic is the literal scan that the law registry (scan-lemma) and
the tests use; horner.mss_generic fuses reduce . contents . scan into
one pass and builds no Labelled.
"""

from __future__ import annotations

from typing import Callable

from .schemes import Algebra, fold, para
from .shapes import Labelled, Node, Term, postorder, preorder


def root(l: Labelled):
    """The value at the root node."""
    return l.value


def preorder_values(l: Labelled) -> list:
    return [x.value for x in preorder(l)]


def value_count(l: Labelled) -> int:
    return sum(1 for _ in preorder(l))


def map_labelled(f: Callable, l: Labelled) -> Labelled:
    """Apply f to every value, keeping the skeleton."""
    return postorder(l, lambda x, kids: Labelled(f(x.value), x.shape, x.tag, kids))


def subterms(t: Term) -> Labelled:
    """Label every node with the subterm rooted there.

    Computed as a fold: the subterm at a node is reassembled from the
    root labels of the children's labelled structures.
    """

    def alg(n: Node) -> Labelled:
        here = Node(n.shape, n.tag, n.labels, tuple(c.value for c in n.children))
        return Labelled(here, n.shape, n.tag, n.children)

    return fold(alg, t)


def subterms_para(t: Term) -> Labelled:
    """subterms as a paramorphism: the original child subterms are handed
    to the step directly, so nothing has to be reassembled."""

    def palg(n: Node) -> Labelled:
        here = Node(n.shape, n.tag, n.labels, tuple(orig for _, orig in n.children))
        return Labelled(here, n.shape, n.tag, tuple(rec for rec, _ in n.children))

    return para(palg, t)


def scan_generic(alg: Algebra, t: Term) -> Labelled:
    """Label every node with the fold of the subterm rooted there,
    in one bottom-up pass."""

    def step(n: Node, kids: tuple) -> Labelled:
        v = alg(Node(n.shape, n.tag, n.labels, tuple(c.value for c in kids)))
        return Labelled(v, n.shape, n.tag, kids)

    return postorder(t, step)

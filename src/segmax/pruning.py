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
at 4,000 elements), and nothing bounds it.  prune(t, kind, print_step)
is map print_pruned . prune fused into one fold, a deforestation: each
pruning's text is written from its children's texts, and no pruning is
built.  A two-child node copies each child text into at least two of
its own, so its copies add up to at most twice its output.  A one-child
node leaves its texts unwritten, its head over its child's (_Chain),
and a chain of them is written once, prefix by prefix, where a two-child
node or the root reads it; writing at every cons would copy each text
once per ancestor, cubic on a list.

Counting and enumerating prunings are post-order steps, and by the
scan lemma (map (fold f) . subterms = scan f) the segments take one
scan each, the per-subterm results listed in preorder (contents order):

    segs        =  concat . contents . scan prune
    segs_count  =  sum . contents . scan prune_count

The count step has the parser's close action signature (tag, labels,
kids), as horner.horner_step has: it is Horner's rule in the counting
semiring.  So prune_count runs it by shapes._parse over a term or a text,
counted while parsing with no term built, and segs_count by postorder
over a term, its sum fused into the scan: only open subterms' counts live.

Every child of a segment is a segment listed after it, so the brute
route folds the segments once, back to front, through one memo keyed by
identity (pruned_fold), keeping them alive: each segment takes one layer
step, a close action (tag, labels, kids) on its children's entries, and
no node is rebuilt.  A fold that raises is entered as its error: the
first faulted child's, left to right, or else the step's own, which is
the error oracles.pruned_fold_literal meets first, since a fold depends
only on its node.  The route raises the first such entry in segment order.

The default collection kind for consumers is the bag: multiplicity is
meaningful for sum-like reductions, and bag union is not idempotent, so
no distributivity requirement is silently strengthened.

Enumeration order is deterministic, and independent subterm prunings
may safely be computed in parallel as long as results are recombined
through the kind's canonical union.
"""

from __future__ import annotations

import math
from itertools import product, repeat
from typing import Callable, NamedTuple

from .errors import SizeGuardError
from .monads import Collection, CollectionKind, collection
from .shapes import (EMPTY, Node, ShapeKind, Term, _head, _parse, postorder, print_pruned,
                     zip_slots)
# segbench's traced run rebinds these names here, so they stay bound
from .labelled import preorder_values, subterms  # noqa: F401
from .schemes import fold  # noqa: F401

GUARD = 10**6  # the most prunings or segments an enumeration may list


def _count_step(tag: str, labels: tuple, kids: tuple) -> int:
    """The prunings of a node from its children's counts; also the
    parser's close action."""
    return 1 + math.prod(kids)


def prune_count(t: Term | str, shape: ShapeKind | None = None) -> int:
    """Number of prunings of t, a term or, with its shape, the text of one,
    by the recurrence 1 + product over children (so 2 for every childless
    node).  Cheap: no enumeration.  One _parse call runs the count step
    as its close action, so a text is counted while parsing, no term is
    built, and only parse_term's syntax faults and node limit are raised."""
    return _parse(t, shape, _count_step)


def _check_guard(size: int) -> None:
    if size > GUARD:
        raise SizeGuardError(size, GUARD)


def _prune_step(n: Node, kids: tuple) -> list:
    """All prunings of n from its children's: the empty marker first,
    then n over each choice of one pruning per child, in lexicographic
    positional order, built in C by tuple.__new__.  Substructure is shared."""
    return [EMPTY, *map(tuple.__new__, repeat(Node), zip(
        repeat(n.shape), repeat(n.tag), repeat(n.labels), product(*kids)))]


class _Chain:
    """A one-child node's texts, unwritten: its head over its child's
    texts.  Iterating writes a chain of them, prefix by prefix."""

    __slots__ = ("head", "child")

    def __init__(self, head: str, child) -> None:
        self.head, self.child = head, child

    def __iter__(self):
        yield "E"
        prefix, ends, f = self.head[1:], ")", self.child
        while True:
            yield f"{prefix} E{ends}"
            if type(f) is not _Chain:
                break
            prefix += f.head
            ends += ")"
            f = f.child
        for text in f[1:]:  # past the child's own "E"
            yield f"{prefix} {text}{ends}"


def print_step(n: Node, kids: tuple):
    """_prune_step's prunings of n as their texts, from its children's
    texts: "E" first, then one text per choice of child texts.  A text
    holds only ASCII letters, digits, '(', ')', '-' and spaces, so it
    needs no JSON escaping (cli.prune --json writes them by a join)."""
    if not kids:
        return ["E", print_pruned(n)]
    if len(kids) == 1:
        return _Chain(_head(n), kids[0])
    head = _head(n)[1:]  # two children: no constructor has more
    return ["E", *[f"{head} {a} {b})" for a, b in product(*kids)]]


def prune(t: Term, kind: CollectionKind = CollectionKind.BAG,
          step=_prune_step) -> Collection:
    """All prunings of t, if there are at most GUARD, folded by step, in
    the canonical order and duplicate-free (a canonical bag and set).
    With the default _prune_step it builds every subterm's prunings,
    segs_count(t) nodes, quadratic on a list, but the guard counts only
    the root's: prune(list_term([1] * 3000)) took 3.7 s and 569 MiB
    (CPython 3.11.7).  ROADMAP item 4 owns the fix."""
    _check_guard(prune_count(t))
    return Collection(kind, tuple(postorder(t, step)))


class _Fault(NamedTuple):
    """A fold that raised, as a memo entry: its error."""

    error: Exception


def pruned_fold(b, step: Callable, p, memo: dict) -> object:
    """Fold a pruned term: the empty marker is worth b, and every real
    node the close action step(tag, labels, kids) on its children's folds.

    memo is keyed by identity and holds the folds, with the same b and
    step, of each of p's children other than the empty marker, so p takes
    one layer step, step on their values, and its entry is stored and
    returned.  A fault is entered as a _Fault: the first faulted child's,
    left to right, or else the step's own error, which is the error that
    oracles.pruned_fold_literal meets first in post-order."""
    if p is EMPTY:
        return b
    kids = []
    for c in p.children:
        v = b if c is EMPTY else memo[id(c)]
        if type(v) is _Fault:
            break
        kids.append(v)
    else:
        try:
            v = step(p.tag, p.labels, tuple(kids))
        except Exception as e:  # whatever step raises, the caller raises in segment order
            v = _Fault(e)
    memo[id(p)] = v
    return v


def segs_count(t: Term) -> int:
    """Number of generic segments of t: the prunings of every subterm,
    each added to a running total as the prune_count scan closes it."""
    total = 0

    def step(n: Node, kids: tuple) -> int:
        nonlocal total
        count = _count_step(n.tag, n.labels, kids)
        total += count
        return count

    postorder(t, step)
    return total


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

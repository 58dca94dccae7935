"""Independent reference answers for the segmax CLI.

This module never imports segmax.  It works on its own term
representation (preorder arrays, built by inputs.py) and computes what
every generated request must answer:

* the best segment value of a `tree` request, by the Horner recurrence
  evaluated bottom-up over the preorder arrays;
* prune counts by the 1 + product-over-children recurrence, segment
  counts as their sum, and the first and last printed prunings;
* the full, ordered list of printed prunings for small terms;
* Kadane's maximum segment sum for `mss --algo linear`.

Everything is iterative, and integers with more than 4,300 digits are
formatted by chunked conversion, so the reference needs none of
CPython's limits raised.
"""

from __future__ import annotations

import itertools
import json

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

MAX_TREE_NODES = 10**5
GUARD = 10**6

# shape -> (stop constructor, grow constructor); arities are fixed by shape
SHAPES = {
    "list": ("nil", "cons"),
    "etree": ("tip", "bin"),
    "itree": ("nilt", "node"),
    "htree": ("leaf", "fork"),
}
LABELLED = {"cons", "tip", "node", "leaf", "fork"}
ATOMS = {"nil", "nilt"}  # printed bare, without parentheses

# semiring -> (add, mul, seed b = mul unit, add unit)
def _plus(a: int, b: int) -> int:
    return a + b


SEMIRINGS = {
    "max-plus": (max, _plus, 0, I64_MIN),
    "min-plus": (min, _plus, 0, I64_MAX),
    "bool-or-and": (lambda a, b: a | b, lambda a, b: a & b, 1, 0),
}

# Expected outcome of every registered law, in registry order.
LAWS = {
    "fold-universal": "HOLDS",
    "fold-universal-base": "HOLDS",
    "fold-fusion": "HOLDS",
    "fold-map-fusion": "HOLDS",
    "scan-lemma": "HOLDS",
    "subterms-para-equiv": "HOLDS",
    "subterms-unfold-equiv": "HOLDS",
    "monad-laws": "HOLDS",
    "join-distributes": "HOLDS",
    "monad-algebra": "HOLDS",
    "reduce-distributes": "HOLDS",
    "reduce-unit-forced": "HOLDS",
    "horner-list": "HOLDS",
    "mss-chain": "HOLDS",
    "rectangle-distributivity": "HOLDS",
    "face7-lists": "HOLDS",
    "distlist-defs-equiv": "HOLDS",
    "cp-distributivity": "HOLDS",
    "collection-distributivity": "HOLDS",
    "contents-naturality": "HOLDS",
    "delta-respects-contents": "HOLDS",
    "horner-generic-vs-prune": "HOLDS",
    "mss-generic-scan-vs-brute": "HOLDS",
    "set-plus-nonidempotent": "FAILS_WITH_WITNESS",
    "prune-counts": "HOLDS",
}


class Term:
    """A term as preorder arrays: node i has constructor tags[i], label
    labels[i] (None where the constructor has no label) and child
    indices kids[i].  Children come after their parent, so walking the
    indices downwards visits every child before its parent."""

    __slots__ = ("shape", "tags", "labels", "kids")

    def __init__(self, shape: str, tags: list, labels: list, kids: list):
        self.shape, self.tags, self.labels, self.kids = shape, tags, labels, kids

    def __len__(self) -> int:
        return len(self.tags)


def big_str(n: int) -> str:
    """Decimal digits of n without str()'s 4,300-digit limit."""
    if n < 0:
        return "-" + big_str(-n)
    if n.bit_length() < 13000:  # under 3,900 digits
        return str(n)
    half = int(n.bit_length() * 0.30103) // 2
    hi, lo = divmod(n, 10**half)
    return big_str(hi) + big_str(lo).zfill(half)


def text(t: Term) -> str:
    """The canonical s-expression, as `segmax` prints it: every node but
    the root follows a space, and a node's ")" comes after its last
    descendant."""
    out: list[str] = []
    open_kids: list[int] = []  # children still to come, per open node
    tags, labels, kids = t.tags, t.labels, t.kids
    for i in range(len(tags)):
        tag, lab, k = tags[i], labels[i], len(kids[i])
        piece = tag if tag in ATOMS else f"({tag}" if lab is None else f"({tag} {lab}"
        if i:
            piece = " " + piece
        if k:
            open_kids.append(k)
        else:
            if tag not in ATOMS:
                piece += ")"
            while open_kids:  # a finished subtree may finish its ancestors
                open_kids[-1] -= 1
                if open_kids[-1]:
                    break
                open_kids.pop()
                piece += ")"
        out.append(piece)
    return "".join(out)


def horner_values(t: Term, semiring: str) -> list:
    """The Horner fold of the subterm at every node:
    b `add` (labels `mul` children `mul` b), with b the mul unit.  At the
    root of a list term this is the best prefix value."""
    add, mul, b, _ = SEMIRINGS[semiring]
    h = [0] * len(t)
    labels, kids = t.labels, t.kids
    for i in range(len(t) - 1, -1, -1):
        acc = b
        for c in reversed(kids[i]):
            acc = mul(h[c], acc)
        if labels[i] is not None:
            acc = mul(labels[i], acc)
        h[i] = add(b, acc)
    return h


def horner_best(t: Term, semiring: str) -> int:
    """Best segment value: the add-reduction of every node's Horner value."""
    add, _, _, unit = SEMIRINGS[semiring]
    best = unit
    for v in horner_values(t, semiring):
        best = add(best, v)
    return best


def prune_counts(t: Term) -> list[int]:
    """Prunings of the subterm at every node: 1 + product over children."""
    c = [0] * len(t)
    kids = t.kids
    for i in range(len(t) - 1, -1, -1):
        p = 1
        for k in kids[i]:
            p *= c[k]
        c[i] = 1 + p
    return c


def segs_count(t: Term) -> int:
    """Generic segments: prunings summed over every subterm."""
    return sum(prune_counts(t))


def mss_linear(xs: list[int]) -> int:
    """Kadane, with the empty segment worth 0."""
    best = cur = 0
    for x in xs:
        cur = cur + x if cur + x > 0 else 0
        if cur > best:
            best = cur
    return best


def prunings(t: Term, monad: str) -> list[str]:
    """Every printed pruning in the order `segmax prune` prints them:
    enumeration order for lists (the empty marker, then the product of
    the children's prunings), and for bags and sets the order of the
    preorder token sequence, in which the empty marker sorts before any
    node.  The prunings of one term are pairwise distinct, so sets keep
    them all.  Exponential: only for small terms."""
    tags, labels, kids = t.tags, t.labels, t.kids
    opts: list = [None] * len(t)
    for i in range(len(t) - 1, -1, -1):
        tok = (1, tags[i], () if labels[i] is None else (labels[i],))
        head = tags[i] if labels[i] is None else f"{tags[i]} {labels[i]}"
        here = [(((0,),), "E")]
        for combo in itertools.product(*(opts[k] for k in kids[i])):
            key = (tok,) + tuple(itertools.chain.from_iterable(k for k, _ in combo))
            if tags[i] in ATOMS:
                here.append((key, tags[i]))
            else:
                here.append((key, "(" + " ".join([head] + [s for _, s in combo]) + ")"))
        opts[i] = here
        for k in kids[i]:
            opts[k] = None
    items = opts[0]
    if monad != "list":
        items = sorted(items, key=lambda e: e[0])
    return [s for _, s in items]


BRACKETS = {"list": ("[", "]"), "bag": ("<", ">"), "set": ("{", "}")}


def collection_text(monad: str, items: list[str]) -> str:
    """`segmax prune` text output for a collection of printed items."""
    opening, closing = BRACKETS[monad]
    return opening + ", ".join(items) + closing


def prune_json(monad: str, items: list[str]) -> str:
    return json.dumps({"kind": monad, "items": items})

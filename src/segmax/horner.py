"""Semirings and segment-sum algorithms, from the list originals to the
shape-generic pipeline.

The classical chain on integer lists:

    mss_spec       maximum . map sum . segs            (cubic)
    mss_quadratic  maximum . map (maximum . map sum . inits) . tails
    mss_linear     maximum . scanr step 0              (linear)
                   where  step u z = 0 `max` (u + z)

mss_linear runs scanr step 0 as accumulate over the reversed list, by
scanr f e = reverse . scanl (flip f) e . reverse, and max_prefix_sum
runs foldr step 0 as a reduce: the same sums in the same order.

The step in mss_linear is one instance of Horner's rule: over any
semiring (add, mul),

    add_reduce . map (mul_fold) . inits  =  foldr step mul_unit
        where  step u z = mul_unit `add` (u `mul` z)

Generically, the "product" of one constructor layer folds its contents
with mul from a seed b, and the Horner fold adds b at every node:

    horner_alg n   =  b `add` foldr mul b (contents n)
    horner_generic =  fold horner_alg

which equals reducing the products of all prunings, and summing it over
every subterm (one scan) equals reducing over all generic segments.

mss_generic's scan route is  reduce . contents . scan horner_alg  in one
pass (Bird's scan lemma): shapes._parse runs horner_step on each node's
labels and its children's results, over a term by shapes.postorder, in
the order the unfused fold would, and lists the values in preorder, the
order of contents, in which an order-free add folds them (see the lemma).
It builds no labelled tree.  The law mss-generic-scan-vs-brute checks it
against the brute route, and
tests/test_horner.py::test_scan_route_is_reduce_contents_scan against
the literal composition, errors included.

Given a term's text, the scan route runs the same horner_step as the
parser's close action.  The parser closes constructors in that same
post-order and reserves each one's preorder slot when it opens, so one
pass over the text lists the Horner values in contents order and builds
no term: the fold after the unfold, with the intermediate tree removed
(a hylomorphism).  tests/test_horner.py::test_text_route_is_parse_then_scan
checks it against parse_term followed by mss_generic, errors included.

Scan and brute agree when the labels lie in the carrier,
reduce_op.element_ok; add obeys the reduction laws of the collection
kind; and mul has a unit, is associative and distributes over add on
both sides.  The gate, ensure_distributive, checks all those laws on
every argument tuple of a fixed pool inside the carrier before either
route answers.  horner_step checks the carrier once per label, so a
pass that finishes vouches for the text's syntax and its labels.  One
that stops is not rerun: only then are a text parsed and the term walked
(_check_carrier), to order its faults, as in horner_generic.

Lemma: once the labels are in the carrier, the routes' values need no
domain check, so both routes reduce unchecked (_reduce_values): max, min
and or, order-free on ints, fold the values as they come.
  - Scan values lie in the carrier.  Each is b `add` a product, with b
    the mul unit: max-plus values are at least 0, min-plus values at
    most 0, and bool-or-and values are bits.  Plus-times has no carrier.
  - A brute product may equal the sentinel, -2^63 or 2^63 - 1.  But every
    segment family holds the empty pruning, worth b, so max and min over
    it are unaffected.
tests/test_horner.py::test_scan_values_lie_in_the_carrier checks the
first half, and ::test_routes_agree_at_the_sentinels the second.

The first half gives horner_step a closed form on three CLI semirings,
exact in value, type and error, since a step's kids are its own values.
  - Max-plus and min-plus, b = 0, mul's unit.  The kids are all at least
    0 (max) or all at most 0 (min), so folded right to left every partial
    sum of them lies between 0 and k = sum(kids): one leaves 64 bits
    exactly when k does.  The last partial sum is label + k (k when the
    layer has no label).  So given an exact-int label in the carrier, and
    k and label + k in range, the step is 0 `add` (label + k): one C sum
    and a few comparisons.  Every other case (a label outside the carrier
    or not an int, two labels, a sum out of range, a pruned slot's None,
    which sum refuses) runs the generic step, which raises the error, with
    its message, that the fold would.
  - Bool-or-and, b = 1, which is or's top on bits.  and_ on ints never
    raises, so once the labels are bits and the kids are the step's own
    1s, the value is 1.  Kids in any other form run the generic step.
tests/test_horner.py::test_the_closed_horner_steps_are_the_literal_step_at_every_edge
checks them against the literal step on every edge tuple.
"""

from __future__ import annotations

import functools
import operator
from itertools import accumulate, islice
from typing import Callable, NamedTuple

from .errors import CarrierError, DistributivityError, ReduceLawError, RoutesDisagreeError
from .ints import I64_MAX, I64_MIN, check_i64, checked_add, checked_mul
# segbench's traced run rebinds these names here, so they stay bound
from .labelled import preorder_values, scan_generic  # noqa: F401
from .pruning import prune  # noqa: F401
from .schemes import fold  # noqa: F401
from .monads import (
    MAX_REDUCE,
    MIN_REDUCE,
    OR_REDUCE,
    SUM_REDUCE,
    Collection,
    CollectionKind,
    ReduceOp,
    broken_reduction_law,
    collection,
    first_broken_law,
    reduce,
    reduce_law_failure,
)
from .pruning import _Fault, _check_guard, _segs_items, prune_count, pruned_fold, segs_count
from .schemes import Algebra, contents_term
from .shapes import ShapeKind, Term, _parse, parse_term


class Semiring(NamedTuple):
    """A semiring is its reduction plus a multiplication: add is
    reduce_op.fn, and mul, with unit mul_unit, distributes over it.
    reduce_op.element_ok is the carrier."""

    name: str
    reduce_op: ReduceOp
    mul: Callable[[int, int], int]
    mul_unit: int


MAX_PLUS = Semiring("max-plus", MAX_REDUCE, checked_add, 0)
MIN_PLUS = Semiring("min-plus", MIN_REDUCE, checked_add, 0)
PLUS_TIMES = Semiring("plus-times", SUM_REDUCE, checked_mul, 1)
BOOL_OR_AND = Semiring("bool-or-and", OR_REDUCE, operator.and_, 1)

SEMIRINGS = {s.name: s for s in (MAX_PLUS, MIN_PLUS, PLUS_TIMES, BOOL_OR_AND)}


@functools.cache
def _broken_mul_law(s: Semiring) -> tuple[str, tuple] | None:
    """The first law of mul that s breaks on the pool inside the carrier,
    with its arguments, or None; memoised per semiring."""
    add, mul, one = s.reduce_op.fn, s.mul, s.mul_unit
    return first_broken_law(s.reduce_op.element_ok, (
        ("unital", 1, lambda a: mul(one, a) == a == mul(a, one)),
        ("associative", 3, lambda a, b, c: mul(mul(a, b), c) == mul(a, mul(b, c))),
        ("left-distributive", 3,
         lambda a, b, c: mul(a, add(b, c)) == add(mul(a, b), mul(a, c))),
        ("right-distributive", 3,
         lambda a, b, c: mul(add(b, c), a) == add(mul(b, a), mul(c, a)))))


def ensure_distributive(s: Semiring, kind: CollectionKind, force: bool = False) -> None:
    """Gate: the laws under which scan and brute agree, checked on every
    tuple of a fixed pool inside the carrier.  First add's reduction laws
    for kind, the ones reduce would check: a failure raises reduce's
    ReduceLawError on lists and bags, DistributivityError naming the law
    on sets.  Then mul's laws: a failure raises DistributivityError
    naming the law and its arguments.  force skips the gate."""
    if force:
        return
    broken = broken_reduction_law(s.reduce_op, kind)
    if broken is not None and kind is not CollectionKind.SET:
        raise ReduceLawError(reduce_law_failure(s.reduce_op, kind))
    if broken is not None:
        raise DistributivityError(
            f"semiring '{s.name}' has a non-{broken[0]} add; "
            "its reduction is not well-defined on sets (use --force to run anyway)")
    broken = _broken_mul_law(s)
    if broken is not None:
        raise DistributivityError(
            f"semiring '{s.name}' has a non-{broken[0]} mul at {broken[1]}; "
            "Horner's rule does not hold for it (use --force to run anyway)")


# ---------------------------------------------------------------------------
# list folds and the classical chain

def foldr_list(step: Callable, e, xs: list):
    """foldr: h [] = e, h (x:rest) = step x (h rest)."""
    acc = e
    for x in reversed(xs):
        acc = step(x, acc)
    return acc


def scanr_list(step: Callable, e, xs: list) -> list:
    """Folds of every tail; length is len(xs) + 1 and the head is the
    fold of the whole list."""
    out = [e]
    acc = e
    for x in reversed(xs):
        acc = step(x, acc)
        out.append(acc)
    out.reverse()
    return out


def tails_list(xs: list) -> list[list]:
    return [xs[i:] for i in range(len(xs) + 1)]


def inits_list(xs: list) -> list[list]:
    return [xs[:i] for i in range(len(xs) + 1)]


def segs_list(xs: list) -> list[list]:
    """All contiguous segments: concat . map inits . tails."""
    return [seg for tail in tails_list(xs) for seg in inits_list(tail)]


def mss_spec(xs: list) -> int:
    """Maximum segment sum, straight from the definition
    maximum . map sum . segs.  Cubic time; segments are streamed rather
    than materialised so memory stays linear.  A sum is range-checked
    only when it beats the best: like the other algorithms, this raises
    OverflowError exactly when the maximum leaves 64 bits."""
    best = 0  # the empty segment
    for i in range(len(xs)):
        for j in range(i + 1, len(xs) + 1):
            s = sum(islice(xs, i, j))  # islice keeps the loop allocation-free
            if s > best:
                best = check_i64(s, "segment sum")
    return best


def mss_quadratic(xs: list) -> int:
    """maximum . map (maximum . map sum . inits) . tails: the inner
    composition is the maximum running prefix sum of each tail."""
    best = 0
    n = len(xs)
    for i in range(n + 1):
        m = max(accumulate(xs[i:], initial=0))
        check_i64(m, "prefix sum")
        if m > best:
            best = m
    return best


def _mss_step(z: int, u: int) -> int:  # step u z, accumulator first
    s = u + z
    if not I64_MIN <= s <= I64_MAX:  # check_i64 writes the message
        check_i64(s, "sum")
    return s if s > 0 else 0


def max_prefix_sum(xs: list) -> int:
    """maximum . map sum . inits, as the single fold
    foldr step 0 where step u z = 0 `max` (u + z)."""
    return functools.reduce(_mss_step, reversed(xs), 0)


def mss_linear(xs: list) -> int:
    """Maximum segment sum in linear time: the fold above, scanned over
    every tail, then maximised."""
    return max(accumulate(reversed(xs), _mss_step, initial=0))


def horner_list(s: Semiring, xs: list):
    """add-reduction of the mul-products of all prefixes, as one fold:
    foldr step mul_unit where step u z = mul_unit `add` (u `mul` z)."""
    return foldr_list(lambda u, z: s.reduce_op.fn(s.mul_unit, s.mul(u, z)), s.mul_unit, xs)


# ---------------------------------------------------------------------------
# the generic pipeline

def product_step(s: Semiring, b) -> Callable:
    """The layer 'product' as the parser's close action: the foldr with mul
    from seed b over labels + kids (a contentless layer is worth b)."""
    mul = s.mul

    def step(tag: str, labels: tuple, kids: tuple):
        acc = b
        for x in reversed(labels + kids):
            acc = mul(x, acc)
        return acc

    return step


def generic_product_alg(s: Semiring, b) -> Algebra:
    """product_step over a node."""
    step = product_step(s, b)
    return lambda n: step(n.tag, n.labels, n.children)


def horner_step(s: Semiring, b) -> Callable:
    """One Horner step, also the parser's close action: b `add` product_step,
    written out as it runs once per node on every scan.  A label outside
    the carrier raises a bare CarrierError; _check_carrier writes messages.

    Max-plus and min-plus with b = 0, and bool-or-and with b = 1, take the
    closed forms in the module docstring wherever they are exact, and this
    generic step elsewhere, which then writes every error.  Their kids are
    the step's own values, or None in a pruned slot, as every fold passes."""
    mul, add, ok = s.mul, s.reduce_op.fn, s.reduce_op.element_ok

    def step(tag: str, labels: tuple, kids: tuple):
        if ok is not None:
            for v in labels:
                if not ok(v):
                    raise CarrierError
        acc = b
        for x in reversed(labels + kids):
            acc = mul(x, acc)
        return add(b, acc)

    if type(b) is not int:  # False == 0, but its steps are not the closed forms'
        return step
    if b == 0 and s == MAX_PLUS:
        def max_plus(tag: str, labels: tuple, kids: tuple):
            try:
                x, = labels or (0,)  # a layer with no label: mul's unit
                k = sum(kids)
            except (TypeError, ValueError):
                return step(tag, labels, kids)
            if type(x) is int and I64_MIN < x and k <= I64_MAX and (v := x + k) <= I64_MAX:
                return v if v > 0 else 0
            return step(tag, labels, kids)

        return max_plus
    if b == 0 and s == MIN_PLUS:
        def min_plus(tag: str, labels: tuple, kids: tuple):
            try:
                x, = labels or (0,)
                k = sum(kids)
            except (TypeError, ValueError):
                return step(tag, labels, kids)
            if type(x) is int and x < I64_MAX and k >= I64_MIN and (v := x + k) >= I64_MIN:
                return v if v < 0 else 0
            return step(tag, labels, kids)

        return min_plus
    if b == 1 and s == BOOL_OR_AND:
        def bool_or_and(tag: str, labels: tuple, kids: tuple):
            try:
                x, = labels or (1,)
            except ValueError:
                return step(tag, labels, kids)
            if type(x) is int and 0 <= x <= 1 and kids.count(1) == len(kids):
                return 1
            return step(tag, labels, kids)

        return bool_or_and
    return step


def horner_alg(s: Semiring, b) -> Algebra:
    """One Horner step: b `add` product-of-contents."""
    step = horner_step(s, b)
    return lambda n: step(n.tag, n.labels, n.children)


def _check_carrier(s: Semiring, t: Term) -> None:
    ok = s.reduce_op.element_ok
    for v in contents_term(t) if ok else ():
        if not ok(v):
            raise CarrierError(f"label {v} outside the carrier of '{s.name}'")


def horner_generic(s: Semiring, b, t: Term):
    """Fold the Horner step over t: its prunings' products, reduced."""
    try:
        return _parse(t, None, horner_step(s, b))
    except (CarrierError, OverflowError):
        _check_carrier(s, t)
        raise


def _reduce_values(op: ReduceOp, kind: CollectionKind, vals: list, check: bool = False):
    """reduce op over kind's collection of vals: max, min and or on exact
    ints, which no order or repeat changes, fold vals as they come; all
    else folds kind's canonical form (sum's first overflow depends on it)."""
    if op.fn in (max, min, operator.or_) and set(map(type, vals)) <= {int}:
        return reduce(op, Collection(kind, tuple(vals)), check=check)
    return reduce(op, collection(kind, vals), check=check)


def _segment_products(s: Semiring, b, t: Term) -> list:
    """The pruned-term product of every segment of t, seeded with b, in
    segment order, if there are at most GUARD segments.  Each is folded
    once, back to front through one memo: one product_step on its
    children's entries (see pruning).  A fault raises the first faulted
    segment's entry, oracles.pruned_fold_literal's error."""
    f, memo = product_step(s, b), {}
    vals = [pruned_fold(b, f, p, memo) for p in reversed(_segs_items(t))]
    vals.reverse()
    if _Fault in map(type, vals):
        raise next(v for v in vals if type(v) is _Fault).error
    return vals


def horner_generic_brute(s: Semiring, b, t: Term):
    """The composition horner_generic fuses: reduce the pruned-term
    products over all prunings.  These are the first prune_count(t)
    segments.  Any fault lies inside one of them, so the first segment
    that faults is one of them too."""
    vals = _segment_products(s, b, t)
    return _reduce_values(s.reduce_op, CollectionKind.BAG, vals[:prune_count(t)], check=True)


def mss_generic(s: Semiring, t: Term | str, via: str = "scan",
                kind: CollectionKind = CollectionKind.BAG,
                force: bool = False, *, shape: ShapeKind | None = None):
    """Best segment value over all generic segments of t, a term or, with
    its shape, the text of one.  The scan route reduces the contents of
    one Horner scan, seeded with the mul unit, in one post-order pass (see
    the module docstring): over a text, horner_step is the parser's close
    action and no term is built.  A label outside the carrier or an
    overflow stops the pass or its reduce; the error is held, not rerun,
    behind the faults that come first.  A finished pass read every token
    and label, so only a stopped one is followed by the scan route's parse
    or a carrier walk.  The brute route parses and walks, then reduces
    every segment's pruned-term product (_segment_products).  The check
    route runs both and returns their common value.  They agree whenever
    the gate passes (add's laws for kind, mul's semiring laws), unless
    forced.  Errors come in order: an unknown route, a syntax fault or the
    node limit, the gate, the first label outside the carrier in contents
    order, the check route's guard, the first overflow in post-order (the
    scan's, then the brute route's, within its first segment that
    overflows), the check route's RoutesDisagreeError.  Another error of a
    library mul, or of its add in the scan's reduce, comes where the scan
    meets it, before the gate, for a term or a text.  Both routes reduce
    as _reduce_values does: a library add folds kind's canonical order."""
    if via not in ("scan", "brute", "check"):
        raise ValueError(f"unknown route {via!r}")
    b, vals, stopped, finished = s.mul_unit, [], None, False
    if via != "brute":
        try:
            _parse(t, shape, horner_step(s, b), out=vals)
            finished = True  # every token read, every label in the carrier
            scan = _reduce_values(s.reduce_op, kind, vals)
        except (CarrierError, OverflowError) as e:  # held for the faults that come first
            stopped = e
    if isinstance(t, str) and (via != "scan" or not finished):
        t = parse_term(t, shape)
    ensure_distributive(s, kind, force)
    if not finished:
        _check_carrier(s, t)
    if stopped:
        if via == "check":  # the brute route's guard refuses ahead of it
            _check_guard(segs_count(t))
        raise stopped
    if via == "scan":
        return scan
    brute = _reduce_values(s.reduce_op, kind, _segment_products(s, b, t))
    if via == "check" and scan != brute:
        raise RoutesDisagreeError(f"routes disagree: scan={scan} brute={brute}")
    return brute

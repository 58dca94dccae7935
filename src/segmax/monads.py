"""Finite collection monads: lists, bags, and sets.

A Collection is a kind tag plus a canonical tuple of elements:

    list  order- and multiplicity-significant, kept as given
    bag   sorted by the canonical element order (multiplicity kept)
    set   sorted and duplicate-free

Equality of collections is equality of canonical forms, which makes bag
and set equality order-independent and decidable.  union is associative
with empty as unit for every kind, commutative for bags and sets, and
idempotent for sets only -- the asymmetry that ultimately decides which
reductions each kind admits.

The canonical order is canonical_key's.  Where Python's own order is the
same, as it is on elements built only of exact ints, plain tuples and
Collections (see collection), bags and sets sort in C without a key.
"""

from __future__ import annotations

import functools
import itertools
import operator
from enum import Enum
from typing import Any, Callable, Iterable, NamedTuple

from .errors import KindMismatchError, ReduceLawError
from .ints import I64_MAX, I64_MIN, checked_add
from .shapes import Node, _EmptyMark, preorder, struct_key


class CollectionKind(Enum):
    LIST = "list"
    BAG = "bag"
    SET = "set"
    __hash__ = object.__hash__  # members are singletons; Enum's hash runs Python code


_LIST, _SET = CollectionKind.LIST, CollectionKind.SET  # a member lookup costs 80 ns (3.11)


class Collection(NamedTuple):
    kind: CollectionKind
    items: tuple


def canonical_key(x) -> tuple:
    """Total-order key over every element type collections may hold."""
    if isinstance(x, (Node, _EmptyMark)):  # payload slots, in preorder, break struct_key's ties
        return (2, struct_key(x), tuple(canonical_key(y) for y in preorder(x)
                                        if not isinstance(y, (Node, _EmptyMark))))
    if isinstance(x, Collection):
        return (3, x.kind.value, tuple(canonical_key(e) for e in x.items))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, tuple):
        return (1, tuple(canonical_key(e) for e in x))
    raise TypeError(f"no canonical order for {type(x).__name__}")


def _native_sorted(tup: tuple) -> list | None:
    """tup in Python's order where that is canonical_key's (see
    collection), else None."""
    stack = [tup]
    while stack:
        for e in stack.pop():
            t = type(e)
            if t is tuple:
                stack.append(e)
            elif t is Collection:
                stack.append(e.items)
            elif t is not int:
                return None
    try:
        return sorted(tup)
    except TypeError:  # an int beside a tuple, or two kinds of Collection
        return None


def collection(kind: CollectionKind, items: Iterable) -> Collection:
    """Build a collection in canonical form.

    On elements built only of exact ints, plain tuples and Collections,
    Python's order is canonical_key's: tuples compare by < at the first
    slot unequal by ==, as (1, keys) do; ints as (0, x) do; Collections of
    one kind by their items, as (3, kind, keys) do; () sorts before a
    Collection in both; an int beside a tuple, or two kinds (Enums have no
    order), raise, and canonical_key sorts instead.  Timsort makes the
    same comparisons with the same outcomes, so ties keep their order."""
    tup = tuple(items)
    if kind is _LIST or not tup or (len(tup) == 1 and type(tup[0]) is int):
        return Collection(kind, tup)
    ints = set(map(type, tup)) <= {int}
    if ints and kind is _SET:
        return Collection(kind, tuple(sorted(set(tup))))
    ordered = sorted(tup) if ints else _native_sorted(tup) or sorted(tup, key=canonical_key)
    if kind is not _SET:
        return Collection(kind, tuple(ordered))
    return Collection(kind, tuple(e for e, _ in itertools.groupby(ordered)))


def empty(kind: CollectionKind) -> Collection:
    return Collection(kind, ())


def singleton(kind: CollectionKind, a) -> Collection:
    return Collection(kind, (a,))


def _same_kind(x: Collection, y: Collection) -> CollectionKind:
    if x.kind is not y.kind:
        raise KindMismatchError(f"cannot combine {x.kind.value} with {y.kind.value}")
    return x.kind


def union(x: Collection, y: Collection) -> Collection:
    kind = _same_kind(x, y)
    return collection(kind, x.items + y.items)


def map_c(f: Callable, x: Collection) -> Collection:
    return collection(x.kind, (f(e) for e in x.items))


def join_c(xx: Collection) -> Collection:
    """Flatten a collection of collections (all of the outer kind)."""
    items: list = []
    for inner in xx.items:
        if not isinstance(inner, Collection) or inner.kind is not xx.kind:
            raise KindMismatchError("join needs inner collections of the same kind")
        items.extend(inner.items)
    return collection(xx.kind, items)


def opt(a, x: Collection) -> Collection:
    """Add one more alternative:  opt a x = singleton a `union` x."""
    return union(singleton(x.kind, a), x)


def cp(x: Collection, y: Collection) -> Collection:
    """All pairs, by the monadic definition
    cp (x, y) = join (map (\\a -> map (\\b -> (a, b)) y) x)."""
    _same_kind(x, y)
    return join_c(map_c(lambda a: map_c(lambda b: (a, b), y), x))


def dist_list(mbs, kind: CollectionKind) -> Collection:
    """Distribute a sequence of collections into a collection of tuples,
    one element drawn per position:

        dist []       = singleton ()
        dist (mb:mbs) = map cons (cp (mb, dist mbs))
    """
    acc = singleton(kind, ())
    for mb in reversed(list(mbs)):
        if not isinstance(mb, Collection) or mb.kind is not kind:
            raise KindMismatchError(f"dist_list needs {kind.value} collections")
        acc = map_c(lambda ab: (ab[0],) + ab[1], cp(mb, acc))
    return acc


# ---------------------------------------------------------------------------
# reductions

class ReduceOp(NamedTuple):
    """A binary operator with unit, used as a collection reduction.

    For a reduction to be well-defined the operator must be associative
    with identity unit (all kinds), commutative (bags and sets), and
    idempotent (sets).  These are semantic preconditions:
    broken_reduction_law checks them on every tuple of a fixed pool
    inside the carrier element_ok, and reduce() refuses to compute when
    one fails.  The carrier is the labels' (max over 64-bit words needs
    labels strictly above the bottom sentinel); the carrier check reads
    it, reduce does not (see the horner module's lemma).
    """

    name: str
    fn: Callable[[Any, Any], Any]
    unit: Any
    element_ok: Callable | None = None


_LAW_DOMAIN = (-3, -1, 0, 1, 2, 5)


@functools.cache
def _law_pool(element_ok: Callable | None) -> tuple:  # the carrier is read once
    return tuple(v for v in _LAW_DOMAIN if element_ok is None or element_ok(v))


def first_broken_law(element_ok: Callable | None, laws) -> tuple[str, tuple] | None:
    """The first of laws, (name, arity, holds) triples, to fail on an
    argument tuple from the pool inside the carrier element_ok, with the
    first such tuple, or None.  The one law loop, over every tuple: the
    reduction laws, horner's mul laws and fold fusion's side condition."""
    pool = _law_pool(element_ok)
    for law, arity, holds in laws:
        for xs in itertools.product(pool, repeat=arity):
            if not holds(*xs):
                return law, xs
    return None


@functools.cache
def broken_reduction_law(op: ReduceOp, kind: CollectionKind) -> tuple[str, tuple] | None:
    """The first law op breaks as a reduction of kind, on every tuple of
    the pool inside its carrier, with its arguments, or None; memoised.
    reduce, the distributivity gate and the law registry's reducers read it."""
    f, u = op.fn, op.unit
    laws = [("associative", 3, lambda a, b, c: f(f(a, b), c) == f(a, f(b, c))),
            ("unital", 1, lambda a: f(u, a) == a == f(a, u))]
    if kind is not CollectionKind.LIST:
        laws.append(("commutative", 2, lambda a, b: f(a, b) == f(b, a)))
    if kind is CollectionKind.SET:
        laws.append(("idempotent", 1, lambda a: f(a, a) == a))
    return first_broken_law(op.element_ok, laws)


def reduce_law_failure(op: ReduceOp, kind: CollectionKind) -> str | None:
    """broken_reduction_law(op, kind) as a message, or None."""
    broken = broken_reduction_law(op, kind)
    return broken and f"'{op.name}' is not {broken[0]} at {broken[1]} ({kind.value} reduction)"


def reduce(op: ReduceOp, x: Collection, *, check: bool = True) -> Any:
    """Fold the collection with op, starting from its unit.

    reduce(empty) = unit, reduce(singleton a) = a, and
    reduce(x `union` y) = reduce(x) `op` reduce(y) whenever the
    preconditions for x's kind hold.  check=False skips the precondition
    check: the segment routes' gate has made it, and a law skips it to
    demonstrate what goes wrong.  Elements are not checked against
    op.element_ok, the carrier of the labels they are built from.  max
    and min fold in one C call, making the pairwise fold's comparisons.
    """
    if check and broken_reduction_law(op, x.kind) is not None:
        raise ReduceLawError(reduce_law_failure(op, x.kind))
    if op.fn is max or op.fn is min:
        return op.fn(itertools.chain((op.unit,), x.items))
    return functools.reduce(op.fn, x.items, op.unit)


def _above_bottom(e) -> bool:
    return isinstance(e, int) and e > I64_MIN


def _below_top(e) -> bool:
    return isinstance(e, int) and e < I64_MAX


def _is_bit(e) -> bool:
    return e in (0, 1)


MAX_REDUCE = ReduceOp("max", max, I64_MIN, _above_bottom)
MIN_REDUCE = ReduceOp("min", min, I64_MAX, _below_top)
SUM_REDUCE = ReduceOp("sum", checked_add, 0)
OR_REDUCE = ReduceOp("or", operator.or_, 0, _is_bit)


# ---------------------------------------------------------------------------
# textual form

_BRACKETS = {
    CollectionKind.LIST: ("[", "]"),
    CollectionKind.BAG: ("<", ">"),
    CollectionKind.SET: ("{", "}"),
}


def to_text(x: Collection) -> str:
    open_b, close_b = _BRACKETS[x.kind]
    return open_b + ", ".join(map(str, x.items)) + close_b

"""Executable law registry with seeded generators and shrinking.

Every equational claim the library rests on is a law case here: a
deterministic generator of named draws plus a violation check, whose
docstring states the law, that ``@_law`` registers where it is defined.
The check takes a draw's values as keyword arguments, its named choices
resolved through ``_NAMED``.
Laws are expected either to HOLD (no violation in any trial) or to FAIL
with a witness (the checker must find a concrete counterexample).  Runs
are reproducible: each law draws from its own RNG stream derived from
(seed, law id), so reports are byte-stable and cases can run in any
order or in parallel without changing results.

Found counterexamples are shrunk structurally (terms to their children,
then label magnitudes toward zero; collections by dropping and shrinking
elements) and serialized so they can be replayed standalone.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import random
from typing import Any, Callable, NamedTuple

from . import oracles
from .errors import UnknownLawError
from .horner import (
    MAX_PLUS,
    PLUS_TIMES,
    SEMIRINGS,
    Semiring,
    generic_product_alg,
    horner_alg,
    horner_generic,
    horner_generic_brute,
    horner_list,
    inits_list,
    foldr_list,
    mss_generic,
    mss_linear,
    mss_quadratic,
    mss_spec,
)
from .labelled import map_labelled, scan_generic, subterms, subterms_para
from .monads import (
    MAX_REDUCE,
    MIN_REDUCE,
    SUM_REDUCE,
    Collection,
    CollectionKind,
    broken_reduction_law,
    collection,
    cp,
    dist_list,
    empty,
    first_broken_law,
    join_c,
    map_c,
    reduce,
    singleton,
    union,
)
from .pruning import prune, prune_count, segs_count
from .schemes import (
    bidist_node,
    contents_node,
    contents_term,
    distribute_node,
    fold,
    map_term,
)
from .shapes import (
    EMPTY,
    SIGNATURES,
    Node,
    ShapeKind,
    Term,
    _EmptyMark,
    bimap_node,
    parse_pruned,
    print_pruned,
)

HOLDS = "HOLDS"
FAILS = "FAILS_WITH_WITNESS"
SHRINK_BUDGET = 500  # candidate inputs a shrink may try

ALL_SHAPES = tuple(ShapeKind)
ALL_KINDS = tuple(CollectionKind)
# per shape: the childless constructor a drawn term stops at, and the one it grows by
STOP_GROW = {shape: tuple(sorted(sigs, key=lambda tag: sigs[tag].n_children))
             for shape, sigs in SIGNATURES.items()}

# (collection kind, semiring) pairs that pass the distributivity gate
# and are exercised by every distributivity-flavoured law.
GATED_PAIRS = (
    (CollectionKind.BAG, "max-plus"),
    (CollectionKind.BAG, "plus-times"),
    (CollectionKind.LIST, "max-plus"),
)


# ---------------------------------------------------------------------------
# named function families (so witnesses stay serializable)

def _sum_alg(n: Node) -> int:
    return sum(contents_node(n))


def _size_alg(n: Node) -> int:
    return 1 + sum(n.children)


def _depth_alg(n: Node) -> int:
    return 1 + max(n.children, default=0)


ALGEBRAS: dict[str, Callable[[Node], int]] = {
    "sum": _sum_alg,
    "size": _size_alg,
    "depth": _depth_alg,
    "maxplus-horner": horner_alg(MAX_PLUS, 0),
    "plustimes-horner": horner_alg(PLUS_TIMES, 1),
}

RELABELS: dict[str, Callable[[int], int]] = {
    "negate": lambda l: -l,
    "inc": lambda l: l + 1,
    "double": lambda l: 2 * l,
    "clamp0": lambda l: max(l, 0),
}

REDUCERS = {"max": MAX_REDUCE, "min": MIN_REDUCE, "sum": SUM_REDUCE}
# the reducers passing each kind's reduction laws (sum is not idempotent)
REDUCERS_FOR_KIND = {
    kind: tuple(n for n, op in REDUCERS.items() if broken_reduction_law(op, kind) is None)
    for kind in CollectionKind
}


# concrete (h, f, g) with h . f = g . F h, decided by _broken_side_condition
FUSION_TRIPLES: dict[str, tuple[Callable, Callable, Callable]] = {
    "double-sum": (
        lambda x: 2 * x,
        _sum_alg,
        lambda n: 2 * sum(n.labels) + sum(n.children),
    ),
    "shift3-sum": (
        lambda x: x + 3,
        _sum_alg,
        lambda n: sum(n.labels) + sum(n.children) + 3 * (1 - len(n.children)),
    ),
    "double-size": (
        lambda x: 2 * x,
        _size_alg,
        lambda n: 2 + sum(n.children),
    ),
}


def _side_condition(h, f, g, shape: ShapeKind, tag: str, n_labels: int, *slots) -> bool:
    """h . f = g . F h on one constructor layer, given its slots: labels,
    then the children's carrier values."""
    n = Node(shape, tag, slots[:n_labels], slots[n_labels:])
    return h(f(n)) == g(bimap_node(lambda l: l, h, n))


@functools.cache
def _broken_side_condition() -> tuple[str, tuple] | None:
    """The first (triple, constructor) on which fold fusion's side
    condition fails, with its slots, or None: one law per pair, checked
    by first_broken_law on every tuple of its pool; memoised per process."""
    return first_broken_law(None, [
        (f"{name} at {shape.value} {tag}", sig.n_labels + sig.n_children,
         functools.partial(_side_condition, *triple, shape, tag, sig.n_labels))
        for name, triple in FUSION_TRIPLES.items()
        for shape, sigs in SIGNATURES.items() for tag, sig in sigs.items()])


# ---------------------------------------------------------------------------
# generators

def gen_term(rng: random.Random, shape: ShapeKind, max_depth: int = 6,
             lo: int = -8, hi: int = 8) -> Term:
    sigs = SIGNATURES[shape]
    stop, grow = STOP_GROW[shape]

    def build(depth: int) -> Term:
        tag = stop if depth >= max_depth or rng.random() < 0.3 else grow
        sig = sigs[tag]
        labels = tuple(rng.randint(lo, hi) for _ in range(sig.n_labels))
        children = tuple(build(depth + 1) for _ in range(sig.n_children))
        return Node(shape, tag, labels, children)

    return build(0)


def gen_term_capped(rng: random.Random, shape: ShapeKind, count_fn,
                    cap: int, max_depth: int = 5, lo: int = -8,
                    hi: int = 8) -> Term:
    """Random term whose count_fn (pruning or segment count) stays under
    cap; retries shallower until it fits."""
    depth = max_depth
    for _ in range(40):
        t = gen_term(rng, shape, depth, lo, hi)
        if count_fn(t) <= cap:
            return t
        depth = max(1, depth - 1)
    return gen_term(rng, shape, 1, lo, hi)


def gen_ints(rng: random.Random, max_len: int, lo: int, hi: int,
             min_len: int = 0) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(rng.randint(min_len, max_len))]


def gen_coll(rng: random.Random, kind: CollectionKind, max_size: int = 5,
             lo: int = -8, hi: int = 8, min_size: int = 0) -> Collection:
    return collection(kind, gen_ints(rng, max_size, lo, hi, min_size))


def gen_nested(rng: random.Random, kind: CollectionKind, depth: int,
               min_inner: int = 0) -> Collection:
    if depth == 0:
        return gen_coll(rng, kind, 3, min_size=min_inner)
    return collection(
        kind,
        (gen_nested(rng, kind, depth - 1, min_inner) for _ in range(rng.randint(0, 3))),
    )


def _semiring_label_bounds(sname: str) -> tuple[int, int]:
    # keep plus-times products comfortably inside 64 bits
    return (-3, 3) if sname == "plus-times" else (-8, 8)


# ---------------------------------------------------------------------------
# witness codec

def encode_value(v) -> Any:
    if isinstance(v, bool):
        raise TypeError("boolean inputs are not used")
    if isinstance(v, int) or isinstance(v, str):
        return v
    if isinstance(v, _EmptyMark):
        return {"t": "empty"}
    if isinstance(v, Node):
        return {"t": "node", "shape": v.shape.value, "sx": print_pruned(v)}
    if isinstance(v, Collection):
        return {"t": "coll", "kind": v.kind.value,
                "items": [encode_value(e) for e in v.items]}
    if isinstance(v, tuple):
        return {"t": "tuple", "items": [encode_value(e) for e in v]}
    if isinstance(v, list):
        return {"t": "seq", "items": [encode_value(e) for e in v]}
    raise TypeError(f"cannot serialize {type(v).__name__}")


def decode_value(v) -> Any:
    if isinstance(v, (int, str)):
        return v
    tag = v["t"]
    if tag == "empty":
        return EMPTY
    if tag == "node":
        return parse_pruned(v["sx"], ShapeKind(v["shape"]))
    if tag == "coll":
        return collection(CollectionKind(v["kind"]),
                          [decode_value(e) for e in v["items"]])
    if tag == "tuple":
        return tuple(decode_value(e) for e in v["items"])
    if tag == "seq":
        return [decode_value(e) for e in v["items"]]
    raise TypeError(f"cannot deserialize {v!r}")


def encode_inputs(inputs: dict) -> str:
    return json.dumps({k: encode_value(v) for k, v in inputs.items()},
                      sort_keys=True, separators=(",", ":"))


def decode_inputs(text: str) -> dict:
    return {k: decode_value(v) for k, v in json.loads(text).items()}


# ---------------------------------------------------------------------------
# shrinking: structure first (term depth, collection size), labels second

def _container(v) -> tuple[tuple, Callable[[tuple], Any], bool] | None:
    """A container draw's elements, a function rebuilding it from new ones,
    and whether it may lose one (a tuple keeps its arity); else None."""
    if isinstance(v, Collection):
        return v.items, lambda items: collection(v.kind, items), True
    if isinstance(v, list):
        return tuple(v), list, True
    if isinstance(v, tuple) and not isinstance(v, Node):
        return v, tuple, False
    return None


def _candidates(v):
    if isinstance(v, Node):
        for c in v.children:
            if isinstance(c, Node):
                yield c
        halved = map_term(lambda l: int(l / 2), v)
        if halved != v:
            yield halved
        zeroed = map_term(lambda l: 0, v)
        if zeroed not in (v, halved):
            yield zeroed
        for i in range(sum(map(bool, contents_term(v)))):  # then one nonzero label
            seen = itertools.count()
            yield map_term(lambda l: 0 if l and next(seen) == i else l, v)
    elif isinstance(v, int) and not isinstance(v, bool):
        for c in (0, 1, -1, int(v / 2)):
            if c != v:
                yield c
    elif (box := _container(v)) is not None:
        items, rebuild, droppable = box
        for i in range(len(items) if droppable else 0):
            yield rebuild(items[:i] + items[i + 1 :])
        for i, e in enumerate(items):
            for cand in itertools.islice(_candidates(e), 4):
                yield rebuild(items[:i] + (cand,) + items[i + 1 :])


def _rewrite_ints(v, k: int):
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return k
    if isinstance(v, Node):
        return map_term(lambda _l: k, v)
    box = _container(v)
    return v if box is None else box[1](tuple(_rewrite_ints(e, k) for e in box[0]))


def shrink_inputs(inputs: dict, violated: Callable[[dict], bool]) -> dict:
    budget = SHRINK_BUDGET

    def still_bad(cand: dict) -> bool:
        try:
            return violated(cand)
        except Exception:
            return False

    def structural(current: dict) -> dict:
        nonlocal budget
        while budget > 0:
            for trial in ({**current, key: cand} for key in current
                          for cand in _candidates(current[key])):
                budget -= 1
                if still_bad(trial):
                    current = trial
                    break
                if budget <= 0:
                    return current
            else:
                return current
        return current

    current = structural(inputs)
    # coupled values (e.g. equal elements on both sides) cannot shrink
    # one key at a time; try flattening every integer to 0 or 1 at once
    for k in (0, 1):
        uniform = {key: _rewrite_ints(val, k) for key, val in current.items()}
        if uniform != current and still_bad(uniform):
            current = structural(uniform)
            break
    return current


# ---------------------------------------------------------------------------
# the registry

class Law(NamedTuple):
    id: str
    expectation: str
    gen: Callable[[random.Random], dict]
    check: Callable[..., bool]
    named: tuple[str, ...]  # the check's parameters that _NAMED resolves

    def violated(self, inputs: dict) -> bool:
        """Run the check on one draw, its named choices resolved by _NAMED."""
        if self.named:
            inputs = inputs | {k: _NAMED[k][inputs[k]] for k in self.named if k in inputs}
        return self.check(**inputs)


class LawReport(NamedTuple):
    id: str
    trials: int
    outcome: str
    expectation: str
    ok: bool
    witness: str | None


_REGISTRY: dict[str, Law] = {}

# where a draw's named choices are looked up; other values pass as drawn
_NAMED: dict[str, dict[str, Any]] = {
    "kind": {k.value: k for k in CollectionKind},
    "shape": {s.value: s for s in ShapeKind},
    "semiring": SEMIRINGS,
    "op": REDUCERS,
    "alg": ALGEBRAS,
    "relabel": RELABELS,
    "triple": FUSION_TRIPLES,
}


def _law(id: str, expectation: str, gen):
    """Register the decorated check as law `id`, drawing its inputs from `gen`."""
    def register(check: Callable[..., bool]) -> Callable[..., bool]:
        named = tuple(p for p in inspect.signature(check).parameters if p in _NAMED)
        _REGISTRY[id] = Law(id, expectation, gen, check, named)
        return check
    return register


# -- folds -------------------------------------------------------------------

def _gen_alg_term(rng: random.Random) -> dict:
    name = rng.choice(list(ALGEBRAS))
    if name == "plustimes-horner":
        # iterated products grow doubly exponentially with depth; keep
        # the carrier inside 64 bits
        term = gen_term(rng, rng.choice(ALL_SHAPES), max_depth=5, lo=-3, hi=3)
    else:
        term = gen_term(rng, rng.choice(ALL_SHAPES))
    return {"alg": name, "term": term}


def _gen_alg_base(rng: random.Random) -> dict:
    term = gen_term(rng, rng.choice(ALL_SHAPES), max_depth=0)  # one childless node
    return {"alg": rng.choice(list(ALGEBRAS)), "term": term}


# fold-universal registers first: LAW_IDS order is the report order
@_law("fold-universal-base", HOLDS, _gen_alg_base)
@_law("fold-universal", HOLDS, _gen_alg_term)
def _fold_universal(alg, term) -> bool:
    """fold alg equals alg applied over recursively folded children: the
    universal property, also at childless constructors."""
    one_step = alg(Node(term.shape, term.tag, term.labels,
                        tuple(fold(alg, c) for c in term.children)))
    return fold(alg, term) != one_step


def _gen_fusion(rng: random.Random) -> dict:
    return {"triple": rng.choice(list(FUSION_TRIPLES)),
            "term": gen_term(rng, rng.choice(ALL_SHAPES))}


@_law("fold-fusion", HOLDS, _gen_fusion)
def _fusion(triple, term) -> bool:
    """h . fold f = fold g when h . f = g . F h, a side condition decided
    once per process for every triple: a broken one fails every trial."""
    h, f, g = triple
    return _broken_side_condition() is not None or h(fold(f, term)) != fold(g, term)


def _gen_map_fusion(rng: random.Random) -> dict:
    return {"relabel": rng.choice(list(RELABELS)),
            "alg": rng.choice(["sum", "size", "depth"]),
            "term": gen_term(rng, rng.choice(ALL_SHAPES))}


@_law("fold-map-fusion", HOLDS, _gen_map_fusion)
def _map_fusion(relabel, alg, term) -> bool:
    """fold f . map g = fold (f . F g id)."""
    fused = fold(lambda n: alg(bimap_node(relabel, lambda c: c, n)), term)
    return fold(alg, map_term(relabel, term)) != fused


# -- labelled ----------------------------------------------------------------

@_law("scan-lemma", HOLDS, _gen_alg_term)
def _scan_lemma(alg, term) -> bool:
    """one-pass scan equals map-of-fold over subterms."""
    two_pass = map_labelled(lambda s: fold(alg, s), subterms(term))
    return scan_generic(alg, term) != two_pass


def _gen_term_only(rng: random.Random) -> dict:
    return {"term": gen_term(rng, rng.choice(ALL_SHAPES))}


@_law("subterms-para-equiv", HOLDS, _gen_term_only)
def _subterms_para(term) -> bool:
    """subterms as a fold equals subterms as a paramorphism."""
    return subterms(term) != subterms_para(term)


@_law("subterms-unfold-equiv", HOLDS, _gen_term_only)
def _subterms_unfold(term) -> bool:
    """subterms as a fold equals the top-down rebuilding."""
    return subterms(term) != oracles.subterms_unfold(term)


# -- collection monads -------------------------------------------------------

def _gen_monad_laws(rng: random.Random) -> dict:
    kind = rng.choice(ALL_KINDS)
    return {"kind": kind.value,
            "x": gen_coll(rng, kind),
            "xxx": gen_nested(rng, kind, 2)}


@_law("monad-laws", HOLDS, _gen_monad_laws)
def _monad_laws(kind, x, xxx) -> bool:
    """join . singleton = id, join . map singleton = id, join . map join =
    join . join."""
    if join_c(singleton(kind, x)) != x:
        return True
    if join_c(map_c(lambda a: singleton(kind, a), x)) != x:
        return True
    return join_c(map_c(join_c, xxx)) != join_c(join_c(xxx))


def _gen_join_dist(rng: random.Random) -> dict:
    kind = rng.choice(ALL_KINDS)
    return {"kind": kind.value,
            "xx": gen_nested(rng, kind, 1),
            "yy": gen_nested(rng, kind, 1)}


@_law("join-distributes", HOLDS, _gen_join_dist)
def _join_dist(kind, xx, yy) -> bool:
    """join of empty is empty; join distributes over union."""
    if join_c(empty(kind)) != empty(kind):
        return True
    return join_c(union(xx, yy)) != union(join_c(xx), join_c(yy))


def _gen_monad_algebra(rng: random.Random) -> dict:
    kind = rng.choice(ALL_KINDS)
    op = rng.choice(REDUCERS_FOR_KIND[kind])
    # max/min have no honest value on the empty collection of a 64-bit
    # carrier, so inner collections stay nonempty for them
    min_inner = 0 if op == "sum" else 1
    return {"kind": kind.value, "op": op,
            "a": rng.randint(-8, 8),
            "cc": gen_nested(rng, kind, 1, min_inner=min_inner)}


@_law("monad-algebra", HOLDS, _gen_monad_algebra)
def _monad_algebra(kind, op, a, cc) -> bool:
    """a reduction splits through return and join."""
    if reduce(op, singleton(kind, a)) != a:
        return True
    lhs = reduce(op, join_c(cc))
    rhs = reduce(op, map_c(lambda c: reduce(op, c), cc))
    return lhs != rhs


def _gen_reduce_dist(rng: random.Random) -> dict:
    kind = rng.choice(ALL_KINDS)
    op = rng.choice(REDUCERS_FOR_KIND[kind])
    return {"kind": kind.value, "op": op,
            "a": rng.randint(-8, 8), "b": rng.randint(-8, 8),
            "x": gen_coll(rng, kind), "y": gen_coll(rng, kind)}


@_law("reduce-distributes", HOLDS, _gen_reduce_dist)
def _reduce_dist(kind, op, a, b, x, y) -> bool:
    """the operator is recovered from singletons, and reduce splits across
    union."""
    if op.fn(a, b) != reduce(op, union(singleton(kind, a), singleton(kind, b))):
        return True
    return reduce(op, union(x, y)) != op.fn(reduce(op, x), reduce(op, y))


def _gen_reduce_unit(rng: random.Random) -> dict:
    kind = rng.choice(ALL_KINDS)
    return {"kind": kind.value,
            "op": rng.choice(REDUCERS_FOR_KIND[kind]),
            "x": gen_coll(rng, kind)}


@_law("reduce-unit-forced", HOLDS, _gen_reduce_unit)
def _reduce_unit(kind, op, x) -> bool:
    """reduce of the empty collection is the operator's unit."""
    if reduce(op, empty(kind)) != op.unit:
        return True
    return reduce(op, union(x, empty(kind))) != reduce(op, x)


# -- list Horner and the classical chain --------------------------------------

def _gen_horner_list(rng: random.Random) -> dict:
    sname = rng.choice(["plus-times", "max-plus"])
    if sname == "plus-times":
        xs = gen_ints(rng, 8, 0, 8)
    else:
        xs = gen_ints(rng, 8, -8, 8)
    return {"semiring": sname, "xs": xs}


@_law("horner-list", HOLDS, _gen_horner_list)
def _horner_list(semiring, xs) -> bool:
    """the prefix-products reduction equals the single Horner fold."""
    prods = [foldr_list(semiring.mul, semiring.mul_unit, seg) for seg in inits_list(xs)]
    lhs = reduce(semiring.reduce_op, collection(CollectionKind.LIST, prods))
    return horner_list(semiring, xs) != lhs


def _gen_mss_chain(rng: random.Random) -> dict:
    return {"xs": gen_ints(rng, 24, -32, 32)}


@_law("mss-chain", HOLDS, _gen_mss_chain)
def _mss_chain(xs) -> bool:
    """cubic, quadratic and linear maximum-segment-sum agree."""
    a = mss_spec(xs)
    return a != mss_quadratic(xs) or a != mss_linear(xs)


# -- distributivity ------------------------------------------------------------

def _gen_rectangle(rng: random.Random) -> dict:
    kind, sname = rng.choice(GATED_PAIRS)
    shape = rng.choice(ALL_SHAPES)
    tag = rng.choice(list(SIGNATURES[shape]))
    sig = SIGNATURES[shape][tag]
    lo, hi = _semiring_label_bounds(sname)
    labels = tuple(rng.randint(lo, hi) for _ in range(sig.n_labels))
    cols = tuple(gen_coll(rng, kind, 3, lo, hi, min_size=1)
                 for _ in range(sig.n_children))
    return {"kind": kind.value, "semiring": sname, "shape": shape.value,
            "tag": tag, "labels": tuple(labels), "cols": cols}


@_law("rectangle-distributivity", HOLDS, _gen_rectangle)
def _rectangle(kind, semiring, shape, tag, labels, cols) -> bool:
    """reduce . map product . distribute equals product after reducing each
    child collection."""
    n = Node(shape, tag, tuple(labels), tuple(cols))
    f = generic_product_alg(semiring, semiring.mul_unit)
    via_distribute = reduce(semiring.reduce_op, map_c(f, distribute_node(n, kind)))
    summed = Node(n.shape, n.tag, n.labels,
                  tuple(reduce(semiring.reduce_op, c) for c in n.children))
    return via_distribute != f(summed)


def _gen_mbs(rng: random.Random) -> dict:
    kind, sname = rng.choice(GATED_PAIRS)
    lo, hi = _semiring_label_bounds(sname)
    mbs = [gen_coll(rng, kind, 3, lo, hi, min_size=1)
           for _ in range(rng.randint(0, 3))]
    return {"kind": kind.value, "semiring": sname, "mbs": mbs}


@_law("face7-lists", HOLDS, _gen_mbs)
def _face7(kind, semiring, mbs) -> bool:
    """folding reduced collections equals reducing folds of the distributed
    list."""
    b = semiring.mul_unit
    lhs = foldr_list(semiring.mul, b, [reduce(semiring.reduce_op, mb) for mb in mbs])
    rhs = reduce(
        semiring.reduce_op,
        map_c(lambda tup: foldr_list(semiring.mul, b, list(tup)), dist_list(mbs, kind)),
    )
    return lhs != rhs


def _gen_distlist_defs(rng: random.Random) -> dict:
    kind = rng.choice(ALL_KINDS)
    mbs = [gen_coll(rng, kind, 3) for _ in range(rng.randint(0, 3))]
    return {"kind": kind.value, "mbs": mbs}


@_law("distlist-defs-equiv", HOLDS, _gen_distlist_defs)
def _distlist_defs(kind, mbs) -> bool:
    """the fold-of-cp distributor equals the lifted-pairing distributor."""
    return dist_list(mbs, kind) != oracles.dist_list_lifted(mbs, kind)


def _gen_cp_dist(rng: random.Random) -> dict:
    kind, sname = rng.choice(GATED_PAIRS)
    lo, hi = _semiring_label_bounds(sname)
    return {"kind": kind.value, "semiring": sname,
            "x": gen_coll(rng, kind, 4, lo, hi, min_size=1),
            "y": gen_coll(rng, kind, 4, lo, hi, min_size=1)}


@_law("cp-distributivity", HOLDS, _gen_cp_dist)
def _cp_dist(kind, semiring, x, y) -> bool:
    """reduce . map mul . cp equals mul of the two reductions."""
    op, mul = semiring.reduce_op, semiring.mul
    lhs = reduce(op, map_c(lambda ab: mul(ab[0], ab[1]), cp(x, y)))
    return lhs != mul(reduce(op, x), reduce(op, y))


def _gen_coll_dist(rng: random.Random) -> dict:
    kind, sname = rng.choice(GATED_PAIRS)
    lo, hi = _semiring_label_bounds(sname)
    return {"kind": kind.value, "semiring": sname,
            "a": rng.randint(lo, hi),
            "x": gen_coll(rng, kind, 4, lo, hi, min_size=1)}


@_law("collection-distributivity", HOLDS, _gen_coll_dist)
def _coll_dist(kind, semiring, a, x) -> bool:
    """mapping a one-sided mul commutes with reduction."""
    op, mul = semiring.reduce_op, semiring.mul
    if reduce(op, map_c(lambda b: mul(a, b), x)) != mul(a, reduce(op, x)):
        return True
    return reduce(op, map_c(lambda b: mul(b, a), x)) != mul(reduce(op, x), a)


def _gen_contents_nat(rng: random.Random) -> dict:
    return {"relabel": rng.choice(list(RELABELS)),
            "term": gen_term(rng, rng.choice(ALL_SHAPES))}


@_law("contents-naturality", HOLDS, _gen_contents_nat)
def _contents_nat(relabel, term) -> bool:
    """contents of a relabelled term is the relabelled contents."""
    return contents_term(map_term(relabel, term)) != [relabel(l) for l in contents_term(term)]


def _gen_delta_contents(rng: random.Random) -> dict:
    kind = rng.choice(ALL_KINDS)
    shape = rng.choice(ALL_SHAPES)
    tag = rng.choice(list(SIGNATURES[shape]))
    sig = SIGNATURES[shape][tag]
    cols = tuple(gen_coll(rng, kind, 3)
                 for _ in range(sig.n_labels + sig.n_children))
    return {"kind": kind.value, "shape": shape.value, "tag": tag, "cols": cols}


@_law("delta-respects-contents", HOLDS, _gen_delta_contents)
def _delta_contents(kind, shape, tag, cols) -> bool:
    """distributing the contents list equals contents of the distributed
    constructor."""
    sig = SIGNATURES[shape][tag]
    cols = tuple(cols)
    n = Node(shape, tag, cols[: sig.n_labels], cols[sig.n_labels :])
    via_contents = dist_list(cols, kind)
    via_node = map_c(lambda nd: tuple(contents_node(nd)), bidist_node(n, kind))
    return via_contents != via_node


# -- generic Horner and MSS ----------------------------------------------------

def _horner_b_samples(rng: random.Random, s: Semiring) -> int:
    if s.name == "max-plus":
        return rng.choice([0, 0, -1, -3])
    return rng.choice([s.mul_unit, s.reduce_op.fn(s.mul_unit, s.mul_unit)])


def _gen_horner_generic(rng: random.Random) -> dict:
    s = SEMIRINGS[rng.choice(["max-plus", "plus-times"])]
    lo, hi = _semiring_label_bounds(s.name)
    t = gen_term_capped(rng, rng.choice(ALL_SHAPES), prune_count, 3000, 4, lo, hi)
    return {"semiring": s.name, "b": _horner_b_samples(rng, s), "term": t}


@_law("horner-generic-vs-prune", HOLDS, _gen_horner_generic)
def _horner_generic(semiring, b, term) -> bool:
    """the Horner fold equals reducing layer-products over all prunings."""
    return horner_generic(semiring, b, term) != horner_generic_brute(semiring, b, term)


def _gen_mss_generic(rng: random.Random) -> dict:
    s = SEMIRINGS[rng.choice(["max-plus", "plus-times"])]
    lo, hi = _semiring_label_bounds(s.name)
    t = gen_term_capped(rng, rng.choice(ALL_SHAPES), segs_count, 2000, 4, lo, hi)
    return {"semiring": s.name, "term": t}


@_law("mss-generic-scan-vs-brute", HOLDS, _gen_mss_generic)
def _mss_generic(semiring, term) -> bool:
    """scanning the Horner fold equals reducing over all generic
    segments."""
    scan_v = mss_generic(semiring, term, via="scan", kind=CollectionKind.BAG)
    brute_v = mss_generic(semiring, term, via="brute", kind=CollectionKind.BAG)
    return scan_v != brute_v


def _gen_set_plus(rng: random.Random) -> dict:
    return {"x": gen_coll(rng, CollectionKind.SET, 4, -3, 5),
            "y": gen_coll(rng, CollectionKind.SET, 4, -3, 5)}


@_law("set-plus-nonidempotent", FAILS, _gen_set_plus)
def _set_plus(x, y) -> bool:
    """summing over sets does not distribute across union, because set union
    is idempotent and addition is not."""
    lhs = reduce(SUM_REDUCE, union(x, y), check=False)
    rhs = SUM_REDUCE.fn(reduce(SUM_REDUCE, x, check=False),
                        reduce(SUM_REDUCE, y, check=False))
    return lhs != rhs


def _gen_prune_counts(rng: random.Random) -> dict:
    return {"term": gen_term_capped(rng, rng.choice(ALL_SHAPES), prune_count, 20000, 5)}


@_law("prune-counts", HOLDS, _gen_prune_counts)
def _prune_counts(term) -> bool:
    """enumerated prunings match the 1 + product-over-children
    recurrence."""
    return len(prune(term).items) != prune_count(term)


# ---------------------------------------------------------------------------
# runner

LAW_IDS = tuple(_REGISTRY)


def get_law(law_id: str) -> Law:
    law = _REGISTRY.get(law_id)
    if law is None:
        raise UnknownLawError(f"unknown law id '{law_id}'")
    return law


def run_law(law_id: str, seed: int = 42, trials: int = 200) -> LawReport:
    """Run one law case deterministically, for at least one trial."""
    law = get_law(law_id)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(f"{seed}:{law_id}")
    for ran in range(1, trials + 1):
        inputs = law.gen(rng)
        if law.violated(inputs):
            break
    else:
        return LawReport(law.id, trials, HOLDS, law.expectation,
                         law.expectation == HOLDS, None)
    shrunk = shrink_inputs(inputs, law.violated)
    return LawReport(law.id, ran, FAILS, law.expectation,
                     law.expectation == FAILS, encode_inputs(shrunk))


def run_all(seed: int = 42, trials: int = 200,
            ids: list[str] | None = None) -> list[LawReport]:
    return [run_law(i, seed, trials) for i in ids or LAW_IDS]


def replay(law_id: str, witness: str) -> bool:
    """Re-evaluate a serialized counterexample; True if it still violates."""
    return get_law(law_id).violated(decode_inputs(witness))


def reports_to_json(reports: list[LawReport]) -> str:
    return json.dumps([r._asdict() for r in reports], indent=2, sort_keys=True)

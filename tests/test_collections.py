import functools
import operator
import random
from decimal import Decimal

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import terms
from segmax import (
    EMPTY,
    CollectionKind,
    KindMismatchError,
    Node,
    ReduceLawError,
    ReduceOp,
    ShapeKind,
    collection,
    cp,
    dist_list,
    distribute_node,
    empty,
    join_c,
    list_term,
    map_c,
    opt,
    reduce,
    singleton,
    to_text,
    union,
)
from segmax.horner import Semiring, ensure_distributive
from segmax.ints import I64_MAX, I64_MIN, checked_mul
from segmax.monads import (
    MAX_REDUCE,
    MIN_REDUCE,
    SUM_REDUCE,
    Collection,
    broken_reduction_law,
    canonical_key,
    first_broken_law,
)
from segmax.oracles import dist_list_lifted

kinds = st.sampled_from(list(CollectionKind))
elems = st.integers(min_value=-8, max_value=8)


def colls(kind_st=kinds, elem_st=elems, max_size=5):
    return st.tuples(kind_st, st.lists(elem_st, max_size=max_size)).map(
        lambda kv: collection(kv[0], kv[1])
    )


def _bag(*xs):
    return collection(CollectionKind.BAG, xs)


def _set(*xs):
    return collection(CollectionKind.SET, xs)


def _list(*xs):
    return collection(CollectionKind.LIST, xs)


def test_canonical_forms():
    assert _bag(3, 1, 1).items == (1, 1, 3)
    assert _set(3, 1, 1).items == (1, 3)
    assert _list(3, 1, 1).items == (3, 1, 1)
    assert _bag(2, 1) == _bag(1, 2)
    assert _list(2, 1) != _list(1, 2)


def test_union_fixtures():
    assert union(_bag(1, 1), _bag(1)) == _bag(1, 1, 1)
    assert union(_set(1), _set(1)) == _set(1)
    assert union(_list(1), _list(2)).items == (1, 2)
    with pytest.raises(KindMismatchError):
        union(_bag(1), _set(1))


@given(colls(), colls())
def test_union_laws(x, y):
    if x.kind is not y.kind:
        return
    k = x.kind
    assert union(x, empty(k)) == x == union(empty(k), x)
    if k in (CollectionKind.BAG, CollectionKind.SET):
        assert union(x, y) == union(y, x)
    if k is CollectionKind.SET:
        assert union(x, x) == x


@given(colls())
def test_monad_laws(x):
    k = x.kind
    assert join_c(singleton(k, x)) == x
    assert join_c(map_c(lambda a: singleton(k, a), x)) == x


def test_monad_associativity_seeded():
    from segmax.lawcheck import gen_nested

    rng = random.Random(1)
    for _ in range(300):
        kind = rng.choice(list(CollectionKind))
        xxx = gen_nested(rng, kind, 2)
        assert join_c(map_c(join_c, xxx)) == join_c(join_c(xxx))


def test_join_distribution_axioms():
    from segmax.lawcheck import gen_nested

    rng = random.Random(2)
    for _ in range(300):
        kind = rng.choice(list(CollectionKind))
        xx, yy = gen_nested(rng, kind, 1), gen_nested(rng, kind, 1)
        assert join_c(union(xx, yy)) == union(join_c(xx), join_c(yy))
    for kind in CollectionKind:
        assert join_c(empty(kind)) == empty(kind)


def test_reduce_fixtures():
    assert reduce(MAX_REDUCE, empty(CollectionKind.BAG)) == I64_MIN
    assert reduce(SUM_REDUCE, _bag(1, 1)) == 2
    # the multiplicity discrepancy: sets collapse equal values, so a
    # non-idempotent reduction gives a different answer than on bags
    assert reduce(SUM_REDUCE, _set(1, 1), check=False) == 1
    assert reduce(SUM_REDUCE, _bag(1, 1)) == 2


def test_reduce_preconditions_enforced():
    with pytest.raises(ReduceLawError):
        reduce(SUM_REDUCE, _set(1, 2))  # sum is not idempotent
    first = ReduceOp("first", lambda a, b: a, 0)  # associative, not commutative
    with pytest.raises(ReduceLawError):
        reduce(first, _bag(1, 2))
    # element_ok is the labels' carrier, checked on terms: reduce folds
    # any value, and the bottom sentinel is max's unit
    assert reduce(MAX_REDUCE, _bag(I64_MIN, 3)) == 3
    assert reduce(MAX_REDUCE, _bag(I64_MIN)) == I64_MIN


class _Logged:
    """A value whose comparisons are logged; one holding None raises."""

    def __init__(self, v, log):
        self.v, self.log = v, log

    def _cmp(self, op, other):
        other = getattr(other, "v", other)
        self.log.append((self.v, op, other))
        if self.v is None:
            raise TypeError(f"no order at {op} {other}")
        return getattr(operator, op)(self.v, other)

    def __gt__(self, other):
        return self._cmp("gt", other)

    def __lt__(self, other):
        return self._cmp("lt", other)


def _fold_outcome(fold, items):
    try:
        return "value", fold(items)
    except TypeError as e:
        return "raised", str(e)


def test_max_and_min_fold_in_c_as_the_pairwise_fold():
    # reduce folds max and min in one C call: it must return the very
    # object the pairwise fold from the unit returns, ties included, and
    # raise the same error after the same comparisons
    def copy(v):  # equal to v, and a distinct object
        return type(v)(list(v)) if isinstance(v, tuple) else int(str(v))

    for op in (MAX_REDUCE, MIN_REDUCE):
        def pairwise(items, op=op):
            return functools.reduce(op.fn, items, op.unit)

        def c_fold(items, op=op):
            return reduce(op, Collection(CollectionKind.BAG, tuple(items)), check=False)

        tied = (1 << 70, copy(1 << 70), -(1 << 70), copy(-(1 << 70)))
        sentinels = (I64_MIN, copy(I64_MIN), I64_MAX, copy(I64_MAX))
        for items in ((), (1, True, 1.0), tied, sentinels, sentinels[::-1], (I64_MIN,),
                      (I64_MAX,)):
            assert c_fold(items) is pairwise(items), (op.name, items)
        # equal tuples, under a unit they can be compared with
        pair = ((1, 2), copy((1, 2)))
        unit = () if op is MAX_REDUCE else (I64_MAX,)
        assert (reduce(op._replace(unit=unit), Collection(CollectionKind.SET, pair), check=False)
                is functools.reduce(op.fn, pair, unit) is pair[0])
        # a comparison that raises: a tuple beside the int unit, and a
        # logged value that raises, after the same comparisons
        assert _fold_outcome(c_fold, (1, (2,), 3)) == _fold_outcome(pairwise, (1, (2,), 3))
        assert _fold_outcome(c_fold, (1, (2,), 3))[0] == "raised"
        logs = []
        for fold in (c_fold, pairwise):
            log = []
            items = [_Logged(v, log) for v in (3, 5, 5, -2, None, 7)]
            logs.append((_fold_outcome(fold, items), log))
        assert logs[0] == logs[1] and logs[0][0][0] == "raised" and len(logs[0][1]) == 5


def test_the_gate_samples_the_reduction_laws_of_every_kind():
    # the last nonzero element: associative with unit 0, not commutative,
    # so it meets the gate on a bag, before any route computes; forced,
    # the gate lets it through, and lists need no commutativity
    last = Semiring("last-times", ReduceOp("last", lambda a, b: b or a, 0), checked_mul, 1)
    with pytest.raises(ReduceLawError, match="^'last' is not commutative at "):
        ensure_distributive(last, CollectionKind.BAG)
    ensure_distributive(last, CollectionKind.BAG, force=True)
    ensure_distributive(last, CollectionKind.LIST)


def test_reduce_verdict_does_not_depend_on_the_first_call():
    # the sampled laws run on a fixed domain, so data near the 64-bit edge
    # neither trips them nor changes a later call's verdict
    edge = _bag(I64_MAX - 1, -5)
    for first in (edge, _bag(1, 2)):
        broken_reduction_law.cache_clear()
        reduce(SUM_REDUCE, first)
        assert reduce(SUM_REDUCE, edge) == I64_MAX - 6


def test_the_law_loop_checks_every_tuple_of_its_pool():
    # a 3-place law broken only at the pool's last tuple in product order
    laws = [("unital", 1, lambda a: True),
            ("not-all-fives", 3, lambda a, b, c: (a, b, c) != (5, 5, 5))]
    assert first_broken_law(None, laws) == ("not-all-fives", (5, 5, 5))
    # inside a carrier without 5, no tuple breaks it
    assert first_broken_law(lambda v: v < 5, laws) is None


def test_set_of_equal_deep_terms_has_one_item():
    twins = [list_term(range(2000)), list_term(range(2000))]
    assert len(collection(CollectionKind.SET, twins).items) == 1


def test_reduce_singleton_and_split():
    rng = random.Random(3)
    for _ in range(300):
        kind = rng.choice(list(CollectionKind))
        a = rng.randint(-9, 9)
        assert reduce(MAX_REDUCE, singleton(kind, a)) == a
        xs = collection(kind, [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
        ys = collection(kind, [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
        assert reduce(MAX_REDUCE, union(xs, ys)) == max(
            reduce(MAX_REDUCE, xs), reduce(MAX_REDUCE, ys)
        )


def test_opt_fixtures():
    assert opt(5, empty(CollectionKind.BAG)) == _bag(5)
    assert opt(1, _set(1)) == _set(1)
    rng = random.Random(4)
    for _ in range(200):
        kind = rng.choice(list(CollectionKind))
        b = rng.randint(-9, 9)
        x = collection(kind, [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        assert reduce(MAX_REDUCE, opt(b, x)) == max(b, reduce(MAX_REDUCE, x))


def test_cp_fixtures():
    assert cp(_bag(1, 2), _bag(3)) == collection(
        CollectionKind.BAG, [(1, 3), (2, 3)]
    )
    assert cp(empty(CollectionKind.BAG), _bag(1, 2)) == empty(CollectionKind.BAG)
    assert cp(_list(1), _list(2, 3)).items == ((1, 2), (1, 3))
    # multiplicity multiplies for bags, collapses for sets
    assert len(cp(_bag(1, 1), _bag(2)).items) == 2
    assert len(cp(_set(1, 1), _set(2)).items) == 1


def test_dist_list_fixtures():
    assert dist_list([], CollectionKind.BAG) == collection(CollectionKind.BAG, [()])
    out = dist_list([_list(1, 2), _list(3)], CollectionKind.LIST)
    assert out.items == ((1, 3), (2, 3))


def test_dist_list_matches_lifted_definition():
    rng = random.Random(5)
    for _ in range(500):
        kind = rng.choice(list(CollectionKind))
        mbs = [
            collection(kind, [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))])
            for _ in range(rng.randint(0, 3))
        ]
        assert dist_list(mbs, kind) == dist_list_lifted(mbs, kind)


def test_set_times_distributivity_fails_with_duplicate_products():
    # a witness where deduplication of equal products changes the sum
    x, y = _set(2, 3), _set(4, 6)
    lhs = reduce(
        SUM_REDUCE, map_c(lambda ab: ab[0] * ab[1], cp(x, y)), check=False
    )
    rhs = reduce(SUM_REDUCE, x, check=False) * reduce(SUM_REDUCE, y, check=False)
    assert lhs == 38 and rhs == 50

    # and search confirms witnesses are easy to find
    rng = random.Random(6)
    found = False
    for _ in range(10_000):
        x = collection(CollectionKind.SET, [rng.randint(1, 6) for _ in range(3)])
        y = collection(CollectionKind.SET, [rng.randint(1, 6) for _ in range(3)])
        lhs = reduce(SUM_REDUCE, map_c(lambda ab: ab[0] * ab[1], cp(x, y)), check=False)
        rhs = reduce(SUM_REDUCE, x, check=False) * reduce(SUM_REDUCE, y, check=False)
        if lhs != rhs:
            found = True
            break
    assert found


def test_to_text():
    assert to_text(_list(1, 2)) == "[1, 2]"
    assert to_text(_bag(2, 1)) == "<1, 2>"
    assert to_text(_set(2, 2, 1)) == "{1, 2}"
    assert to_text(empty(CollectionKind.SET)) == "{}"


def test_nested_collections_have_canonical_order():
    inner1 = _bag(2, 1)
    inner2 = _bag(1)
    outer = collection(CollectionKind.SET, [inner1, inner2, inner1])
    assert outer.items == (inner2, inner1)


def _by_canonical_key(kind, items):
    """collection's canonical form, sorted by canonical_key alone."""
    if kind is CollectionKind.LIST:
        return Collection(kind, tuple(items))
    out = []
    for e in sorted(items, key=canonical_key):
        if kind is CollectionKind.BAG or not out or e != out[-1]:
            out.append(e)
    return Collection(kind, tuple(out))


nested = st.recursive(
    st.integers(-3, 3) | st.booleans() | st.just(EMPTY)
    | st.sampled_from(list(ShapeKind)).flatmap(lambda s: terms(s, max_leaves=3)),
    lambda ch: st.lists(ch, max_size=3).map(tuple)
    | st.tuples(kinds, st.lists(ch, max_size=3)).map(lambda kv: _by_canonical_key(*kv)),
    max_leaves=10,
)


@given(kinds, st.lists(nested, max_size=6))
def test_collection_orders_as_canonical_key_does(kind, items):
    got, want = collection(kind, items), _by_canonical_key(kind, items)
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("items", [
    [(1,), 2, (0,), 1],  # an int beside a tuple
    [(1, (2,)), (1, 3), (0,)],
    [_bag(1), _set(0), _bag(0), _set()],  # a bag beside a set
    [(_set(1),), (_bag(2),)],
    [_bag(1), (), _set(), ((),), (0,)],  # () beside a Collection
    [_bag(), ()],
    [True, 1, 0, False],  # True beside 1: a tie, kept in input order
    [(1,), (True,), (0, 1)],
])
def test_collection_orders_as_canonical_key_where_python_cannot_or_ties(items):
    for kind in CollectionKind:
        got, want = collection(kind, items), _by_canonical_key(kind, items)
        assert got == want and repr(got) == repr(want)


def test_true_beside_1_keeps_its_input_order():
    assert repr(_bag(True, 1).items) == "(True, 1)" and repr(_bag(1, True).items) == "(1, True)"
    assert repr(_set(True, 1).items) == "(True,)" and repr(_set(1, True).items) == "(1,)"
    assert repr(_bag((1,), (True,)).items) == "((1,), (True,))"


@pytest.mark.parametrize("kind", [CollectionKind.BAG, CollectionKind.SET])
@pytest.mark.parametrize("items, name", [
    ([1.5], "float"),
    ([(1,), (1.5,)], "float"),  # Python orders these two natively
    ([2, Decimal(1)], "Decimal"),
])
def test_an_element_with_no_canonical_order_still_raises(kind, items, name):
    with pytest.raises(TypeError, match=f"^no canonical order for {name}$"):
        collection(kind, items)


def test_collections_of_nodes_that_differ_only_in_payloads_are_canonical():
    # struct_key writes every non-node slot as 0, so the payloads must
    # break its ties: distribute_node and bidist_node build such nodes
    a = Node(ShapeKind.HTREE, "fork", (1,), (1, 3))
    b = Node(ShapeKind.HTREE, "fork", (1,), (2, 3))
    bag = CollectionKind.BAG
    assert union(singleton(bag, a), singleton(bag, b)) == union(singleton(bag, b),
                                                                singleton(bag, a))
    assert collection(bag, [b, a]).items == (a, b)
    assert collection(CollectionKind.SET, [a, b, a]).items == (a, b)
    n = Node(ShapeKind.HTREE, "fork", (1,), (_bag(2, 1), _bag(3)))
    assert distribute_node(n, bag) == collection(bag, reversed(distribute_node(n, bag).items))


def test_join_and_dist_list_refuse_a_collection_of_another_kind():
    for bad in (lambda: join_c(_bag(_set(1))), lambda: join_c(_bag(1))):
        with pytest.raises(KindMismatchError,
                           match="^join needs inner collections of the same kind$"):
            bad()
    with pytest.raises(KindMismatchError, match="^dist_list needs bag collections$"):
        dist_list([_bag(1), _set(1)], CollectionKind.BAG)

import itertools
import os
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given

from conftest import int_lists, mutate
from segmax import (
    BOOL_OR_AND,
    MAX_PLUS,
    MIN_PLUS,
    PLUS_TIMES,
    CarrierError,
    ReduceLawError,
    ReduceOp,
    RoutesDisagreeError,
    SEMIRINGS,
    SegmaxError,
    Semiring,
    SizeGuardError,
    CollectionKind,
    DistributivityError,
    collection,
    ShapeKind,
    contents_term,
    ensure_distributive,
    foldr_list,
    generic_product_alg,
    horner_alg,
    horner_generic,
    horner_generic_brute,
    horner_list,
    inits_list,
    leaf,
    list_term,
    map_term,
    max_prefix_sum,
    mss_generic,
    mss_linear,
    mss_quadratic,
    mss_spec,
    nil,
    parse_term,
    preorder_values,
    reduce,
    scan_generic,
    scanr_list,
    segs_list,
    tails_list,
)
from segmax.horner import _check_carrier, _reduce_values, horner_step, product_step
from segmax.ints import I64_MAX, I64_MIN, checked_add, checked_mul
from segmax.lawcheck import REDUCERS_FOR_KIND, gen_term, gen_term_capped
from segmax.monads import (MAX_REDUCE, MIN_REDUCE, OR_REDUCE, SUM_REDUCE, _law_pool,
                           reduce_law_failure)
from segmax.oracles import pruned_fold_literal
from segmax.pruning import _check_guard, _segs_items, prune, prune_count, segs_count
from segmax.shapes import SIGNATURES, Node, postorder, print_term, term_size

EX3 = [4, -5, 6, -3, 2, 0, -4, 5, -6, 5]
EX7 = parse_term("(fork 1 (leaf 2) (fork 3 (leaf 1) (leaf 4)))", ShapeKind.HTREE)


def test_foldr_fixtures():
    assert foldr_list(lambda x, acc: x + acc, 0, [1, 2, 3]) == 6
    assert foldr_list(lambda x, acc: x - acc, 99, []) == 99
    xs = [5, 1, 4]
    assert foldr_list(lambda x, acc: [x] + acc, [], xs) == xs


def test_scanr_fixtures():
    assert scanr_list(lambda x, acc: x + acc, 0, [1, 2]) == [3, 2, 0]
    assert scanr_list(lambda x, acc: x + acc, 7, []) == [7]


@given(int_lists)
def test_scanr_head_is_foldr(xs):
    step = lambda x, acc: max(x, acc)
    out = scanr_list(step, 0, xs)
    assert len(out) == len(xs) + 1
    assert out[0] == foldr_list(step, 0, xs)


def test_inits_tails_segs_fixtures():
    assert tails_list([1, 2]) == [[1, 2], [2], []]
    assert inits_list([]) == [[]]
    assert segs_list([1, 2]) == [[], [1], [1, 2], [], [2], []]


@given(int_lists)
def test_inits_tails_counts(xs):
    n = len(xs)
    assert len(tails_list(xs)) == n + 1
    assert len(inits_list(xs)) == n + 1
    assert len(segs_list(xs)) == (n + 1) * (n + 2) // 2


def test_mss_fixtures():
    assert max_prefix_sum(EX3) == 5
    assert mss_spec(EX3) == mss_quadratic(EX3) == mss_linear(EX3) == 6
    for f in (mss_spec, mss_quadratic, mss_linear, max_prefix_sum):
        assert f([]) == 0
    assert mss_spec([-1, -2]) == 0
    assert mss_linear([5]) == 5
    assert mss_linear([]) == 0


def test_mss_spec_equals_materialised_composition():
    rng = random.Random(21)
    for _ in range(200):
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 10))]
        assert mss_spec(xs) == max(sum(seg) for seg in segs_list(xs))


@given(int_lists)
def test_mss_chain_agrees(xs):
    assert mss_spec(xs) == mss_quadratic(xs) == mss_linear(xs)


# the 64-bit edges and halves and quarters of them, where segment sums
# leave 64 bits on either side
_EDGES = (I64_MIN, I64_MAX, 1 << 62, -(1 << 62), 1 << 61, -(1 << 61), 1, -1, 0)


def _value_or_overflow(f, xs):
    try:
        return f(xs)
    except OverflowError:
        return OverflowError


def test_mss_spec_agrees_at_the_64_bit_edges():
    # a sum below -2^63 is never the maximum, so every list algorithm
    # raises exactly when the maximum leaves 64 bits
    assert mss_spec([-(1 << 62)] * 3) == 0
    rng = random.Random(27)
    seen = set()
    for _ in range(3000):
        xs = [rng.choice(_EDGES) for _ in range(rng.randint(0, 6))]
        spec = _value_or_overflow(mss_spec, xs)
        assert spec == _value_or_overflow(mss_quadratic, xs) == _value_or_overflow(
            mss_linear, xs), xs
        seen.add(spec is OverflowError)
    assert seen == {False, True}


def _overflow_message_or_value(f, *args):
    try:
        return f(*args)
    except OverflowError as e:
        return OverflowError, str(e)


def test_list_chain_runs_the_step_as_scanr_and_foldr_do():
    # accumulate and reduce over the reversed list sum in foldr's order, so
    # they give the value, or the first overflow and its message, that the
    # literal scanr and foldr give with the step through checked_add
    def step(u, z):
        s = checked_add(u, z)
        return s if s > 0 else 0

    rng = random.Random(20)
    overflows = 0
    for _ in range(2000):
        xs = [rng.choice(_EDGES + (rng.randint(-99, 99),)) for _ in range(rng.randint(0, 8))]
        scanned = _overflow_message_or_value(lambda: max(scanr_list(step, 0, xs)))
        assert _overflow_message_or_value(mss_linear, xs) == scanned, xs
        folded = _overflow_message_or_value(foldr_list, step, 0, xs)
        assert _overflow_message_or_value(max_prefix_sum, xs) == folded, xs
        overflows += isinstance(scanned, tuple) + isinstance(folded, tuple)
    assert overflows >= 500, overflows


@given(int_lists)
def test_max_prefix_sum_oracle(xs):
    best, acc = 0, 0
    for x in xs:
        acc += x
        best = max(best, acc)
    assert max_prefix_sum(xs) == best


def test_horner_list_fixtures():
    assert horner_list(PLUS_TIMES, [2, 3]) == 9
    assert horner_list(PLUS_TIMES, []) == 1
    assert horner_list(MAX_PLUS, []) == 0
    assert horner_list(MAX_PLUS, EX3) == 5 == max_prefix_sum(EX3)


def test_horner_list_against_prefix_oracles():
    for xs in itertools.product(range(0, 4), repeat=4):
        xs = list(xs)
        prods = [foldr_list(lambda a, b: a * b, 1, seg) for seg in inits_list(xs)]
        assert horner_list(PLUS_TIMES, xs) == sum(prods)
    rng = random.Random(22)
    for _ in range(500):
        xs = [rng.randint(-8, 8) for _ in range(rng.randint(0, 8))]
        sums = [sum(seg) for seg in inits_list(xs)]
        assert horner_list(MAX_PLUS, xs) == max(sums)


def _assert_mul_laws(s, samples):
    """mul's semiring laws on every triple of samples: a wider reference
    than the gate's sampled pool."""
    add, mul, one = s.reduce_op.fn, s.mul, s.mul_unit
    for a, b, c in itertools.product(samples, repeat=3):
        assert mul(one, a) == a == mul(a, one)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(add(b, c), a) == add(mul(b, a), mul(c, a))


def test_semiring_laws_sampled():
    # the gate passes each built-in on every kind its add allows
    for s in SEMIRINGS.values():
        kinds = [k for k in CollectionKind if reduce_law_failure(s.reduce_op, k) is None]
        assert CollectionKind.BAG in kinds
        for kind in kinds:
            ensure_distributive(s, kind)
    for s in (MAX_PLUS, MIN_PLUS, PLUS_TIMES):
        _assert_mul_laws(s, range(-6, 7))
    _assert_mul_laws(BOOL_OR_AND, [0, 1])


def test_generic_product_alg_fixtures():
    f = generic_product_alg(PLUS_TIMES, 1)
    assert f(nil()) == 1
    assert f(Node(ShapeKind.LIST, "cons", (4,), (7,))) == 28
    g = generic_product_alg(MAX_PLUS, 0)
    assert g(Node(ShapeKind.HTREE, "fork", (3,), (1, 4))) == 8


def test_horner_generic_fixtures():
    assert horner_generic(MAX_PLUS, 0, leaf(5)) == 5
    assert horner_generic(MAX_PLUS, 0, nil()) == 0
    assert horner_generic(MAX_PLUS, 0, EX7) == 11


def test_horner_generic_equals_prune_reduction_across_b_samples():
    rng = random.Random(24)
    for shape in ShapeKind:
        for _ in range(100):
            t = gen_term_capped(rng, shape, segs_count, 1000, max_depth=4, lo=-3, hi=3)
            for s, bs in ((MAX_PLUS, (0, -1, -3)), (PLUS_TIMES, (1, 2))):
                for b in bs:
                    assert horner_generic(s, b, t) == horner_generic_brute(s, b, t)


def test_horner_generic_value_depends_on_b():
    # the fused fold equals the pruning reduction for every b, but the
    # value itself is not b-invariant
    t = list_term([4])
    assert horner_generic(MAX_PLUS, 0, t) == 4
    assert horner_generic(MAX_PLUS, -5, t) == -5


def test_horner_generic_brute_guards_the_segments_it_folds(monkeypatch):
    # the root's 1,502 prunings pass the guard, but all 1,128,752 segments
    # are folded, so the guard refuses before any pruning is built
    monkeypatch.setattr("segmax.pruning._prune_step", None)
    t = list_term([1] * 1500)
    with pytest.raises(SizeGuardError) as e:
        horner_generic_brute(MAX_PLUS, 0, t)
    assert str(e.value) == "collection of 1128752 elements exceeds guard 1000000"
    assert prune_count(t) == 1502


def test_mss_generic_fixtures():
    assert mss_generic(MAX_PLUS, EX7) == 11
    assert mss_generic(MAX_PLUS, EX7, via="brute") == 11
    assert mss_generic(MAX_PLUS, list_term(EX3)) == 6 == mss_linear(EX3)
    assert mss_generic(MAX_PLUS, leaf(-7)) == 0


def test_the_check_route_gives_the_common_value_or_the_disagreement():
    assert mss_generic(MAX_PLUS, EX7, "check") == 11
    # set plus-times, forced: the scan counts the leaf's two prunings, the
    # set of brute products keeps one of them (fixture tree-check-routes-disagree)
    with pytest.raises(RoutesDisagreeError, match="^routes disagree: scan=2 brute=1$"):
        mss_generic(PLUS_TIMES, "(leaf 1)", "check", CollectionKind.SET, True,
                    shape=ShapeKind.HTREE)


def test_mss_generic_refuses_an_unknown_route_before_any_check():
    # on a known route the carrier refuses the first and the gate the second
    for s, kind, error in ((MAX_PLUS, CollectionKind.BAG, CarrierError),
                           (PLUS_TIMES, CollectionKind.SET, DistributivityError)):
        with pytest.raises(error):
            mss_generic(s, leaf(I64_MIN), kind=kind)
        with pytest.raises(ValueError, match="^unknown route 'nope'$") as e:
            mss_generic(s, leaf(I64_MIN), via="nope", kind=kind)
        assert type(e.value) is ValueError
    # on a text, the route comes before the syntax fault too
    with pytest.raises(ValueError, match="^unknown route 'bogus'$") as e:
        mss_generic(MAX_PLUS, "(leaf", via="bogus", shape=ShapeKind.HTREE)
    assert type(e.value) is ValueError


def test_mss_generic_list_terms_match_classical():
    rng = random.Random(25)
    for _ in range(200):
        xs = [rng.randint(-8, 8) for _ in range(rng.randint(0, 8))]
        assert mss_generic(MAX_PLUS, list_term(xs)) == mss_linear(xs)


def test_distributivity_gate():
    for s in (MAX_PLUS, MIN_PLUS, BOOL_OR_AND):
        for kind in CollectionKind:
            ensure_distributive(s, kind)
    for kind in (CollectionKind.LIST, CollectionKind.BAG):
        ensure_distributive(PLUS_TIMES, kind)
    with pytest.raises(DistributivityError):
        ensure_distributive(PLUS_TIMES, CollectionKind.SET)
    ensure_distributive(PLUS_TIMES, CollectionKind.SET, force=True)


def test_the_reduction_sampler_decides_gate_semiring_check_and_law_reducers():
    lawful_everywhere = ("max", "min", "sum")
    assert REDUCERS_FOR_KIND == {CollectionKind.LIST: lawful_everywhere,
                                 CollectionKind.BAG: lawful_everywhere,
                                 CollectionKind.SET: ("max", "min")}
    # the gate reads add's sampled set laws, then mul's, not the semiring's
    # name: max is idempotent, but times does not distribute over it
    with pytest.raises(DistributivityError, match="non-left-distributive mul"):
        ensure_distributive(Semiring("max-times", MAX_REDUCE, checked_mul, 1),
                            CollectionKind.SET)
    with pytest.raises(DistributivityError, match="non-idempotent add"):
        ensure_distributive(Semiring("sum-times", SUM_REDUCE, checked_mul, 1),
                            CollectionKind.SET)
    # the last nonzero element: associative with unit 0, not commutative
    last = ReduceOp("last", lambda a, b: b or a, 0)
    with pytest.raises(ReduceLawError, match="^'last' is not commutative at "):
        ensure_distributive(Semiring("last-times", last, checked_mul, 1), CollectionKind.BAG)


_LAST_ADD = ReduceOp("last", lambda a, b: b or a, 0)  # the last nonzero element
_ADDS = {"max": MAX_REDUCE, "min": MIN_REDUCE, "sum": SUM_REDUCE, "last": _LAST_ADD}
_MULS = {"plus": (checked_add, 0), "times": (checked_mul, 1),
         "max": (max, I64_MIN), "min": (min, I64_MAX)}


def _route_outcome(s, t, kind, via):
    """A route's value, or the type of its error: the routes overflow at
    different products, so the messages may differ."""
    try:
        return "value", mss_generic(s, t, via=via, kind=kind)
    except (SegmaxError, OverflowError) as e:
        return type(e).__name__, None


def test_scan_and_brute_agree_wherever_the_gate_passes():
    # the gate samples the laws Horner's rule needs, add's for the kind and
    # mul's, so no semiring it passes can tell the routes apart
    rng = random.Random(49)
    refused = {}
    for (add_name, add), (mul_name, (mul, one)), kind in itertools.product(
            _ADDS.items(), _MULS.items(), CollectionKind):
        s = Semiring(f"{add_name}-{mul_name}", add, mul, one)
        try:
            ensure_distributive(s, kind)
        except SegmaxError as e:
            refused[s.name, kind] = type(e).__name__
            continue
        for _ in range(40):
            t = gen_term_capped(rng, rng.choice(list(ShapeKind)), segs_count, 200,
                                max_depth=4, lo=-3, hi=5)
            assert _route_outcome(s, t, kind, "scan") == _route_outcome(s, t, kind, "brute"), (
                s.name, kind, print_term(t))
    # add's laws alone pass these on lists and bags, and on sets for max
    # and min; mul does not distribute over add, and the routes disagree
    for name, kind in itertools.product(("max-times", "min-times", "sum-plus"), CollectionKind):
        assert refused[name, kind] == "DistributivityError"
    max_times, t = Semiring("max-times", MAX_REDUCE, checked_mul, 1), list_term([-2, 3, -4])
    with pytest.raises(DistributivityError) as e:
        mss_generic(max_times, t, kind=CollectionKind.LIST)
    assert str(e.value) == (
        "semiring 'max-times' has a non-left-distributive mul at (-3, -3, -1); "
        "Horner's rule does not hold for it (use --force to run anyway)")
    assert mss_generic(max_times, t, force=True) == 3
    assert mss_generic(max_times, t, via="brute", force=True) == 24


# the small scope, in nodes: lists of up to 4 elements, etrees of up to 5
# nodes, itrees of up to 3 labelled nodes, htrees of up to 3 nodes
_SCOPE = {ShapeKind.LIST: 5, ShapeKind.ETREE: 5, ShapeKind.ITREE: 7, ShapeKind.HTREE: 3}


def _terms_of_size(shape, n, labels, memo):
    """Every term of shape with exactly n nodes, labels drawn from labels."""
    if (shape, n) not in memo:
        memo[shape, n] = [
            Node(shape, tag, labs, kids)
            for tag, sig in SIGNATURES[shape].items()
            for labs in itertools.product(labels, repeat=sig.n_labels)
            for kids in _forests(shape, n - 1, sig.n_children, labels, memo)]
    return memo[shape, n]


def _forests(shape, n, width, labels, memo):
    """Every tuple of width terms of shape whose sizes sum to n."""
    if width == 0:
        return [()] if n == 0 else []
    return [(t,) + rest for k in range(1, n + 1)
            for t in _terms_of_size(shape, k, labels, memo)
            for rest in _forests(shape, n - k, width - 1, labels, memo)]


def _terms_in_scope(shape, labels):
    memo = {}
    return [t for n in range(1, _SCOPE[shape] + 1) for t in _terms_of_size(shape, n, labels, memo)]


def test_scan_and_brute_agree_on_every_term_in_the_small_scope():
    # bounded-exhaustive: every term in scope, labelled from the gate's own
    # pool, on every CLI semiring and kind the gate passes
    refused, counts = [], {}
    for s, kind in itertools.product(SEMIRINGS.values(), CollectionKind):
        try:
            ensure_distributive(s, kind)
        except SegmaxError:
            refused.append((s.name, kind))
            continue
        for shape in ShapeKind:
            ts = _terms_in_scope(shape, _law_pool(s.reduce_op.element_ok))
            counts[s.name, shape] = len(ts)
            for t in ts:
                assert _outcome(lambda: mss_generic(s, t, kind=kind)) == _outcome(
                    lambda: mss_generic(s, t, via="brute", kind=kind)), (
                    s.name, kind, print_term(t))
    assert refused == [("plus-times", CollectionKind.SET)]
    # the full six-value pool gives the scope's 3,410 terms
    assert [counts["plus-times", shape] for shape in ShapeKind] == [1555, 474, 1159, 222]


@pytest.mark.skipif(not os.environ.get("SEGMAX_FULL_SCOPE"),
                    reason="about 12 s; set SEGMAX_FULL_SCOPE=1 to run it, as CI does")
def test_scan_and_brute_agree_on_every_term_in_the_small_scope_for_the_whole_sweep():
    # the exhaustive check above, over the seeded sweep's 48 add x mul x kind
    # combinations: the same value or the same error type and message
    # wherever the gate passes
    scopes, passed = {}, []
    for (add_name, add), (mul_name, (mul, one)), kind in itertools.product(
            _ADDS.items(), _MULS.items(), CollectionKind):
        s = Semiring(f"{add_name}-{mul_name}", add, mul, one)
        try:
            ensure_distributive(s, kind)
        except SegmaxError:
            continue
        passed.append((s.name, kind.value))
        pool = _law_pool(add.element_ok)
        if pool not in scopes:
            scopes[pool] = [t for shape in ShapeKind for t in _terms_in_scope(shape, pool)]
        for t in scopes[pool]:
            assert _outcome(lambda: mss_generic(s, t, kind=kind)) == _outcome(
                lambda: mss_generic(s, t, via="brute", kind=kind)), (
                s.name, kind, print_term(t))
    assert len(passed) == 21, passed  # of the 48; the rest the gate refuses


def test_the_gate_refuses_last_max_on_every_kind():
    # max does not distribute over the last nonzero element, at (0, 1, -3):
    # max(0, last(1, -3)) is 0, last(max(0, 1), max(0, -3)) is 1
    last_max = Semiring("last-max", _LAST_ADD, max, I64_MIN)
    with pytest.raises(DistributivityError) as e:
        ensure_distributive(last_max, CollectionKind.LIST)
    assert str(e.value) == (
        "semiring 'last-max' has a non-left-distributive mul at (0, 1, -3); "
        "Horner's rule does not hold for it (use --force to run anyway)")
    with pytest.raises(ReduceLawError) as e:
        ensure_distributive(last_max, CollectionKind.BAG)
    assert str(e.value) == "'last' is not commutative at (-3, -1) (bag reduction)"
    with pytest.raises(DistributivityError) as e:
        ensure_distributive(last_max, CollectionKind.SET)
    assert str(e.value) == (
        "semiring 'last-max' has a non-commutative add; "
        "its reduction is not well-defined on sets (use --force to run anyway)")


def test_the_gate_names_the_set_law_that_failed():
    def refusal(s):
        with pytest.raises(DistributivityError) as e:
            ensure_distributive(s, CollectionKind.SET)
        return str(e.value)

    tail = "its reduction is not well-defined on sets (use --force to run anyway)"
    assert refusal(PLUS_TIMES) == f"semiring 'plus-times' has a non-idempotent add; {tail}"
    # idempotent, associative and unital, but not commutative
    last_plus = Semiring("last-plus", ReduceOp("last", lambda a, b: b or a, 0), checked_add, 0)
    assert reduce_law_failure(last_plus.reduce_op, CollectionKind.SET).startswith(
        "'last' is not commutative at ")
    assert refusal(last_plus) == f"semiring 'last-plus' has a non-commutative add; {tail}"


# the first and the last nonzero factor: associative with unit 0, each
# distributes over max on one side only, and is not commutative, so a
# product's order shows
_FIRST = Semiring("max-first", MAX_REDUCE, lambda a, b: a if a != 0 else b, 0)
_LAST = Semiring("max-last", MAX_REDUCE, lambda a, b: b if b != 0 else a, 0)
_FORK_0_1_5 = parse_term("(fork 0 (leaf 1) (leaf 5))", ShapeKind.HTREE)
_FORK_0_5_1 = parse_term("(fork 0 (leaf 5) (leaf 1))", ShapeKind.HTREE)


def test_the_gate_refuses_a_mul_that_distributes_on_the_left_only():
    for kind in CollectionKind:
        with pytest.raises(DistributivityError) as e:
            ensure_distributive(_FIRST, kind)
        assert str(e.value) == (
            "semiring 'max-first' has a non-right-distributive mul at (-3, -1, 0); "
            "Horner's rule does not hold for it (use --force to run anyway)")
    # the refusal is needed: the fused fold and the pruning reduction differ
    assert horner_generic(_FIRST, 0, _FORK_0_1_5) == 1
    assert horner_generic_brute(_FIRST, 0, _FORK_0_1_5) == 5


def test_the_gate_refuses_a_mul_that_distributes_on_the_right_only():
    # the mirror witness: the gate's left-distributivity law refuses it
    for kind in CollectionKind:
        with pytest.raises(DistributivityError) as e:
            ensure_distributive(_LAST, kind)
        assert str(e.value) == (
            "semiring 'max-last' has a non-left-distributive mul at (-3, -1, 0); "
            "Horner's rule does not hold for it (use --force to run anyway)")
    assert horner_generic(_LAST, 0, _FORK_0_5_1) == 1
    assert horner_generic_brute(_LAST, 0, _FORK_0_5_1) == 5


def test_the_gate_refuses_a_non_idempotent_add_on_sets_only():
    # plus-times passes every other law on the pool; on sets the brute
    # route merges the two segment values of 1, the empty pruning's and
    # the leaf's, so the forced routes disagree (fixture
    # tree-check-routes-disagree pins the CLI's line)
    for kind in (CollectionKind.LIST, CollectionKind.BAG):
        ensure_distributive(PLUS_TIMES, kind)
    with pytest.raises(DistributivityError, match="non-idempotent add"):
        ensure_distributive(PLUS_TIMES, CollectionKind.SET)
    t, kind = leaf(1), CollectionKind.SET
    assert mss_generic(PLUS_TIMES, t, kind=kind, force=True) == 2
    assert mss_generic(PLUS_TIMES, t, via="brute", kind=kind, force=True) == 1


def test_the_horner_step_multiplies_labels_then_kids_in_order():
    # b `add` foldr mul b (labels ++ kids); the reversed product mul(acc, x)
    # would give 5 on the fork's root layer
    add, mul = _FIRST.reduce_op.fn, _FIRST.mul
    for b in (0, 2):
        step = horner_step(_FIRST, b)
        assert step("fork", (0,), (1, 5)) == max(b, 1)
        for labels, kids in itertools.product(
                [(v,) for v in (-1, 0, 3)], itertools.product((0, -2, 4), repeat=2)):
            assert step("fork", labels, kids) == add(b, foldr_list(mul, b, labels + kids))


def test_mss_generic_set_plus_times_rejected_unless_forced():
    with pytest.raises(DistributivityError):
        mss_generic(PLUS_TIMES, EX7, kind=CollectionKind.SET)
    v = mss_generic(PLUS_TIMES, EX7, kind=CollectionKind.SET, force=True)
    assert isinstance(v, int)


def _outcome(f):
    try:
        return "value", f()
    except (SegmaxError, OverflowError) as e:
        return type(e).__name__, str(e)


def _literal_horner_step(s, b):
    """horner_step's generic body as a literal close action, sharing no
    code with its closed forms: the carrier check, then
    b `add` foldr mul b (labels ++ kids)."""
    add, ok = s.reduce_op.fn, s.reduce_op.element_ok

    def step(tag, labels, kids):
        if ok is not None and not all(map(ok, labels)):
            raise CarrierError
        return add(b, foldr_list(s.mul, b, labels + kids))

    return step


def _assert_scan_route_is_literal(s, t, kind, force):
    """mss_generic(via="scan") against the composition it fuses,
    reduce . contents . scan, with the literal Horner step, errors
    included: the first overflow's message names the node whose
    arithmetic failed first."""
    step = _literal_horner_step(s, s.mul_unit)
    literal = _outcome(lambda: reduce(
        s.reduce_op,
        collection(kind, preorder_values(scan_generic(
            lambda n: step(n.tag, n.labels, n.children), t))),
        check=not force))
    assert _outcome(lambda: mss_generic(s, t, kind=kind, force=force)) == literal


def test_scan_route_is_reduce_contents_scan():
    rng = random.Random(44)
    seen = set()
    for shape, s, kind in itertools.product(ShapeKind, SEMIRINGS.values(), CollectionKind):
        force = reduce_law_failure(s.reduce_op, kind) is not None  # set + plus-times
        lo, hi = (0, 1) if s is BOOL_OR_AND else (-9, 9)
        for _ in range(8):
            t = gen_term(rng, shape, 6, lo, hi)
            _assert_scan_route_is_literal(s, t, kind, force)
            seen.add(_outcome(lambda: mss_generic(s, t, kind=kind, force=force))[0])
    assert seen == {"value", "OverflowError"}
    # both children overflow: the error names the left one's product
    apart = parse_term("(fork 1 (fork 1099511627776 (leaf 1099511627776) (leaf 0))"
                       " (fork 2199023255552 (leaf 2199023255552) (leaf 0)))", ShapeKind.HTREE)
    with pytest.raises(OverflowError, match="^product 1208925819615728686333952 "):
        mss_generic(PLUS_TIMES, apart)
    _assert_scan_route_is_literal(PLUS_TIMES, apart, CollectionKind.BAG, False)
    rng = random.Random(45)
    for s, kind in itertools.product(SEMIRINGS.values(), CollectionKind):
        force = reduce_law_failure(s.reduce_op, kind) is not None
        t = list_term(rng.randint(0 if s is BOOL_OR_AND else -1, 1) for _ in range(10**4))
        _assert_scan_route_is_literal(s, t, kind, force)


def test_scan_route_keeps_contents_order():
    # the last nonzero element: associative with unit 0, not commutative,
    # so a list reduction of it sees the order of contents; times
    # distributes over it on both sides
    last = ReduceOp("last", lambda a, b: b or a, 0)
    last_times = Semiring("last-times", last, checked_mul, 1)
    rng = random.Random(46)
    for shape in ShapeKind:
        for _ in range(30):
            t = gen_term(rng, shape, 5, -2, 2)
            _assert_scan_route_is_literal(last_times, t, CollectionKind.LIST, False)
    with pytest.raises(ReduceLawError, match="commutative"):
        mss_generic(last_times, EX7, kind=CollectionKind.BAG)


# labels at the closed forms' edges: each sentinel and its neighbours, the
# halves whose sums reach 64 bits, and labels that are not exact ints
_STEP_EDGES = (I64_MIN - 1, I64_MIN, I64_MIN + 1, -(1 << 62) - 1, -(1 << 62), -1, 0, 1, 2,
               1 << 62, (1 << 62) + 1, I64_MAX - 1, I64_MAX, I64_MAX + 1, True, False, None)


def _step_outcome(step, labels, kids):
    """A close action's value with its type, or its error's type and message."""
    try:
        v = step("fork", labels, kids)
    except Exception as e:
        return "error", type(e), str(e)
    return "value", type(v), v


def test_the_closed_horner_steps_are_the_literal_step_at_every_edge():
    # max-plus and min-plus with b = 0 and bool-or-and with b = 1 run closed
    # forms; on 0 to 2 labels from the edge pool and 0 to 2 kids from the
    # step's own values on one label, or None (a pruned slot), the step and
    # its algebra give the literal step's value and type, or its error and
    # message; b = -1, False and True keep the generic step
    label_tuples = [xs for n in range(3) for xs in itertools.product(_STEP_EDGES, repeat=n)]
    seen = Counter()
    for s, b in ((MAX_PLUS, 0), (MIN_PLUS, 0), (BOOL_OR_AND, 1), (MAX_PLUS, -1),
                 (MAX_PLUS, False), (MIN_PLUS, False), (BOOL_OR_AND, True)):
        literal, step, alg = _literal_horner_step(s, b), horner_step(s, b), horner_alg(s, b)
        own = [_step_outcome(literal, (x,), ()) for x in _STEP_EDGES]
        pool = [v for _, _, v in dict.fromkeys(o for o in own if o[0] == "value")] + [None]
        kid_tuples = [xs for n in range(3) for xs in itertools.product(pool, repeat=n)]
        for labels, kids in itertools.product(label_tuples, kid_tuples):
            want = _step_outcome(literal, labels, kids)
            assert _step_outcome(step, labels, kids) == want, (s.name, b, labels, kids)
            assert _step_outcome(lambda tag, ls, ks: alg(Node(ShapeKind.HTREE, tag, ls, ks)),
                                 labels, kids) == want
            seen[s.name, want[1].__name__] += 1
    for name in ("max-plus", "min-plus"):
        assert {"int", "CarrierError", "OverflowError", "TypeError"} <= {
            what for n, what in seen if n == name}, seen
    assert {"int", "CarrierError", "TypeError"} <= {what for n, what in seen
                                                    if n == "bool-or-and"}, seen


def test_the_closed_horner_steps_run_no_python_arithmetic():
    # the closed forms take each node's sum, or check its kids, in C: a
    # max-plus or min-plus scan of 10^4 elements never enters
    # ints.checked_add, and a bool-or-and scan never calls operator.and_,
    # where the generic step, with b = -1 or True, makes two calls a node
    rng = random.Random(51)
    ints = list_term(rng.randint(-9, 9) for _ in range(10**4))
    bits = map_term(lambda v: v & 1, ints)
    runs = [(s, x) for s, t in ((MAX_PLUS, ints), (MIN_PLUS, ints), (BOOL_OR_AND, bits))
            for x in (t, print_term(t))]
    for s, x in runs:  # the gate's law checks, which call checked_add, are cached
        mss_generic(s, x, shape=ShapeKind.LIST)
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is checked_add.__code__:
            calls["checked_add"] += 1
        elif event == "c_call" and arg is BOOL_OR_AND.mul:
            calls["and_"] += 1

    sys.setprofile(profile)
    try:
        for s, x in runs:
            mss_generic(s, x, shape=ShapeKind.LIST)
        assert calls == Counter()
        horner_generic(MAX_PLUS, -1, ints)
        horner_generic(BOOL_OR_AND, True, bits)
    finally:
        sys.setprofile(None)
    assert calls == {"checked_add": 2 * 10**4, "and_": 2 * 10**4}


# labels that overflow, or leave a carrier: max-plus's bottom, min-plus's
# top and bool-or-and's non-bits
_WIDE = (I64_MIN, I64_MAX, 1 << 62, -(1 << 62), 1 << 40, 2, 5, 0, 1, -1)


def _assert_text_route_is_parse_then_scan(s, text, shape, kind, force):
    """mss_generic on a text against parse_term followed by mss_generic: the
    same value, or an error of the same type and message."""
    expected = _outcome(lambda: mss_generic(s, parse_term(text, shape), kind=kind,
                                            force=force))
    assert _outcome(lambda: mss_generic(s, text, kind=kind, force=force,
                                        shape=shape)) == expected
    return expected[0]


def test_text_route_is_parse_then_scan():
    rng = random.Random(47)
    seen = set()
    for shape, s, kind, force in itertools.product(
            ShapeKind, SEMIRINGS.values(), CollectionKind, (False, True)):
        for _ in range(6):
            text = print_term(gen_term(rng, shape, 5, -9, 9))
            if rng.random() < 0.5:  # wide labels: overflows and carrier faults
                text = re.sub(r"-?\d+", lambda m: str(rng.choice(_WIDE)), text)
            for t in (text, mutate(rng, text)):
                seen.add(_assert_text_route_is_parse_then_scan(s, t, shape, kind, force))
    assert {"value", "TermSyntaxError", "DistributivityError", "CarrierError",
            "OverflowError"} <= seen
    hand = [
        # both children overflow: the error names the left one's product
        (PLUS_TIMES, "(fork 1 (fork 1099511627776 (leaf 1099511627776) (leaf 0))"
                     " (fork 2199023255552 (leaf 2199023255552) (leaf 0)))"),
        # an overflow closes before the label outside the carrier is read
        (MAX_PLUS, f"(fork 1 (fork {I64_MAX} (leaf {I64_MAX}) (leaf 1)) (leaf {I64_MIN}))"),
        (MAX_PLUS, f"(fork {I64_MAX} (leaf {I64_MAX}) (leaf {I64_MIN}))"),
        # the first label outside the carrier in contents order, not in post-order
        (BOOL_OR_AND, "(fork 5 (leaf 7) (leaf 1))"),
        # a syntax fault after an overflowing node
        (MAX_PLUS, f"(fork {I64_MAX} (leaf {I64_MAX}) (leaf 1)))"),
        (PLUS_TIMES, f"(fork {I64_MAX} (leaf 2) (leaf 1 @"),
    ]
    outcomes = [_assert_text_route_is_parse_then_scan(s, text, ShapeKind.HTREE,
                                                      CollectionKind.BAG, False)
                for s, text in hand]
    assert outcomes == ["OverflowError", "CarrierError", "CarrierError", "CarrierError",
                        "TermSyntaxError", "TermSyntaxError"]
    # past the node limit, though with no more than 10^5 '('
    text = print_term(list_term([1] * 100_000))
    assert _assert_text_route_is_parse_then_scan(
        MAX_PLUS, text, ShapeKind.LIST, CollectionKind.BAG, False) == "TermSyntaxError"


def test_a_library_mul_error_comes_where_the_scan_meets_it_for_a_term_and_its_text():
    # a term is scanned before the gate, as its text is while it is parsed,
    # so an error a library mul raises, other than the two a stopped pass
    # holds, comes ahead of the gate for both
    def mul(a, b):
        if abs(a) > 50:
            raise ZeroDivisionError(f"mul of {a}")
        return a - b

    odd = Semiring("odd", MAX_REDUCE, mul, 0)
    with pytest.raises(DistributivityError, match=r"non-unital mul at \(-3,\)"):
        ensure_distributive(odd, CollectionKind.BAG)
    text = "(fork 1 (leaf 100) (leaf 2))"
    for t in (parse_term(text, ShapeKind.HTREE), text):
        with pytest.raises(ZeroDivisionError, match="^mul of 100$"):
            mss_generic(odd, t, shape=ShapeKind.HTREE)


def test_a_stopped_text_scan_closes_each_constructor_once(monkeypatch):
    # the pass that overflows is not rerun on the parsed term: its error is
    # held behind the syntax check, the gate and the carrier walk
    closes = []

    def counting_step(s, b):
        step = horner_step(s, b)
        return lambda *args: closes.append(args[0]) or step(*args)

    monkeypatch.setattr("segmax.horner.horner_step", counting_step)
    text = "(fork 4611686018427387904 (leaf 2) (fork 1 (leaf 1) (leaf 1)))"
    with pytest.raises(OverflowError, match="^product 69175290276410818560 "):
        mss_generic(PLUS_TIMES, text, shape=ShapeKind.HTREE)
    assert closes == ["leaf", "leaf", "leaf", "fork", "fork"]


# labels at the edges of each carrier; plus-times has none
_CARRIER_EDGES = {
    MAX_PLUS: (I64_MIN + 1, -(1 << 62), -1, 0, 1, 1 << 62, I64_MAX),
    MIN_PLUS: (I64_MIN, -(1 << 62), -1, 0, 1, 1 << 62, I64_MAX - 1),
    PLUS_TIMES: (-(1 << 31), -2, -1, 0, 1, 2, 1 << 31),
    BOOL_OR_AND: (0, 1),
}


def test_scan_values_lie_in_the_carrier(monkeypatch):
    # the horner module's lemma, first half: once the labels are in the
    # carrier, so is every value the scan routes reduce, unless an
    # overflow stops the pass; the carrier is read once per label and
    # never again per value
    received = []
    monkeypatch.setattr("segmax.horner._reduce_values",
                        lambda op, kind, vals, **kw: received.extend(vals)
                        or _reduce_values(op, kind, vals, **kw))
    rng = random.Random(48)
    for s, kind in itertools.product(SEMIRINGS.values(), CollectionKind):
        ok, reads = s.reduce_op.element_ok, []
        counting = ok and (lambda v: reads.append(v) or ok(v))
        counted = s._replace(reduce_op=s.reduce_op._replace(element_ok=counting))
        force = reduce_law_failure(counted.reduce_op, kind) is not None  # set + plus-times
        answered = Counter()
        for shape in ShapeKind:
            for _ in range(8):
                t = map_term(lambda _: rng.choice(_CARRIER_EDGES[s]), gen_term(rng, shape, 4))
                # the term, and the text scanned while parsing, by the scan
                # route and, where its brute half is quick, the check route,
                # whose brute products the lemma's second half covers
                routes = ("scan", "check") if segs_count(t) <= 1_000 else ("scan",)
                for x, via in itertools.product((t, print_term(t)), routes):
                    del reads[:], received[:]
                    try:
                        mss_generic(counted, x, via, kind, force, shape=shape)
                    except (OverflowError, RoutesDisagreeError):  # the latter: forced sets
                        continue
                    answered[via] += 1
                    # one value a node, every one received
                    assert via == "check" or len(received) == term_size(t), (via, x)
                    assert via == "check" or ok is None or all(map(ok, received))
                    assert len(reads) == (len(contents_term(t)) if ok else 0), (via, x)
        assert answered["scan"] >= 16 and answered["check"] >= 16, (s.name, kind, answered)


def test_order_free_adds_reduce_without_canonicalising(monkeypatch):
    # max, min and or give one fold for every order, so every route folds
    # their values as they come and never reaches collection; sum's
    # first overflow depends on the order, so it folds the canonical one
    rng = random.Random(50)
    labels = {MAX_PLUS: (-9, 9), MIN_PLUS: (-9, 9), BOOL_OR_AND: (0, 1)}
    cases = [(s, kind, shape, t) for s, (lo, hi) in labels.items() for kind in CollectionKind
             for shape in ShapeKind for t in [gen_term(rng, shape, 4, lo, hi)]
             if segs_count(t) <= 1_000]
    expected = [(mss_generic(s, t, "check", kind), horner_generic_brute(s, s.mul_unit, t))
                for s, kind, _, t in cases]

    class Canonicalised(Exception):
        pass

    def refuse(*_):
        raise Canonicalised

    monkeypatch.setattr("segmax.horner.collection", refuse)
    for (s, kind, shape, t), (best, whole) in zip(cases, expected):
        for x, via in itertools.product((t, print_term(t)), ("scan", "brute", "check")):
            assert mss_generic(s, x, via, kind, shape=shape) == best, (s.name, kind, via)
        assert horner_generic_brute(s, s.mul_unit, t) == whole
    assert {(s, kind) for s, kind, *_ in cases} == set(itertools.product(labels, CollectionKind))
    t = list_term([2, 3])
    for (kind, force), via in itertools.product(
            ((CollectionKind.BAG, False), (CollectionKind.SET, True)), ("scan", "brute", "check")):
        with pytest.raises(Canonicalised):
            mss_generic(PLUS_TIMES, t, via, kind, force)
    with pytest.raises(Canonicalised):
        horner_generic_brute(PLUS_TIMES, 1, t)


def test_a_fault_free_scan_leaves_the_carrier_to_the_step(monkeypatch):
    # horner_step reads every label; the walk over the term only orders
    # the faults of a pass that stopped, so a fault-free scan never makes
    # it, on the scan route or the check route
    rng = random.Random(49)
    cases = [(s, shape, gen_term(rng, shape, 5, 0, 1))
             for s in SEMIRINGS.values() for shape in ShapeKind for _ in range(4)]
    expected = [(mss_generic(s, t), horner_generic(s, s.mul_unit, t)) for s, _, t in cases]

    def walk(s, t):
        raise AssertionError("the term was walked for the carrier")

    monkeypatch.setattr("segmax.horner._check_carrier", walk)
    checked = 0
    for (s, shape, t), (best, whole) in zip(cases, expected):
        small = segs_count(t) <= 10_000  # the check route's brute half is quick
        checked += small
        for via in ("scan", "check") if small else ("scan",):
            assert mss_generic(s, t, via) == mss_generic(s, print_term(t), via,
                                                         shape=shape) == best
        assert horner_generic(s, s.mul_unit, t) == whole
    assert checked == 49


def test_an_overflow_in_the_scans_reduce_alone_needs_no_parse_and_no_walk(monkeypatch):
    # the Horner values fit, their sum does not: the pass finished, so it
    # read the whole text and checked every label, and the scan route
    # raises the held overflow after the gate without parsing the text
    # into a term or walking it for the carrier
    def refuse(*_):
        raise AssertionError("a finished pass was checked again")

    monkeypatch.setattr("segmax.shapes._build", refuse)
    monkeypatch.setattr("segmax.horner._check_carrier", refuse)
    with pytest.raises(OverflowError, match="^sum 9223372036854775809 outside 64-bit "
                                            "signed range$"):
        mss_generic(PLUS_TIMES, "(cons 4611686018427387903 nil)", "scan", CollectionKind.LIST,
                    shape=ShapeKind.LIST)


def test_the_carrier_fault_comes_before_an_overflow_that_closes_first():
    # the left fork overflows and closes, in post-order, before the leaf
    # whose label is outside max-plus's carrier; the carrier error wins
    t = parse_term(f"(fork 1 (fork {I64_MAX} (leaf {I64_MAX}) (leaf 1)) (leaf {I64_MIN}))",
                   ShapeKind.HTREE)
    for run in (lambda: mss_generic(MAX_PLUS, t), lambda: horner_generic(MAX_PLUS, 0, t)):
        with pytest.raises(CarrierError, match=f"^label {I64_MIN} outside the carrier "
                                               "of 'max-plus'$"):
            run()
    # the first label outside the carrier in contents order, not the
    # first to close
    t = parse_term("(fork 5 (leaf 7) (leaf 1))", ShapeKind.HTREE)
    for run in (lambda: mss_generic(BOOL_OR_AND, t), lambda: horner_generic(BOOL_OR_AND, 1, t)):
        with pytest.raises(CarrierError, match="^label 5 outside the carrier of 'bool-or-and'$"):
            run()
    # with every label in the carrier, the overflow stands
    t = parse_term(f"(fork 1 (fork {I64_MAX} (leaf {I64_MAX}) (leaf 1)) (leaf 2))",
                   ShapeKind.HTREE)
    for run in (lambda: mss_generic(MAX_PLUS, t), lambda: horner_generic(MAX_PLUS, 0, t)):
        with pytest.raises(OverflowError, match=f"^sum {I64_MAX + 1} outside 64-bit "):
            run()


def test_routes_agree_at_the_sentinels():
    # the lemma's second half: the whole list's product is the sentinel,
    # which changes no max or min, as the empty pruning is worth 0
    for s, labels, sentinel in ((MAX_PLUS, [-(1 << 62)] * 2, I64_MIN),
                                (MIN_PLUS, [1 << 62, (1 << 62) - 1], I64_MAX)):
        assert sum(labels) == sentinel
        t = list_term(labels)
        for kind in CollectionKind:
            assert mss_generic(s, t, via="brute", kind=kind) == mss_generic(s, t, kind=kind) == 0


def _literal_product_step(s, b):
    """The layer product as the literal foldr close action, sharing no
    code with product_step."""
    return lambda tag, labels, kids: foldr_list(s.mul, b, labels + kids)


def _brute_literal(s, t, kind, force):
    """mss_generic(via="brute") as the memo-free composition
    reduce . map (fold product) . segs, after the gate and the carrier."""
    ensure_distributive(s, kind, force)
    _check_carrier(s, t)
    f = _literal_product_step(s, s.mul_unit)
    vals = [pruned_fold_literal(s.mul_unit, f, p) for p in _segs_items(t)]
    return reduce(s.reduce_op, collection(kind, vals), check=False)


def _assert_brute_route_is_literal(s, t, kind, force):
    """mss_generic(via="brute") against _brute_literal: the same value or
    the same error type and message.  Returns the outcome's type."""
    route = _outcome(lambda: mss_generic(s, t, via="brute", kind=kind, force=force))
    assert route == _outcome(lambda: _brute_literal(s, t, kind, force)), (
        s.name, kind, force, print_term(t))
    return route[0]


def _assert_horner_brute_is_literal(s, t):
    """horner_generic_brute against the memo-free reduce over prune(t)."""
    b, f = s.mul_unit, _literal_product_step(s, s.mul_unit)
    expected = _outcome(lambda: reduce(s.reduce_op, collection(
        CollectionKind.BAG, [pruned_fold_literal(b, f, p) for p in prune(t).items])))
    assert _outcome(lambda: horner_generic_brute(s, b, t)) == expected, (s.name, print_term(t))
    return expected[0]


# labels at which sums and products overflow, and the bool carrier refuses
_EDGE_POOL = (-(3 << 61), -1, 0, 1, 1 << 62, 3 << 61)


def test_the_product_step_is_the_literal_foldr():
    # every constructor, every contents tuple from the edge pool, every
    # semiring: the close action and its algebra wrapper are the foldr,
    # in value or in the error and its message
    seen = Counter()
    for s, shape in itertools.product(SEMIRINGS.values(), ShapeKind):
        b = s.mul_unit
        step, alg = product_step(s, b), generic_product_alg(s, b)
        for tag, sig in SIGNATURES[shape].items():
            for xs in itertools.product(_EDGE_POOL, repeat=sig.n_labels + sig.n_children):
                labels, kids = xs[:sig.n_labels], xs[sig.n_labels:]
                expected = _outcome(lambda: foldr_list(s.mul, b, labels + kids))
                assert _outcome(lambda: step(tag, labels, kids)) == expected, (s.name, tag, xs)
                assert _outcome(lambda: alg(Node(shape, tag, labels, kids))) == expected
                seen[expected[0]] += 1
    assert set(seen) == {"value", "OverflowError"}, seen


def test_brute_routes_share_folds_in_the_literal_error_order():
    # the memo folds each pruned node once over all segments; the first
    # overflow must still be met in the same segment at the same node,
    # so the message, which names its operands, is the memo-free one
    rng = random.Random(50)
    seen = Counter()
    for shape, s, kind in itertools.product(ShapeKind, SEMIRINGS.values(), CollectionKind):
        for _ in range(40):
            force = rng.random() < 0.3
            hi = rng.choice((9, 1 << 62, 3 << 62))
            t = gen_term_capped(rng, shape, segs_count, 300, max_depth=4, lo=-hi, hi=hi)
            seen.update((_assert_brute_route_is_literal(s, t, kind, force),
                         _assert_horner_brute_is_literal(s, t)))
    assert seen["value"] > 200 and seen["OverflowError"] > 500, seen
    # every term in the small scope, labelled from the edge pool, forced, on bags
    seen = Counter()
    ts = [t for shape in ShapeKind for t in _terms_in_scope(shape, _EDGE_POOL)]
    for s, t in itertools.product(SEMIRINGS.values(), ts):
        seen[_assert_brute_route_is_literal(s, t, CollectionKind.BAG, True)] += 1
        _assert_horner_brute_is_literal(s, t)
    assert seen == {"OverflowError": 5310, "CarrierError": 3296, "value": 5034}, seen


@pytest.mark.skipif(not os.environ.get("SEGMAX_FULL_SCOPE"),
                    reason="about 8 s; set SEGMAX_FULL_SCOPE=1 to run it, as CI does")
def test_brute_routes_keep_the_literal_error_order_over_the_full_scope():
    # the small-scope check above on every kind, forced and not
    ts = [t for shape in ShapeKind for t in _terms_in_scope(shape, _EDGE_POOL)]
    for s, t in itertools.product(SEMIRINGS.values(), ts):
        _assert_horner_brute_is_literal(s, t)
        for kind, force in itertools.product(CollectionKind, (False, True)):
            _assert_brute_route_is_literal(s, t, kind, force)


def _assert_term_and_text_agree(kinds) -> Counter:
    """Every term in the small scope, labelled from the edge pool, against
    its printed text, on every CLI semiring and kind in kinds, forced and
    not: the same value, or the same error type and message."""
    seen = Counter()
    ts = [t for shape in ShapeKind for t in _terms_in_scope(shape, _EDGE_POOL)]
    for s, t, kind, force in itertools.product(SEMIRINGS.values(), ts, kinds, (False, True)):
        outcome = _outcome(lambda: mss_generic(s, t, kind=kind, force=force))
        assert _outcome(lambda: mss_generic(s, print_term(t), kind=kind, force=force,
                                            shape=t.shape)) == outcome, (
            s.name, kind, force, print_term(t))
        seen[outcome[0]] += 1
    return seen


def test_a_term_and_its_text_give_one_outcome_on_every_term_in_the_small_scope():
    # one driver scans both, and a stopped pass holds its error for both
    assert _assert_term_and_text_agree([CollectionKind.BAG]) == {
        "value": 12794, "OverflowError": 7894, "CarrierError": 6592}


@pytest.mark.skipif(not os.environ.get("SEGMAX_FULL_SCOPE"),
                    reason="about 2 s; set SEGMAX_FULL_SCOPE=1 to run it, as CI does")
def test_a_term_and_its_text_give_one_outcome_over_the_full_scope():
    # the check above on every kind: set plus-times is refused unless forced
    assert _assert_term_and_text_agree(list(CollectionKind)) == {
        "value": 37699, "OverflowError": 20955, "CarrierError": 19776,
        "DistributivityError": 3410}


def _check_composed(s, t, kind, force):
    """The check route as separate route calls: the scan; on its overflow,
    the brute route's guard ahead of it; the brute route; the comparison."""
    try:
        scan = mss_generic(s, t, kind=kind, force=force)
    except OverflowError:
        _check_guard(segs_count(t))
        raise
    brute = mss_generic(s, t, via="brute", kind=kind, force=force)
    if scan != brute:
        raise RoutesDisagreeError(f"routes disagree: scan={scan} brute={brute}")
    return scan


def _assert_check_route_is_composed(kinds) -> Counter:
    """Every term in the small scope, labelled from the edge pool, on every
    CLI semiring and kind in kinds, forced and not: the check route on the
    term and on its text against _check_composed, in value or in the
    error's type and message."""
    seen = Counter()
    ts = [t for shape in ShapeKind for t in _terms_in_scope(shape, _EDGE_POOL)]
    for s, t, kind, force in itertools.product(SEMIRINGS.values(), ts, kinds, (False, True)):
        outcome = _outcome(lambda: _check_composed(s, t, kind, force))
        for x in (t, print_term(t)):
            assert _outcome(lambda: mss_generic(s, x, "check", kind, force,
                                                shape=t.shape)) == outcome, (
                s.name, kind, force, x if isinstance(x, str) else "term", print_term(t))
        seen[outcome[0]] += 1
    return seen


def test_the_check_route_is_the_composed_check_on_every_term_in_the_small_scope():
    assert _assert_check_route_is_composed([CollectionKind.BAG]) == {
        "value": 10038, "OverflowError": 10650, "CarrierError": 6592}


@pytest.mark.skipif(not os.environ.get("SEGMAX_FULL_SCOPE"),
                    reason="about 8 s; set SEGMAX_FULL_SCOPE=1 to run it, as CI does")
def test_the_check_route_is_the_composed_check_over_the_full_scope():
    # every kind: set plus-times is refused unless forced, and disagrees forced
    assert _assert_check_route_is_composed(list(CollectionKind)) == {
        "value": 29218, "OverflowError": 28799, "CarrierError": 19776,
        "DistributivityError": 3410, "RoutesDisagreeError": 637}


def _unital_ops(n):
    """Every binary operation on range(n) with a unit, as (table, op, unit):
    the table is the op's values row by row, as a string."""
    ops = []
    for unit in range(n):
        for free in itertools.product(range(n), repeat=(n - 1) ** 2):
            cells = iter(free)
            tab = tuple(b if a == unit else a if b == unit else next(cells)
                        for a, b in itertools.product(range(n), repeat=2))
            ops.append(("".join(map(str, tab)), lambda a, b, tab=tab: tab[a * n + b], unit))
    return ops


def _gate_passes_agree_on_every_term(n) -> Counter:
    """Every structure on the carrier range(n), a unital add and a unital
    mul, that the gate passes for a kind must answer the check route on
    every term in scope labelled from the carrier: the gate's laws make
    the routes agree.  Returns the passing structures by kind, and the
    number of terms."""
    ok, ops = frozenset(range(n)).__contains__, _unital_ops(n)
    ts = [t for shape in ShapeKind for t in _terms_in_scope(shape, tuple(range(n)))]
    passed = Counter()
    for (add_name, add, zero), (mul_name, mul, one), kind in itertools.product(
            ops, ops, CollectionKind):
        s = Semiring(f"{add_name}-{mul_name}", ReduceOp(add_name, add, zero, ok), mul, one)
        try:
            ensure_distributive(s, kind)
        except SegmaxError:
            continue
        passed[kind.value] += 1
        for t in ts:
            assert _outcome(lambda: mss_generic(s, t, "check", kind))[0] == "value", (
                s.name, kind, print_term(t))
    return passed, len(ts)


def test_every_structure_the_gate_passes_on_two_values_agrees_on_every_term():
    # the gate decides its laws exactly here, as the carrier lies in its pool
    assert _gate_passes_agree_on_every_term(2) == (
        {"list": 6, "bag": 6, "set": 4}, 114)


@pytest.mark.skipif(not os.environ.get("SEGMAX_FULL_SCOPE"),
                    reason="about 4 s; set SEGMAX_FULL_SCOPE=1 to run it, as CI does")
def test_every_structure_the_gate_passes_on_three_values_agrees_over_the_full_scope():
    assert _gate_passes_agree_on_every_term(3) == (
        {"list": 96, "bag": 72, "set": 48}, 374)


def _failing_laws(n, op, laws):
    """Each of laws, (name, arity, holds) triples, evaluated on every tuple
    from range(n) with no gate code: yields (op, name, its first failing
    tuple) for each law that fails, in order."""
    for law, arity, holds in laws:
        bad = next((xs for xs in itertools.product(range(n), repeat=arity)
                    if not holds(*xs)), None)
        if bad is not None:
            yield op, law, bad


def _broken_add_laws(n, add, zero, kind):
    """add's reduction laws for kind that fail, in the gate's order."""
    laws = [("associative", 3, lambda a, b, c: add(add(a, b), c) == add(a, add(b, c))),
            ("unital", 1, lambda a: add(zero, a) == a == add(a, zero))]
    if kind is not CollectionKind.LIST:
        laws.append(("commutative", 2, lambda a, b: add(a, b) == add(b, a)))
    if kind is CollectionKind.SET:
        laws.append(("idempotent", 1, lambda a: add(a, a) == a))
    return _failing_laws(n, "add", laws)


def _broken_mul_laws(n, add, mul, one):
    """mul's four semiring laws that fail, in the gate's order."""
    return _failing_laws(n, "mul", [
        ("unital", 1, lambda a: mul(one, a) == a == mul(a, one)),
        ("associative", 3, lambda a, b, c: mul(mul(a, b), c) == mul(a, mul(b, c))),
        ("left-distributive", 3,
         lambda a, b, c: mul(a, add(b, c)) == add(mul(a, b), mul(a, c))),
        ("right-distributive", 3,
         lambda a, b, c: mul(add(b, c), a) == add(mul(b, a), mul(c, a)))])


def _gate_verdict(s, kind, broken):
    """The outcome ensure_distributive must have when broken, an
    (operation, law, tuple) triple or None, is the first law to fail."""
    if broken is None:
        return "value", None
    op, law, xs = broken
    if op == "mul":
        return "DistributivityError", (
            f"semiring '{s.name}' has a non-{law} mul at {xs}; "
            "Horner's rule does not hold for it (use --force to run anyway)")
    if kind is CollectionKind.SET:
        return "DistributivityError", (
            f"semiring '{s.name}' has a non-{law} add; "
            "its reduction is not well-defined on sets (use --force to run anyway)")
    return "ReduceLawError", f"'{s.reduce_op.name}' is not {law} at {xs} ({kind.value} reduction)"


def _gate_is_exact(n) -> Counter:
    """Every unital add x unital mul table on the carrier range(n), on
    every kind: the gate's verdict, law and arguments included, is the
    laws' own evaluation.  Returns how many structures of each kind break
    each law first, None for none."""
    ok, ops = frozenset(range(n)).__contains__, _unital_ops(n)
    verdicts, mul_broken = Counter(), {}
    for (add_name, add, zero), kind in itertools.product(ops, CollectionKind):
        add_broken = next(_broken_add_laws(n, add, zero, kind), None)
        for mul_name, mul, one in ops:
            s = Semiring(f"{add_name}-{mul_name}", ReduceOp(add_name, add, zero, ok), mul, one)
            broken = add_broken
            if broken is None:
                if s.name not in mul_broken:
                    mul_broken[s.name] = next(_broken_mul_laws(n, add, mul, one), None)
                broken = mul_broken[s.name]
            assert _outcome(lambda: ensure_distributive(s, kind)) == _gate_verdict(
                s, kind, broken), (s.name, kind)
            verdicts[kind.value, broken and f"{broken[0]} {broken[1]}"] += 1
    return verdicts


def test_the_gate_is_exact_on_every_structure_on_two_values():
    # on a carrier inside the gate's pool the gate is a decision procedure;
    # every unital op on {0, 1} is associative and commutative
    assert _gate_is_exact(2) == {
        ("list", None): 6, ("list", "mul left-distributive"): 10,
        ("bag", None): 6, ("bag", "mul left-distributive"): 10,
        ("set", None): 4, ("set", "add idempotent"): 8, ("set", "mul left-distributive"): 4}


@pytest.mark.skipif(not os.environ.get("SEGMAX_FULL_SCOPE"),
                    reason="about 2 s; set SEGMAX_FULL_SCOPE=1 to run it, as CI does")
def test_the_gate_is_exact_on_every_structure_on_three_values_over_the_full_scope():
    # 243 x 243 tables x 3 kinds; the unital rows stay empty, as every
    # table enumerated has a unit
    assert _gate_is_exact(3) == {
        ("list", None): 96, ("list", "add associative"): 51030,
        ("list", "mul associative"): 6930, ("list", "mul left-distributive"): 945,
        ("list", "mul right-distributive"): 48,
        ("bag", None): 72, ("bag", "add associative"): 51030,
        ("bag", "add commutative"): 1458, ("bag", "mul associative"): 5670,
        ("bag", "mul left-distributive"): 789, ("bag", "mul right-distributive"): 30,
        ("set", None): 48, ("set", "add associative"): 51030,
        ("set", "add commutative"): 1458, ("set", "add idempotent"): 5103,
        ("set", "mul associative"): 1260, ("set", "mul left-distributive"): 138,
        ("set", "mul right-distributive"): 12}


def test_add_associativity_and_commutativity_each_have_a_witness():
    # one table on {0, 1, 2} per law that breaks it alone of the seven the
    # gate checks on bags, and a term on which the forced routes then
    # disagree; the gate refuses each table unforced
    ops = {tab: (op, unit) for tab, op, unit in _unital_ops(3)}
    rows = [
        # any two nonzeros add to 0; mul is times modulo 3, unit 1
        ("012100200", "000012021", ("add", "associative", (1, 1, 2)),
         "(cons 2 nil)", ShapeKind.LIST, 1, 2),
        # add keeps its first nonzero; mul is min, unit 2
        ("012111222", "000011012", ("add", "commutative", (1, 2)),
         "(tip 1)", ShapeKind.ETREE, 2, 1),
    ]
    bag = CollectionKind.BAG
    for add_tab, mul_tab, law, text, shape, scan, brute in rows:
        (add, zero), (mul, one) = ops[add_tab], ops[mul_tab]
        assert [*_broken_add_laws(3, add, zero, bag), *_broken_mul_laws(3, add, mul, one)] == [law]
        s = Semiring(f"{add_tab}-{mul_tab}",
                     ReduceOp(add_tab, add, zero, frozenset(range(3)).__contains__), mul, one)
        assert _outcome(lambda: mss_generic(s, text, shape=shape)) == _gate_verdict(s, bag, law)
        assert [mss_generic(s, text, via, bag, True, shape=shape)
                for via in ("scan", "brute")] == [scan, brute]
        with pytest.raises(RoutesDisagreeError,
                           match=f"^routes disagree: scan={scan} brute={brute}$"):
            mss_generic(s, text, "check", bag, True, shape=shape)


def test_the_brute_route_folds_every_segment_without_a_walk(monkeypatch):
    # children before parents: every segment but the empty marker takes
    # one layer step, so the only walks are the two scans of t that list
    # its segments
    walks = []

    def counting_postorder(*args, **kwargs):
        walks.append(args[0])
        return postorder(*args, **kwargs)

    monkeypatch.setattr("segmax.pruning.postorder", counting_postorder)
    rng = random.Random(51)
    for shape, s, kind in itertools.product(ShapeKind, (MAX_PLUS, MIN_PLUS, BOOL_OR_AND),
                                            CollectionKind):
        lo, hi = (0, 1) if s is BOOL_OR_AND else (-9, 9)
        for _ in range(10):
            t = gen_term_capped(rng, shape, segs_count, 300, max_depth=4, lo=lo, hi=hi)
            expected = _brute_literal(s, t, kind, False)
            walks.clear()
            assert mss_generic(s, t, via="brute", kind=kind) == expected, print_term(t)
            assert [w for w in walks if w is not t] == [], (s.name, kind, print_term(t))


def test_mss_generic_other_semirings_scan_vs_brute():
    rng = random.Random(26)
    for _ in range(100):
        t = gen_term_capped(rng, ShapeKind.HTREE, segs_count, 500,
                            max_depth=4, lo=0, hi=1)
        for s in (MIN_PLUS, BOOL_OR_AND):
            assert mss_generic(s, t) == mss_generic(s, t, via="brute")


def test_bool_semiring_rejects_non_bits():
    with pytest.raises(CarrierError):
        mss_generic(BOOL_OR_AND, leaf(7))


def test_overflow_propagates():
    big = (1 << 62) + (1 << 61)
    with pytest.raises(OverflowError):
        mss_linear([big, big])
    with pytest.raises(OverflowError):
        mss_spec([big, big])


def test_checked_ops_reach_the_64_bit_edges_and_refuse_one_step_past():
    assert checked_add(I64_MAX - 1, 1) == I64_MAX and checked_add(I64_MIN + 1, -1) == I64_MIN
    assert checked_mul(7, 1317624576693539401) == I64_MAX
    assert checked_mul(-(1 << 31), 1 << 32) == I64_MIN
    past = [(checked_add, I64_MAX, 1, "sum 9223372036854775808"),
            (checked_add, I64_MIN, -1, "sum -9223372036854775809"),
            (checked_mul, 1 << 62, 2, "product 9223372036854775808"),
            (checked_mul, -3, 3074457345618258603, "product -9223372036854775809")]
    for f, a, b, message in past:
        with pytest.raises(OverflowError) as e:
            f(a, b)
        assert str(e.value) == f"{message} outside 64-bit signed range"


def test_the_bool_semiring_ops_are_and_and_or_on_bits():
    for a, b in itertools.product((0, 1), repeat=2):
        for got, want in ((BOOL_OR_AND.mul(a, b), a & b), (OR_REDUCE.fn(a, b), a | b)):
            assert (got, type(got)) == (want, int)

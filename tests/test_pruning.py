import random

import pytest

from conftest import mutate
from segmax import (
    EMPTY,
    PLUS_TIMES,
    CollectionKind,
    collection,
    SegmaxError,
    ShapeKind,
    SizeGuardError,
    fork,
    horner_generic,
    is_pruning_of,
    leaf,
    list_term,
    mss_generic,
    parse_pruned,
    parse_term,
    print_pruned,
    prune,
    prune_count,
    pruned_fold,
    segs_count,
    segs_generic,
)
from segmax.lawcheck import gen_term, gen_term_capped
from segmax.oracles import (prune_recursive, prune_via_fold, pruned_fold_literal,
                             segs_generic_literal)
from segmax.pruning import GUARD, _segs_items
from segmax.shapes import postorder, print_term, term_size

EX7 = parse_term("(fork 1 (leaf 2) (fork 3 (leaf 1) (leaf 4)))", ShapeKind.HTREE)
EX7_PRUNINGS = [
    "E",
    "(fork 1 E E)",
    "(fork 1 E (fork 3 E E))",
    "(fork 1 E (fork 3 E (leaf 4)))",
    "(fork 1 E (fork 3 (leaf 1) E))",
    "(fork 1 E (fork 3 (leaf 1) (leaf 4)))",
    "(fork 1 (leaf 2) E)",
    "(fork 1 (leaf 2) (fork 3 E E))",
    "(fork 1 (leaf 2) (fork 3 E (leaf 4)))",
    "(fork 1 (leaf 2) (fork 3 (leaf 1) E))",
    "(fork 1 (leaf 2) (fork 3 (leaf 1) (leaf 4)))",
]


def sum_step(tag, labels, kids):
    """ALGEBRAS["sum"] as a close action, the step pruned_fold takes."""
    return sum(labels + kids)


def test_leaf_prunes_to_two():
    c = prune(leaf(9))
    assert [print_pruned(p) for p in c.items] == ["E", "(leaf 9)"]


def test_ex7_pruning_fixture():
    c = prune(EX7)
    assert len(c.items) == 11
    assert [print_pruned(p) for p in c.items] == EX7_PRUNINGS
    sub = fork(3, leaf(1), leaf(4))
    assert len(prune(sub).items) == 5


def test_list_prunings_count_n_plus_two():
    for n in range(6):
        t = list_term(range(n))
        c = prune(t)
        assert len(c.items) == n + 2 == prune_count(t)


def test_count_recurrences_per_shape():
    rng = random.Random(13)
    for shape in ShapeKind:
        for _ in range(200):
            t = gen_term_capped(rng, shape, prune_count, 20_000)
            c = prune(t)
            assert len(c.items) == prune_count(t)
            # recurrence spelled out: childless nodes count 2, otherwise
            # 1 + product over children
            def by_hand(u):
                if not u.children:
                    return 2
                acc = 1
                for ch in u.children:
                    acc *= by_hand(ch)
                return 1 + acc

            assert prune_count(t) == by_hand(t)


def _outcome(f):
    try:
        return "value", f()
    except SegmaxError as e:
        return type(e).__name__, str(e), getattr(e, "offset", None)


def test_count_text_route_is_parse_then_count():
    # prune_count on a text against parse_term followed by prune_count: the
    # same count, or an error of the same type, message and offset
    rng = random.Random(16)
    texts = [(shape, t) for shape in ShapeKind for _ in range(150)
             for text in [print_term(gen_term(rng, shape, 6))]
             for t in (text, mutate(rng, text))]
    texts += [
        (ShapeKind.HTREE, "(fork 1 (leaf 2)"),
        (ShapeKind.HTREE, "(fork 1 (leaf 9223372036854775808) (leaf 2))"),
        (ShapeKind.LIST, "(cons 1 (cons 2 nil) @"),
        # past the node limit, though with no more than 10^5 '('
        (ShapeKind.LIST, print_term(list_term([1] * 100_000))),
        (ShapeKind.LIST, "(cons 0 " * 100_001 + "nil" + ")" * 100_001),
    ]
    seen = set()
    for shape, text in texts:
        expected = _outcome(lambda: prune_count(parse_term(text, shape)))
        assert _outcome(lambda: prune_count(text, shape)) == expected
        seen.add(expected[0])
    assert seen == {"value", "TermSyntaxError"}


def test_counts_are_horner_folds_in_the_counting_semiring():
    # with every label 1, plus-times' Horner step from seed 1 is
    # 1 + the product of the children's values: the pruning count; the
    # scan route sums it over the subterms, which is the segment count.
    # Counts stay below 2^63, plus-times' range.
    rng = random.Random(17)
    for shape in ShapeKind:
        for _ in range(100):
            t = gen_term_capped(rng, shape, segs_count, 2**62, max_depth=7, lo=1, hi=1)
            n = prune_count(t)
            assert n == horner_generic(PLUS_TIMES, 1, t)
            assert segs_count(t) == mss_generic(PLUS_TIMES, t)
            assert prune_count(print_term(t), shape) == n


def test_prune_matches_literal_fold_and_recurrence_oracles():
    rng = random.Random(14)
    for shape in ShapeKind:
        for _ in range(100):
            t = gen_term_capped(rng, shape, prune_count, 500, max_depth=4)
            for kind in CollectionKind:
                got = prune(t, kind)
                assert got == prune_via_fold(t, kind)
                assert got == prune_recursive(t, kind)


def test_prune_output_is_built_in_canonical_order():
    # prune skips canonicalisation, so its items must already be sorted
    # and, for sets, duplicate-free; labels are drawn from three values
    # so that sibling subterms often coincide
    rng = random.Random(15)
    for shape in ShapeKind:
        for _ in range(150):
            t = gen_term_capped(rng, shape, prune_count, 400, max_depth=5, lo=-1, hi=1)
            for kind in CollectionKind:
                got = prune(t, kind)
                assert got == collection(kind, got.items) == prune_recursive(t, kind)


def test_bag_and_set_prune_counts_agree_even_with_duplicate_labels():
    # prunings of a single term are pairwise distinct (each empty marker
    # sits at a distinct position), so set never loses elements
    witness = fork(1, leaf(2), leaf(2))
    assert len(prune(witness, CollectionKind.SET).items) == len(
        prune(witness, CollectionKind.BAG).items
    )
    rng = random.Random(15)
    for _ in range(200):
        t = gen_term_capped(rng, ShapeKind.HTREE, prune_count, 2000,
                            max_depth=4, lo=0, hi=1)
        assert len(prune(t, CollectionKind.SET).items) == len(
            prune(t, CollectionKind.BAG).items
        )


def test_segs_multiplicity_depends_on_kind():
    # shared prunings of repeated subterms collapse in the set monad
    t = list_term([1, 1])
    bag_n = len(segs_generic(t, CollectionKind.BAG).items)
    set_n = len(segs_generic(t, CollectionKind.SET).items)
    assert bag_n == segs_count(t) == 9
    assert set_n < bag_n


def test_every_pruning_is_positional_subobject():
    rng = random.Random(16)
    for shape in ShapeKind:
        for _ in range(100):
            t = gen_term_capped(rng, shape, prune_count, 300, max_depth=4)
            for p in prune(t).items:
                assert is_pruning_of(p, t)
    assert not is_pruning_of(leaf(1), leaf(2))
    assert not is_pruning_of(
        parse_pruned("(fork 1 E E)", ShapeKind.HTREE), fork(2, leaf(1), leaf(1))
    )


def test_pruned_roundtrip():
    rng = random.Random(17)
    for shape in ShapeKind:
        for _ in range(100):
            t = gen_term_capped(rng, shape, prune_count, 300, max_depth=4)
            for p in prune(t).items:
                assert parse_pruned(print_pruned(p), shape) == p


def test_pruned_fold_fixtures():
    assert pruned_fold_literal(0, sum_step, EMPTY) == 0
    full = parse_pruned("(fork 1 (leaf 2) (fork 3 (leaf 1) (leaf 4)))", ShapeKind.HTREE)
    assert pruned_fold_literal(0, sum_step, full) == 11
    part = parse_pruned("(fork 1 (leaf 2) E)", ShapeKind.HTREE)
    assert pruned_fold_literal(0, sum_step, part) == 3


def test_a_memo_folds_each_pruned_node_once_over_all_segments():
    rng = random.Random(21)
    for shape in ShapeKind:
        for _ in range(30):
            t = gen_term_capped(rng, shape, segs_count, 400, max_depth=4)
            steps = []

            def counting_sum(tag, labels, kids):
                steps.append(tag)
                return sum_step(tag, labels, kids)

            # children before parents: each child's entry is in the memo
            items, memo = _segs_items(t), {}
            vals = [pruned_fold(0, counting_sum, p, memo) for p in reversed(items)][::-1]
            assert vals == [pruned_fold_literal(0, sum_step, p) for p in items]
            # one step per node segment: each subterm has one EMPTY segment
            assert len(steps) == segs_count(t) - term_size(t)
            assert len(memo) == len(steps)
    # the segments of [1, 2, 3], the prunings of each subterm in preorder
    items, memo = _segs_items(list_term([1, 2, 3])), {}
    assert [pruned_fold(0, sum_step, p, memo) for p in reversed(items)][::-1] == [
        0, 1, 3, 6, 6, 0, 2, 5, 5, 0, 3, 3, 0, 0]


def test_a_segment_whose_children_are_folded_takes_one_layer_step(monkeypatch):
    walks = []

    def counting_postorder(*args, **kwargs):
        walks.append(args[0])
        return postorder(*args, **kwargs)

    monkeypatch.setattr("segmax.pruning.postorder", counting_postorder)
    rng = random.Random(23)
    for shape in ShapeKind:
        for _ in range(30):
            t = gen_term_capped(rng, shape, segs_count, 400, max_depth=4)
            items = _segs_items(t)
            expected = [pruned_fold_literal(0, sum_step, p) for p in items]
            # children before parents: each segment takes one layer step
            walks.clear()
            memo = {}
            assert [pruned_fold(0, sum_step, p, memo) for p in reversed(items)] == expected[::-1]
            assert walks == []


def test_size_guard():
    # the complete htree of depth 6 has 127 nodes and about 4.4 * 10^22 prunings
    text = "(leaf 1)"
    for _ in range(6):
        text = f"(fork 1 {text} {text})"
    t = parse_term(text, ShapeKind.HTREE)
    with pytest.raises(SizeGuardError) as exc:
        prune(t)
    assert exc.value.guard == GUARD and exc.value.size == prune_count(t) > GUARD
    with pytest.raises(SizeGuardError):
        segs_generic(t)


def test_segs_fixtures():
    c = segs_generic(leaf(4))
    assert [print_pruned(p) for p in c.items] == ["E", "(leaf 4)"]
    assert len(segs_generic(EX7).items) == 22 == segs_count(EX7)


def test_segs_count_is_linear_on_long_lists():
    n = 1500
    assert segs_count(list_term([1] * n)) == (n + 2) * (n + 3) // 2 - 1


def test_segs_literal_composition_agrees():
    rng = random.Random(19)
    for shape in ShapeKind:
        for _ in range(60):
            t = gen_term_capped(rng, shape, segs_count, 400, max_depth=4)
            for kind in CollectionKind:
                assert segs_generic(t, kind) == segs_generic_literal(t, kind)
            assert segs_count(t) == len(segs_generic_literal(t, CollectionKind.BAG).items)


def test_list_segs_values_cover_classical_segment_sums():
    from segmax.horner import segs_list

    rng = random.Random(20)
    for _ in range(100):
        xs = [rng.randint(-6, 6) for _ in range(rng.randint(0, 6))]
        t = list_term(xs)
        vals = {
            pruned_fold_literal(0, sum_step, p) for p in segs_generic(t).items
        }
        classic = {sum(seg) for seg in segs_list(xs)}
        assert classic <= vals

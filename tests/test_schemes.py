import itertools
import math
import random

import pytest
from hypothesis import given

from conftest import any_term
from segmax import (
    CollectionKind,
    KindMismatchError,
    Node,
    ShapeKind,
    bidist_node,
    bimap_node,
    collection,
    contents_node,
    contents_term,
    distribute_node,
    fold,
    leaf,
    list_term,
    map_c,
    map_term,
    nil,
    para,
    parse_term,
    tip,
)
from segmax.lawcheck import ALGEBRAS
from segmax.monads import dist_list

EX7 = parse_term("(fork 1 (leaf 2) (fork 3 (leaf 1) (leaf 4)))", ShapeKind.HTREE)

sum_alg = ALGEBRAS["sum"]


def test_fold_fixtures():
    assert fold(sum_alg, list_term([1, 2])) == 3
    assert fold(sum_alg, nil()) == sum_alg(nil())
    assert fold(sum_alg, EX7) == 11


@given(any_term)
def test_fold_universal_property(t):
    for alg in (ALGEBRAS["sum"], ALGEBRAS["size"], ALGEBRAS["depth"]):
        one_step = alg(
            Node(t.shape, t.tag, t.labels, tuple(fold(alg, c) for c in t.children))
        )
        assert fold(alg, t) == one_step


@given(any_term)
def test_para_degenerates_to_fold(t):
    def palg(n):
        return sum_alg(Node(n.shape, n.tag, n.labels,
                            tuple(rec for rec, _orig in n.children)))

    assert para(palg, t) == fold(sum_alg, t)


def test_para_sees_original_subterms():
    t = list_term([1, 2])

    def palg(n):
        if n.tag == "nil":
            return []
        (_rec, orig), = n.children
        return [orig] + _rec

    seen = para(palg, t)
    assert seen[0] == list_term([2])
    assert seen[1] == nil()


def test_contents_node_fixtures():
    assert contents_node(nil()) == []
    assert contents_node(Node(ShapeKind.LIST, "cons", (4,), (7,))) == [4, 7]
    assert contents_node(Node(ShapeKind.HTREE, "fork", (3,), (1, 4))) == [3, 1, 4]
    assert contents_node(tip(9)) == [9]


def test_contents_term_fixtures():
    assert contents_term(nil()) == []
    assert contents_term(list_term([4, -5])) == [4, -5]
    assert contents_term(EX7) == [1, 2, 3, 1, 4]


def _bag(*xs):
    return collection(CollectionKind.BAG, xs)


def test_distribute_fixtures():
    out = distribute_node(nil(), CollectionKind.BAG)
    assert out == _bag(nil())

    n = Node(ShapeKind.LIST, "cons", (1,), (_bag(leaf(7), leaf(8)),))
    out = distribute_node(n, CollectionKind.BAG)
    assert out == _bag(
        Node(ShapeKind.LIST, "cons", (1,), (leaf(7),)),
        Node(ShapeKind.LIST, "cons", (1,), (leaf(8),)),
    )

    a, b, c = tip(1), tip(2), tip(3)
    lx = collection(CollectionKind.LIST, [a])
    ly = collection(CollectionKind.LIST, [b, c])
    n = Node(ShapeKind.ETREE, "bin", (), (lx, ly))
    out = distribute_node(n, CollectionKind.LIST)
    assert out.items == (
        Node(ShapeKind.ETREE, "bin", (), (a, b)),
        Node(ShapeKind.ETREE, "bin", (), (a, c)),
    )


def _children_product(n):
    """distribute_node's specification: one node per choice of an element
    from each child collection, the last child varying fastest."""
    picks = [()]
    for c in n.children:
        picks = [p + (x,) for p in picks for x in c.items]
    return [Node(n.shape, n.tag, n.labels, p) for p in picks]


def test_distribute_list_monad_counts_and_order():
    from segmax.shapes import SIGNATURES

    rng = random.Random(3)
    for shape, kind in itertools.product(ShapeKind, CollectionKind):
        for tag, sig in SIGNATURES[shape].items():
            for _ in range(20):
                labels = tuple(rng.randint(-9, 9) for _ in range(sig.n_labels))
                cols = tuple(
                    collection(kind, [rng.randint(0, 3) for _ in range(rng.randint(0, 3))])
                    for _ in range(sig.n_children)
                )
                n = Node(shape, tag, labels, cols)
                out = distribute_node(n, kind)
                expected = _children_product(n)
                assert out.kind is kind
                assert out == collection(kind, expected)
                if kind is CollectionKind.LIST:
                    assert list(out.items) == expected
                if kind is not CollectionKind.SET:
                    assert len(out.items) == math.prod(len(c.items) for c in cols)


def test_distribute_kind_mismatch():
    bag = _bag(nil())
    n = Node(ShapeKind.LIST, "cons", (1,), (bag,))
    with pytest.raises(KindMismatchError) as e:
        distribute_node(n, CollectionKind.SET)
    assert str(e.value) == f"expected a set collection, got {bag!r}"
    # a child that is not a collection, after one that is: the first bad
    # child is named, and the labels, which are not collections, never are
    for children, bad in (((_bag(leaf(2)), leaf(3)), leaf(3)), ((7, leaf(3)), 7)):
        n = Node(ShapeKind.HTREE, "fork", (1,), children)
        with pytest.raises(KindMismatchError) as e:
            distribute_node(n, CollectionKind.BAG)
        assert str(e.value) == f"expected a bag collection, got {bad!r}"


@given(any_term)
def test_fold_map_fusion(t):
    g = lambda l: 2 * l + 1
    fused = fold(lambda n: sum_alg(bimap_node(g, lambda c: c, n)), t)
    assert fold(sum_alg, map_term(g, t)) == fused


@given(any_term)
def test_contents_naturality(t):
    g = lambda l: l - 7
    assert contents_term(map_term(g, t)) == [g(l) for l in contents_term(t)]


def test_bidist_agrees_with_dist_list_on_contents():
    from segmax.shapes import SIGNATURES

    rng = random.Random(5)
    for _ in range(100):
        kind = rng.choice(list(CollectionKind))
        shape = rng.choice(list(ShapeKind))
        tag = rng.choice(list(SIGNATURES[shape]))
        sig = SIGNATURES[shape][tag]
        cols = tuple(
            collection(kind, [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))])
            for _ in range(sig.n_labels + sig.n_children)
        )
        n = Node(shape, tag, cols[: sig.n_labels], cols[sig.n_labels :])
        lhs = dist_list(cols, kind)
        rhs = map_c(lambda nd: tuple(contents_node(nd)), bidist_node(n, kind))
        assert lhs == rhs


def test_fold_deep_chain():
    t = list_term([1] * 30_000)
    assert fold(sum_alg, t) == 30_000

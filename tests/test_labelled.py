import random

from hypothesis import given

from conftest import any_term
from segmax import (
    ShapeKind,
    fold,
    fork,
    leaf,
    list_term,
    map_labelled,
    nil,
    parse_term,
    preorder_values,
    root,
    scan_generic,
    scanr_list,
    subterms,
    subterms_para,
    term_size,
    tip,
    value_count,
)
from segmax.lawcheck import ALGEBRAS, gen_term
from segmax.oracles import scan_unfold, subterms_unfold

EX7 = parse_term("(fork 1 (leaf 2) (fork 3 (leaf 1) (leaf 4)))", ShapeKind.HTREE)

sum_alg = ALGEBRAS["sum"]


@given(any_term)
def test_root_of_subterms_is_identity(t):
    assert root(subterms(t)) == t


def test_root_single_node():
    assert root(subterms(tip(9))) == tip(9)
    assert root(scan_generic(sum_alg, leaf(5))) == 5


@given(any_term)
def test_root_of_scan_is_fold(t):
    assert root(scan_generic(sum_alg, t)) == fold(sum_alg, t)


def test_subterms_counts():
    assert value_count(subterms(nil())) == 1
    assert preorder_values(subterms(nil())) == [nil()]
    for n in (0, 1, 3, 7):
        t = list_term(range(n))
        assert value_count(subterms(t)) == n + 1


def test_subterms_of_ex7():
    vals = preorder_values(subterms(EX7))
    assert vals == [
        EX7,
        leaf(2),
        fork(3, leaf(1), leaf(4)),
        leaf(1),
        leaf(4),
    ]


@given(any_term)
def test_value_count_equals_node_count(t):
    assert value_count(subterms(t)) == term_size(t)


def test_para_and_unfold_formulations_agree():
    rng = random.Random(9)
    for shape in ShapeKind:
        for _ in range(300):
            t = gen_term(rng, shape)
            s = subterms(t)
            assert s == subterms_para(t)
            assert s == subterms_unfold(t)


def test_scan_fixture_list():
    vals = preorder_values(scan_generic(sum_alg, list_term([4, -5])))
    assert vals == [-1, -5, 0]


def test_scan_single_node():
    l = scan_generic(sum_alg, tip(7))
    assert preorder_values(l) == [7]


@given(any_term)
def test_scan_lemma(t):
    two_pass = map_labelled(lambda s: fold(sum_alg, s), subterms(t))
    assert scan_generic(sum_alg, t) == two_pass
    assert scan_generic(sum_alg, t) == scan_unfold(sum_alg, t)


@given(any_term)
def test_scan_preserves_skeleton(t):
    from segmax.shapes import iter_nodes, preorder

    assert [x.tag for x in preorder(scan_generic(sum_alg, t))] == [n.tag for n in iter_nodes(t)]


def test_list_scan_matches_classical_scanr():
    rng = random.Random(10)
    for _ in range(300):
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 10))]
        vals = preorder_values(scan_generic(sum_alg, list_term(xs)))
        assert vals == scanr_list(lambda a, b: a + b, 0, xs)


def test_labelled_variant_shapes():
    # list sources labelled-variant is a nonempty chain; every tree
    # source yields a 0-or-2-children skeleton
    rng = random.Random(11)
    for shape in ShapeKind:
        for _ in range(200):
            t = gen_term(rng, shape)
            widths = {len(x.children) for x in _iter(subterms(t))}
            if shape is ShapeKind.LIST:
                assert widths <= {0, 1}
            else:
                assert widths <= {0, 2}


def _iter(l):
    stack = [l]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(x.children)


def test_deep_labelled_structures_compare_iteratively():
    t = list_term(range(10_000))
    assert subterms(t) == subterms_para(t)
    assert not subterms(t) != subterms_para(t)
    assert scan_generic(sum_alg, t) != scan_generic(ALGEBRAS["size"], t)

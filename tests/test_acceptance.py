"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (visible with pytest -v via the test names,
and in captured output on failure)."""

import itertools
import json
import random
import time

from click.testing import CliRunner

from segmax import (
    MAX_PLUS,
    PLUS_TIMES,
    SEMIRINGS,
    CollectionKind,
    ShapeKind,
    cp,
    dist_list,
    distribute_node,
    empty,
    fold,
    foldr_list,
    fork,
    generic_product_alg,
    horner_generic,
    horner_generic_brute,
    horner_list,
    inits_list,
    join_c,
    leaf,
    list_term,
    map_c,
    map_labelled,
    max_prefix_sum,
    mss_generic,
    mss_linear,
    mss_quadratic,
    mss_spec,
    parse_term,
    prune,
    reduce,
    run_law,
    scan_generic,
    segs_list,
    singleton,
    subterms,
    subterms_para,
    term_size,
    union,
    value_count,
)
from segmax.cli import bench_run, main
from segmax.lawcheck import (
    ALGEBRAS,
    decode_inputs,
    gen_coll,
    gen_ints,
    gen_nested,
    gen_term,
    gen_term_capped,
)
from segmax.monads import SUM_REDUCE
from segmax.oracles import dist_list_lifted, subterms_unfold
from segmax.pruning import segs_count
from segmax.shapes import Node

EX3 = [4, -5, 6, -3, 2, 0, -4, 5, -6, 5]
EX7_TEXT = "(fork 1 (leaf 2) (fork 3 (leaf 1) (leaf 4)))"
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

GATED = (
    (CollectionKind.BAG, "max-plus"),
    (CollectionKind.BAG, "plus-times"),
    (CollectionKind.LIST, "max-plus"),
)


def test_c01_classic_list_fixture():
    t0 = time.perf_counter()
    assert max_prefix_sum(EX3) == 5
    oracle = max(sum(seg) for seg in segs_list(EX3))
    assert oracle == 6
    assert mss_spec(EX3) == mss_quadratic(EX3) == mss_linear(EX3) == 6
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"[criterion-01] PASS prefix=5 mss=6 oracle=6 in {dt:.3f}s")


def test_c02_algorithm_chain_equivalence():
    t0 = time.perf_counter()
    exhaustive = 0
    for ln in range(6):
        for xs in itertools.product(range(-2, 3), repeat=ln):
            xs = list(xs)
            if not mss_spec(xs) == mss_quadratic(xs) == mss_linear(xs):
                raise AssertionError(f"mismatch at {xs}")
            exhaustive += 1
    assert exhaustive == 3906
    rng = random.Random(20260809)
    bound = 1 << 20
    for _ in range(10_000):
        xs = [rng.randint(-bound, bound) for _ in range(rng.randint(0, 64))]
        if not mss_spec(xs) == mss_quadratic(xs) == mss_linear(xs):
            raise AssertionError(f"mismatch at {xs}")
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"[criterion-02] PASS 3906 exhaustive + 10^4 random in {dt:.1f}s")


def test_c03_pruning_fixture():
    from segmax import print_pruned

    t0 = time.perf_counter()
    t = parse_term(EX7_TEXT, ShapeKind.HTREE)
    c = prune(t, CollectionKind.BAG)
    got = [print_pruned(p) for p in c.items]
    assert len(got) == 11
    assert got == EX7_PRUNINGS
    assert len(prune(fork(3, leaf(1), leaf(4)), CollectionKind.BAG).items) == 5
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"[criterion-03] PASS 11 prunings (subtree 5) in {dt:.3f}s")


def test_c04_list_horner_rule():
    t0 = time.perf_counter()
    checked = 0
    for ln in range(7):
        for xs in itertools.product(range(0, 4), repeat=ln):
            xs = list(xs)
            prods = [foldr_list(lambda a, b: a * b, 1, seg) for seg in inits_list(xs)]
            assert horner_list(PLUS_TIMES, xs) == sum(prods)
            checked += 1
    rng = random.Random(4)
    for _ in range(1000):
        xs = gen_ints(rng, 12, -16, 16)
        sums = [sum(seg) for seg in inits_list(xs)]
        assert horner_list(MAX_PLUS, xs) == max(sums)
    dt = time.perf_counter() - t0
    print(f"[criterion-04] PASS {checked} exhaustive plus-times, 1000 random "
          f"max-plus in {dt:.1f}s")


def test_c05_scan_lemma_and_counts():
    t0 = time.perf_counter()
    rng = random.Random(5)
    algs = [ALGEBRAS["sum"], ALGEBRAS["maxplus-horner"], ALGEBRAS["size"]]
    for shape in ShapeKind:
        for i in range(500):
            t = gen_term(rng, shape, max_depth=6)
            alg = algs[i % len(algs)]
            assert scan_generic(alg, t) == map_labelled(
                lambda s: fold(alg, s), subterms(t)
            )
            assert value_count(subterms(t)) == term_size(t)
    for n in (0, 1, 2, 5, 9):
        assert value_count(subterms(list_term(range(n)))) == n + 1
    dt = time.perf_counter() - t0
    print(f"[criterion-05] PASS 500 scans/shape, counts match in {dt:.1f}s")


def test_c06_generic_horner_and_mss():
    t0 = time.perf_counter()
    rng = random.Random(6)
    per_shape = 300
    for shape in ShapeKind:
        for _ in range(per_shape):
            t = gen_term_capped(rng, shape, segs_count, 2000, max_depth=4,
                                lo=-3, hi=3)
            for sname in ("max-plus", "plus-times"):
                s = SEMIRINGS[sname]
                b = 0 if sname == "max-plus" else s.mul_unit
                assert horner_generic(s, b, t) == horner_generic_brute(s, b, t)
                scan_v = mss_generic(s, t, via="scan", kind=CollectionKind.BAG)
                brute_v = mss_generic(s, t, via="brute", kind=CollectionKind.BAG)
                assert scan_v == brute_v
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"[criterion-06] PASS {per_shape}/shape, both semirings in {dt:.1f}s")


def test_c07_distributivity_suite():
    t0 = time.perf_counter()
    rng = random.Random(7)
    from segmax.shapes import SIGNATURES

    for kind, sname in GATED:
        s = SEMIRINGS[sname]
        lo, hi = (-3, 3) if sname == "plus-times" else (-8, 8)
        f = generic_product_alg(s, s.mul_unit)
        for _ in range(500):
            # rectangle: distribute a constructor over child collections
            shape = rng.choice(list(ShapeKind))
            tag = rng.choice(list(SIGNATURES[shape]))
            sig = SIGNATURES[shape][tag]
            labels = tuple(rng.randint(lo, hi) for _ in range(sig.n_labels))
            cols = tuple(gen_coll(rng, kind, 3, lo, hi, min_size=1)
                         for _ in range(sig.n_children))
            n = Node(shape, tag, labels, cols)
            lhs = reduce(s.reduce_op, map_c(f, distribute_node(n, kind)))
            rhs = f(Node(shape, tag, labels,
                         tuple(reduce(s.reduce_op, c) for c in cols)))
            assert lhs == rhs, (kind, sname, n)

            # pairing distributivity
            x = gen_coll(rng, kind, 4, lo, hi, min_size=1)
            y = gen_coll(rng, kind, 4, lo, hi, min_size=1)
            lhs = reduce(s.reduce_op, map_c(lambda ab: s.mul(ab[0], ab[1]), cp(x, y)))
            assert lhs == s.mul(reduce(s.reduce_op, x), reduce(s.reduce_op, y))

            # one-sided mul distributivity
            a = rng.randint(lo, hi)
            assert reduce(s.reduce_op, map_c(lambda v: s.mul(a, v), x)) == s.mul(
                a, reduce(s.reduce_op, x)
            )
            assert reduce(s.reduce_op, map_c(lambda v: s.mul(v, a), x)) == s.mul(
                reduce(s.reduce_op, x), a
            )

    report = run_law("set-plus-nonidempotent", 42, 10_000)
    assert report.ok and report.outcome == "FAILS_WITH_WITNESS"
    w = decode_inputs(report.witness)
    x, y = w["x"], w["y"]
    assert len(x.items) == 1 and x == y
    lhs = reduce(SUM_REDUCE, union(x, y), check=False)
    rhs = reduce(SUM_REDUCE, x, check=False) + reduce(SUM_REDUCE, y, check=False)
    assert (lhs, rhs) == (1, 2)
    dt = time.perf_counter() - t0
    print(f"[criterion-07] PASS 3x500 trials/pair hold; set+sum witness "
          f"1 vs 2 in {dt:.1f}s")


def test_c08_monad_and_reduction_laws():
    t0 = time.perf_counter()
    rng = random.Random(8)
    for kind in CollectionKind:
        for _ in range(500):
            x = gen_coll(rng, kind)
            xxx = gen_nested(rng, kind, 2)
            assert join_c(singleton(kind, x)) == x
            assert join_c(map_c(lambda a: singleton(kind, a), x)) == x
            assert join_c(map_c(join_c, xxx)) == join_c(join_c(xxx))

            xx, yy = gen_nested(rng, kind, 1), gen_nested(rng, kind, 1)
            assert join_c(empty(kind)) == empty(kind)
            assert join_c(union(xx, yy)) == union(join_c(xx), join_c(yy))

            op = SEMIRINGS["max-plus"].reduce_op
            assert reduce(op, empty(kind)) == op.unit
            assert reduce(op, union(x, empty(kind))) == reduce(op, x)
    dt = time.perf_counter() - t0
    print(f"[criterion-08] PASS 500 trials/kind for monad, join and unit "
          f"laws in {dt:.1f}s")


def test_c09_cross_formulation_equivalences():
    t0 = time.perf_counter()
    rng = random.Random(9)
    for _ in range(500):
        t = gen_term(rng, rng.choice(list(ShapeKind)))
        s = subterms(t)
        assert s == subterms_para(t) == subterms_unfold(t)
    for _ in range(500):
        kind = rng.choice(list(CollectionKind))
        mbs = [gen_coll(rng, kind, 3) for _ in range(rng.randint(0, 3))]
        assert dist_list(mbs, kind) == dist_list_lifted(mbs, kind)
    dt = time.perf_counter() - t0
    print(f"[criterion-09] PASS 500+500 equivalence trials in {dt:.1f}s")


def test_c10_asymptotic_smoke():
    t0 = time.perf_counter()
    rows = bench_run([200, 400, 800], ["spec"], seed=42)
    times = {r["n"]: r["seconds"] for r in rows}
    ratio = times[800] / times[400]
    assert 6.0 <= ratio <= 12.0, ratio

    rng = random.Random(10)
    bound = 1 << 20
    big = [rng.randint(-bound, bound) for _ in range(200_000)]
    t1 = time.perf_counter()
    mss_linear(big)
    linear_big = time.perf_counter() - t1
    assert linear_big < 1.0

    xs = [rng.randint(-bound, bound) for _ in range(2000)]
    t1 = time.perf_counter()
    mss_spec(xs)
    spec_t = time.perf_counter() - t1
    t1 = time.perf_counter()
    mss_linear(xs)
    lin_t = time.perf_counter() - t1
    assert spec_t / lin_t >= 100.0
    dt = time.perf_counter() - t0
    print(f"[criterion-10] PASS cubic ratio {ratio:.1f}, linear(2e5) "
          f"{linear_big*1000:.0f}ms, spec/linear at 2000 = "
          f"{spec_t/lin_t:.0f} in {dt:.1f}s")


def test_c11_law_run_determinism():
    runner = CliRunner()
    args = ["laws", "--seed", "42", "--json"]
    a = runner.invoke(main, args, catch_exceptions=False)
    b = runner.invoke(main, args, catch_exceptions=False)
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.output == b.output
    blob = json.loads(a.output)
    assert all(r["ok"] for r in blob)
    print(f"[criterion-11] PASS byte-identical law reports over "
          f"{len(blob)} cases")

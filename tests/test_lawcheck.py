import json
import random

import pytest

from segmax import (LAW_IDS, SEMIRINGS, UnknownLawError, ensure_distributive, replay,
                    run_all, run_law)
from segmax.lawcheck import (
    FUSION_TRIPLES,
    GATED_PAIRS,
    _broken_side_condition,
    decode_inputs,
    decode_value,
    encode_inputs,
    encode_value,
    gen_term,
    gen_term_capped,
    get_law,
    reports_to_json,
    shrink_inputs,
)
from segmax.monads import CollectionKind, collection, reduce, SUM_REDUCE, union
from segmax.shapes import EMPTY, ShapeKind, iter_nodes, leaf, print_term, term_size

EXPECTED_IDS = {
    "fold-universal",
    "fold-universal-base",
    "fold-fusion",
    "fold-map-fusion",
    "scan-lemma",
    "subterms-para-equiv",
    "subterms-unfold-equiv",
    "monad-laws",
    "join-distributes",
    "monad-algebra",
    "reduce-distributes",
    "reduce-unit-forced",
    "horner-list",
    "mss-chain",
    "rectangle-distributivity",
    "face7-lists",
    "distlist-defs-equiv",
    "cp-distributivity",
    "collection-distributivity",
    "contents-naturality",
    "delta-respects-contents",
    "horner-generic-vs-prune",
    "mss-generic-scan-vs-brute",
    "set-plus-nonidempotent",
    "prune-counts",
}

# which law ids put each lawful operation under test; the registry must
# cover every row
OPERATION_COVERAGE = {
    "fold": ["fold-universal", "fold-universal-base", "fold-fusion"],
    "map_term": ["fold-map-fusion", "contents-naturality"],
    "subterms": ["subterms-para-equiv", "subterms-unfold-equiv", "scan-lemma"],
    "scan_generic": ["scan-lemma"],
    "singleton/join/map": ["monad-laws", "join-distributes"],
    "reduce": ["monad-algebra", "reduce-distributes", "reduce-unit-forced",
               "set-plus-nonidempotent"],
    "cp": ["cp-distributivity", "distlist-defs-equiv"],
    "dist_list": ["distlist-defs-equiv", "face7-lists", "delta-respects-contents"],
    "distribute_node": ["rectangle-distributivity"],
    "contents": ["contents-naturality", "delta-respects-contents"],
    "prune": ["prune-counts", "horner-generic-vs-prune"],
    "segs_generic": ["mss-generic-scan-vs-brute"],
    "horner_list": ["horner-list"],
    "mss chain": ["mss-chain"],
    "horner_generic": ["horner-generic-vs-prune"],
    "mss_generic": ["mss-generic-scan-vs-brute"],
    "collection mul distribution": ["collection-distributivity"],
}


def test_registry_is_complete():
    assert set(LAW_IDS) == EXPECTED_IDS
    for op, ids in OPERATION_COVERAGE.items():
        for law_id in ids:
            assert law_id in LAW_IDS, f"{op} cites unregistered law {law_id}"


def test_full_registry_meets_expectations():
    reports = run_all(seed=42, trials=80)
    assert all(r.ok for r in reports), [r.id for r in reports if not r.ok]


def test_determinism_same_seed_same_bytes():
    a = reports_to_json(run_all(seed=42, trials=40))
    b = reports_to_json(run_all(seed=42, trials=40))
    assert a == b
    c = reports_to_json(run_all(seed=43, trials=40))
    assert isinstance(c, str)


def test_unknown_law():
    with pytest.raises(UnknownLawError):
        run_law("nosuch", 1, 1)


def test_fold_universal_base_single_trial():
    r = run_law("fold-universal-base", 0, 1)
    assert r.outcome == "HOLDS" and r.ok and r.trials == 1


def test_expected_failure_finds_and_shrinks_witness():
    r = run_law("set-plus-nonidempotent", 42, 10_000)
    assert r.outcome == "FAILS_WITH_WITNESS" and r.ok
    inputs = decode_inputs(r.witness)
    x, y = inputs["x"], inputs["y"]
    assert x == y and len(x.items) == 1
    lhs = reduce(SUM_REDUCE, union(x, y), check=False)
    rhs = reduce(SUM_REDUCE, x, check=False) + reduce(SUM_REDUCE, y, check=False)
    assert (lhs, rhs) == (1, 2)


def test_witness_replays_standalone():
    r = run_law("set-plus-nonidempotent", 7, 1000)
    assert r.witness is not None
    assert replay("set-plus-nonidempotent", r.witness)


@pytest.mark.parametrize("law_id", sorted(EXPECTED_IDS))
def test_every_law_replays_from_its_witness(law_id):
    # a draw survives the witness codec and its names resolve the same way
    law = get_law(law_id)
    inputs = law.gen(random.Random(f"42:{law_id}"))
    text = encode_inputs(inputs)
    assert decode_inputs(text) == inputs
    assert replay(law_id, text) == law.violated(inputs)


def test_codec_roundtrip():
    values = [
        5,
        "max-plus",
        EMPTY,
        leaf(3),
        gen_term(random.Random(1), ShapeKind.ITREE),
        collection(CollectionKind.BAG, [3, 1, 1]),
        collection(CollectionKind.SET, [collection(CollectionKind.SET, [1])]),
        (1, (2, 3)),
        [1, 2, 3],
        [collection(CollectionKind.LIST, [(1, 2)])],
    ]
    for v in values:
        assert decode_value(json.loads(json.dumps(encode_value(v)))) == v


def test_report_json_shape():
    r = run_law("mss-chain", 5, 10)
    blob = json.loads(reports_to_json([r]))
    assert blob[0]["id"] == "mss-chain"
    assert set(blob[0]) == {"id", "trials", "outcome", "expectation", "ok", "witness"}


def test_gated_pairs_pass_the_gate():
    # the pairs every distributivity-flavoured law draws pass the gate,
    # mul's sampled laws included
    for kind, name in GATED_PAIRS:
        ensure_distributive(SEMIRINGS[name], kind)


@pytest.fixture
def children_counted_twice(monkeypatch):
    """A triple whose g doubles the already doubled children: h . f = g . F h
    breaks on every layer with a child."""
    monkeypatch.setitem(FUSION_TRIPLES, "double-sum-twice", (
        lambda x: 2 * x,
        lambda n: sum(n.labels) + sum(n.children),
        lambda n: 2 * sum(n.labels) + 2 * sum(n.children)))
    _broken_side_condition.cache_clear()
    yield
    monkeypatch.undo()
    _broken_side_condition.cache_clear()


def test_fusion_side_condition_holds_for_the_shipped_triples():
    assert _broken_side_condition() is None


def test_a_broken_side_condition_names_the_triple_and_the_layer(children_counted_twice):
    # the first layer with a child is a cons; its label and child are -3
    assert _broken_side_condition() == ("double-sum-twice at list cons", (-3, -3))


def test_a_broken_side_condition_fails_fold_fusion(children_counted_twice):
    report = run_law("fold-fusion", seed=42, trials=50)
    assert (report.outcome, report.ok, report.trials) == ("FAILS_WITH_WITNESS", False, 1)
    assert replay("fold-fusion", report.witness)


def test_the_codec_refuses_what_it_cannot_write_or_read():
    for bad, message in ((lambda: encode_value(True), "boolean inputs are not used"),
                         (lambda: encode_value(1.5), "cannot serialize float"),
                         (lambda: decode_value({"t": "bogus"}),
                          "cannot deserialize {'t': 'bogus'}")):
        with pytest.raises(TypeError) as exc:
            bad()
        assert str(exc.value) == message


def test_a_capped_draw_retries_shallower_then_falls_back_to_depth_one():
    drawn = []

    def too_big(t):
        drawn.append(t)
        return 2

    def height(t):
        return max((1 + height(c) for c in t.children), default=0)

    t = gen_term_capped(random.Random(9), ShapeKind.HTREE, too_big, cap=1)
    assert len(drawn) == 40
    assert all(height(d) <= max(1, 5 - i) for i, d in enumerate(drawn))
    assert print_term(t) == "(fork -6 (leaf 1) (leaf -6))"


def test_shrink_pins_on_a_term_a_list_a_tuple_and_a_raising_check():
    # a term: to a child, then every label halved or zeroed at once, then
    # one label zeroed
    def has_a_big_fork(term):
        return any(n.tag == "fork" and n.labels[0] >= 4 for n in iter_nodes(term))

    t = gen_term(random.Random(2), ShapeKind.HTREE)
    assert term_size(t) == 19
    shrunk = shrink_inputs({"term": t}, lambda d: has_a_big_fork(d["term"]))
    assert print_term(shrunk["term"]) == "(fork 6 (leaf 0) (leaf 0))"
    # a list loses elements; a tuple keeps its arity
    assert shrink_inputs({"xs": [5, -3, 8, 2]}, lambda d: sum(d["xs"]) > 6) == {"xs": [8]}
    assert shrink_inputs({"t": (7, -4, 9)}, lambda d: max(d["t"]) >= 5) == {"t": (1, -4, 9)}
    # a candidate whose check raises does not violate: 0 is never taken
    assert shrink_inputs({"x": 40}, lambda d: 10 // d["x"] < 5) == {"x": -1}

import collections
import itertools
import os
import random
import re
import subprocess
import sys
import types

import pytest
from hypothesis import given

import segmax
from conftest import any_term, mutate, terms
from segmax import shapes
from segmax import (
    BOOL_OR_AND,
    EMPTY,
    I64_MAX,
    I64_MIN,
    Collection,
    CollectionKind,
    Node,
    ShapeKind,
    ShapeMismatchError,
    TermSyntaxError,
    bimap_node,
    cons,
    fork,
    MAX_PLUS,
    leaf,
    list_term,
    make_node,
    mss_generic,
    nil,
    parse_pruned,
    parse_term,
    print_pruned,
    print_term,
    prune,
    prune_count,
    term_size,
    tip,
)
from segmax.ints import parse_int
from segmax.lawcheck import ALGEBRAS, gen_term, gen_term_capped
from segmax.pruning import print_step
from segmax.shapes import SIGNATURES, iter_nodes, postorder, struct_key
from test_horner import _terms_in_scope

EX7 = "(fork 1 (leaf 2) (fork 3 (leaf 1) (leaf 4)))"


def test_builders_and_print_fixtures():
    assert print_term(nil()) == "nil"
    assert print_term(list_term([4, -5])) == "(cons 4 (cons -5 nil))"
    t = fork(1, leaf(2), fork(3, leaf(1), leaf(4)))
    assert print_term(t) == EX7


def test_parse_fixtures():
    t = parse_term(EX7, ShapeKind.HTREE)
    assert t == fork(1, leaf(2), fork(3, leaf(1), leaf(4)))
    assert parse_term("nil", ShapeKind.LIST) == nil()
    assert parse_term("(cons 4 (cons -5 nil))", ShapeKind.LIST) == list_term([4, -5])
    assert parse_term("( fork 1\n(leaf 2) (\tleaf 3))", ShapeKind.HTREE) == fork(1, leaf(2), leaf(3))
    # a space after '(' splits the head: the split tokens differ, and the
    # text answers through the token pattern
    text = "( fork 1 (leaf 2) (leaf 3))"
    assert shapes._split_tokens(text) != shapes._TOKEN_RE.findall(text)
    assert parse_term(text, ShapeKind.HTREE) == fork(1, leaf(2), leaf(3))


OVER_LIMIT = "(cons 0 " * 100_000 + "nil" + ")" * 100_000  # 100,001 nodes

PARSE_ERRORS = [
    (parse_term, "(cons 4", ShapeKind.LIST, "unexpected end of input", 7),
    (parse_term, "(cons 4 nil) nil", ShapeKind.LIST, "unexpected trailing input", 13),
    (parse_term, "(snoc 4 nil)", ShapeKind.LIST,
     "expected a constructor name after '('", 1),
    (parse_term, "(cons nil nil)", ShapeKind.LIST, "expected an integer label", 6),
    (parse_term, "(cons 4 )", ShapeKind.LIST, "unexpected ')'", 8),  # missing child
    (parse_term, "cons", ShapeKind.LIST,
     "constructor 'cons' takes arguments and needs parentheses", 0),
    (parse_term, "(nil)", ShapeKind.LIST, "atom 'nil' cannot take parentheses", 1),
    (parse_term, "(  nil)", ShapeKind.LIST, "atom 'nil' cannot take parentheses", 3),
    (parse_term, "(leaf 2)", ShapeKind.LIST,  # wrong shape vocabulary
     "expected a constructor name after '('", 1),
    (parse_term, "E", ShapeKind.HTREE, "unknown constructor 'E' for shape htree", 0),
    (parse_term, "(cons 99999999999999999999 nil)", ShapeKind.LIST,
     "integer label outside 64-bit range", 6),
    # past the interpreter's 4,300-digit int(str) limit, judged by value too
    (parse_term, f"(cons {'9' * 5000} nil)", ShapeKind.LIST,
     "integer label outside 64-bit range", 6),
    (parse_term, f"(fork -{'9' * 5000} (leaf 1) (leaf 2))", ShapeKind.HTREE,
     "integer label outside 64-bit range", 6),
    (parse_term, f"(cons 1 nil) {'9' * 5000}", ShapeKind.LIST,
     "integer label outside 64-bit range", 13),
    (parse_pruned, f"(leaf {'0' * 5000}1 E)", ShapeKind.HTREE, "expected ')'", 5008),
    (parse_term, "", ShapeKind.LIST, "unexpected end of input", 0),
    (parse_term, "@", ShapeKind.LIST, "unexpected character '@'", 0),
    # a character no token accepts is reported before any parse fault
    (parse_term, "(cons 4 nil) @", ShapeKind.LIST, "unexpected character '@'", 13),
    (parse_term, "5", ShapeKind.LIST, "integer found where a term was expected", 0),
    (parse_term, ")", ShapeKind.LIST, "unexpected ')'", 0),
    (parse_term, "(", ShapeKind.LIST, "missing constructor after '('", 1),
    (parse_term, "(5", ShapeKind.LIST, "expected a constructor name after '('", 1),
    (parse_term, "(cons", ShapeKind.LIST, "missing integer label", 5),
    (parse_term, "(leaf 1 2)", ShapeKind.HTREE, "expected ')'", 8),
    # a node whose last child is followed by another term
    (parse_term, "(cons 1 nil nil)", ShapeKind.LIST, "expected ')'", 12),
    (parse_term, "(bin (tip 1) (tip 2) (tip 3))", ShapeKind.ETREE, "expected ')'", 21),
    (parse_term, "-", ShapeKind.LIST, "unexpected character '-'", 0),
    # int() reads '+5' and '1_0', which the label syntax -?\d+ refuses
    (parse_term, "(leaf +5)", ShapeKind.HTREE, "unexpected character '+'", 6),
    (parse_term, "(cons 1_0 nil)", ShapeKind.LIST, "unexpected character '_'", 7),
    (parse_pruned, "(fork 1 E)", ShapeKind.HTREE, "unexpected ')'", 9),
    (parse_pruned, "(leaf 1 E)", ShapeKind.HTREE, "expected ')'", 8),
    # a fault in each state of the open constructors: every kid read, a
    # second kid still wanted, none open, and several open at the end
    (parse_term, "(cons 1 (cons 2 (cons 3 nil))", ShapeKind.LIST, "missing ')'", 29),
    (parse_term, "(fork 1 (fork 2 (leaf 3)) (leaf 4))", ShapeKind.HTREE, "unexpected ')'", 24),
    (parse_term, "(fork 1 (fork 2 (leaf 3) (leaf 4) (leaf 5)) (leaf 6))", ShapeKind.HTREE,
     "expected ')'", 34),
    (parse_term, "(leaf 1) (leaf 2)", ShapeKind.HTREE, "unexpected trailing input", 9),
    (parse_term, "(bin (bin (tip 1) (tip 2)) (tip 3)) )", ShapeKind.ETREE,
     "unexpected trailing input", 36),
    (parse_term, "(node 1 nilt (node 2 nilt nilt)", ShapeKind.ITREE, "missing ')'", 31),
    (parse_term, "(node 1 (node 2 nilt nilt) )", ShapeKind.ITREE, "unexpected ')'", 27),
    (parse_pruned, "(fork 1 E (fork 2 E))", ShapeKind.HTREE, "unexpected ')'", 19),
    # the node limit: a text with more '(' and atom names than it allows is
    # refused before its syntax is read
    (parse_term, OVER_LIMIT, ShapeKind.LIST, "tree larger than 100000 nodes", 0),
    (parse_pruned, OVER_LIMIT, ShapeKind.LIST, "tree larger than 100000 nodes", 0),
    (parse_term, "(" * 100_001, ShapeKind.LIST, "tree larger than 100000 nodes", 0),
    # 50,000 '(' but 100,001 nodes: the atoms count too
    (parse_term, "(node 1 nilt " * 50_000 + "nilt" + ")" * 50_000, ShapeKind.ITREE,
     "tree larger than 100000 nodes", 0),
    # malformed, but past the limit: the size is read before the syntax
    (parse_term, "nil " * 100_001, ShapeKind.LIST, "tree larger than 100000 nodes", 0),
]


def _case_id(parse, text, shape) -> str:
    if len(text) > 40:  # the long rows, the node and digit limits among them
        text = f"{parse.__name__}-{len(text)}-chars"
    return f"{text}-{shape}"


@pytest.mark.parametrize(
    "parse,text,shape,message,offset", PARSE_ERRORS,
    ids=[_case_id(parse, text, shape) for parse, text, shape, _, _ in PARSE_ERRORS],
)
def test_parse_errors(parse, text, shape, message, offset):
    with pytest.raises(TermSyntaxError) as exc:
        parse(text, shape)
    assert str(exc.value) == f"{message} (at offset {offset})"
    assert exc.value.offset == offset


def test_the_node_limit_does_not_count_the_empty_marker():
    p = parse_pruned("(cons 0 " * 100_000 + "E" + ")" * 100_000, ShapeKind.LIST)
    assert term_size(p) == 100_000


def test_an_oversize_text_is_refused_before_it_is_tokenized(monkeypatch):
    class Untokenizable:
        def findall(self, text):
            raise AssertionError("an oversize text was tokenized")

    def unsplittable(text):
        raise AssertionError("an oversize text was split")

    monkeypatch.setattr(shapes, "_TOKEN_RE", Untokenizable())
    monkeypatch.setattr(shapes, "_split_tokens", unsplittable)
    texts = [(OVER_LIMIT, ShapeKind.LIST),  # 100,000 '(' and one nil
             ("(node 1 nilt " * 50_000 + "nilt" + ")" * 50_000, ShapeKind.ITREE)]
    for text, shape in texts:
        for parse in (parse_term, lambda text, shape: mss_generic(MAX_PLUS, text, shape=shape),
                      prune_count):
            with pytest.raises(TermSyntaxError) as exc:
                parse(text, shape)
            assert str(exc.value) == "tree larger than 100000 nodes (at offset 0)"


def test_split_and_the_token_pattern_agree_on_every_code_point():
    # the split tokens are the pattern's only if both split at the same
    # characters, and a label that int() reads is -?\d+ only if int()'s
    # digits are \d's
    chars = "".join(map(chr, range(0x110000)))
    spaces = {ch for ch in chars if ch.isspace()}
    assert set(re.findall(r"\s", chars)) == spaces
    assert set(chars) - set("".join(chars.split())) == spaces
    digits = {ch for ch in chars if ch.isdecimal()}
    assert set(re.findall(r"\d", chars)) == digits
    read = set()
    for ch in chars:
        try:
            int(ch)
        except ValueError:
            continue
        read.add(ch)
    assert read == digits


def _respaced(rng, text: str) -> str:
    """text with each space replaced by a random run of separators, and
    some spaces before '(' dropped."""
    text = re.sub(r"(?<=[)\w]) (?=\()", lambda m: rng.choice(("", " ")), text)
    return re.sub(" ", lambda m: "".join(rng.choices(
        [" ", "\t", "\n", "\u00a0", "\u3000", "\r\n"], k=rng.randint(1, 2))), text)


def test_split_tokens_are_the_token_patterns_on_well_formed_texts():
    rng = random.Random(18)
    for shape in ShapeKind:
        for _ in range(60):
            t = gen_term_capped(rng, shape, prune_count, 200, max_depth=5, lo=-99, hi=99)
            texts = [print_term(t)]
            texts += [print_pruned(p) for p in rng.choices(prune(t).items, k=3)]
            for text in texts:
                for spaced in (text, _respaced(rng, text)):
                    assert shapes._split_tokens(spaced) == shapes._TOKEN_RE.findall(spaced)


def _syntax_outcome(f):
    try:
        return "value", f()
    except (segmax.SegmaxError, OverflowError) as e:
        return type(e).__name__, str(e), getattr(e, "offset", None)


def test_the_split_tokens_answer_as_the_token_pattern_does(monkeypatch):
    # on mutated texts, well-formed or not, every text route gives the same
    # value or the same error, message and offset with the token pattern
    # alone: the split read gives way at the first token it does not accept;
    # and both reads answer alike without _SMALL_LABELS.  Every fifth term
    # draws its labels across the table's edges, and the spellings put in
    # below ('-0', '007', an Arabic-Indic digit, the 64-bit edges) miss it
    rng = random.Random(19)
    cases = []
    spellings = ["-0", "007", "\u0663", "1000", "-1000", str(I64_MIN), str(I64_MAX),
                 str(I64_MAX + 1)]
    for shape in ShapeKind:
        for j in range(250):
            lo, hi = (-1200, 1200) if j % 5 == 0 else (-99, 99)
            t = gen_term_capped(rng, shape, prune_count, 200, max_depth=5, lo=lo, hi=hi)
            text = rng.choice([print_term(t), print_pruned(rng.choice(prune(t).items))])
            text = _respaced(rng, text) if rng.random() < 0.3 else text
            i, op = rng.randrange(len(text) + 1), rng.random()
            if op < 0.2:
                text = mutate(rng, text)
            elif op < 0.3:  # a space after a '(': the pattern still reads it
                k = text.rfind("(", 0, i)
                text = text[:k + 1] + " " + text[k + 1:] if k >= 0 else text
            elif op < 0.45:  # text the split read and the pattern may part on
                text = text[:i] + rng.choice(["( ", "+", "_", "\u3000", "x", "@", "5",
                                              ")(", "E ", *spellings]) + text[i:]
            elif op < 0.6:  # a label spelt as the table may miss it
                labels = list(re.finditer(r"-?\d+", text))
                if labels:
                    m = rng.choice(labels)
                    text = text[:m.start()] + rng.choice(spellings) + text[m.end():]
            cases.append((shape, text))
    routes = [parse_pruned, prune_count,
              lambda text, shape: mss_generic(MAX_PLUS, text, shape=shape),
              lambda text, shape: mss_generic(BOOL_OR_AND, text, shape=shape)]

    def outcomes():
        return [_syntax_outcome(lambda: route(text, shape))
                for shape, text in cases for route in routes]

    split = outcomes()
    monkeypatch.setattr(shapes, "_SMALL_LABELS", {})
    assert outcomes() == split
    monkeypatch.setattr(shapes, "plain_ints", lambda text: False)
    assert outcomes() == split
    monkeypatch.undo()
    monkeypatch.setattr(shapes, "plain_ints", lambda text: False)
    assert outcomes() == split
    kinds = collections.Counter(o[0] for o in split)
    assert kinds["value"] >= 1200 and kinds["TermSyntaxError"] >= 1200, kinds
    assert kinds["CarrierError"] > 0, kinds
    # texts read whole whose labels include one the table misses
    missed = sum(o[0] == "value" and any(
        tok not in shapes._SMALL_LABELS for tok in re.findall(r"-?\d+", text))
        for (_, text), o in zip(cases, split[::len(routes)]))
    assert missed >= 90, missed


def test_the_small_label_table_holds_what_either_read_builds():
    # a label token found in _SMALL_LABELS is taken as its entry instead of
    # being read, so each entry must be the in-range label tuple that int
    # (the split read) and parse_int (the token pattern) both build
    table = shapes._SMALL_LABELS
    assert len(table) == 1999 and set(table) == {str(v) for v in range(-999, 1000)}
    for k, entry in table.items():
        assert entry == (int(k),) == (parse_int(k),), k
        assert type(entry[0]) is int and I64_MIN <= entry[0] <= I64_MAX, k


def test_the_node_count_read_before_the_parse_is_the_term_size(monkeypatch):
    # the parser refuses a text at a limit one below its term's size and
    # reads it at its size, so the count it reads first is the size
    def count_is_size(text, shape, parse, size):
        monkeypatch.setattr(shapes, "MAX_TREE_NODES", size - 1)
        with pytest.raises(TermSyntaxError, match="^tree larger than"):
            parse(text, shape)
        monkeypatch.setattr(shapes, "MAX_TREE_NODES", size)
        return term_size(parse(text, shape)) == size

    rng = random.Random(17)
    for shape in ShapeKind:
        for _ in range(150):
            t = gen_term(rng, shape, max_depth=rng.randint(0, 6))
            text, size = print_term(t), term_size(t)
            for spaced in (text, text.replace("(", "( "), text.replace("(", "(\n\t")):
                assert count_is_size(spaced, shape, parse_term, size), spaced
            items = prune(t).items if prune_count(t) <= 1000 else []
            for p in rng.sample(items, min(4, len(items))):
                # 'E' is no node: term_size skips it, and so must the count
                assert count_is_size(print_pruned(p), shape, parse_pruned, term_size(p)), p


def test_postorder_out_receives_every_result_in_preorder():
    rng = random.Random(8)
    for shape in ShapeKind:
        t = gen_term(rng, shape)
        out: list = []
        assert postorder(t, lambda n, kids: 1 + sum(kids), out=out) == term_size(t)
        assert out == [term_size(y) for y in iter_nodes(t)]
    out = []
    postorder(parse_pruned("(fork 1 E (fork 2 (leaf 3) E))", ShapeKind.HTREE),
              lambda n, kids: n.labels[0] + sum(k for k in kids if k is not None), out=out)
    assert out == [6, 5, 3]  # empty slots are worth None and listed nowhere


def _check_the_close_protocol(texts_and_terms, shape):
    """Check that _parse runs a recording close action on each text as
    postorder runs it on its term, with the same out.  A text's atoms are closed once each before it is read, and its 'E' is
    EMPTY where postorder's empty slot is worth None and listed nowhere."""
    atoms = [tag for tag, sig in SIGNATURES[shape].items() if sig.atom]

    def recorder(calls):
        def close(tag, labels, kids):
            call = (tag, labels, tuple(None if k is EMPTY else k for k in kids))
            calls.append(call)
            return call  # pure: a value per subterm
        return close

    for text, t in texts_and_terms:
        text_calls, text_out = [], []
        value = shapes._parse(text, shape, recorder(text_calls), allow_empty=True,
                              out=text_out)
        term_calls, term_out = [], []
        term_value = postorder(t, lambda n, kids: recorder(term_calls)(n.tag, n.labels, kids),
                               out=term_out)
        assert term_value == (None if value is EMPTY else value), text
        assert text_calls == [(tag, (), ()) for tag in atoms] + [
            c for c in term_calls if c[0] not in atoms], text
        assert [v for v in text_out if v is not EMPTY] == term_out, text


def _close_protocol_cases(shape, labels, step: int, prunings: int | None) -> list:
    """Every step-th term of the small scope as text, and that many of its
    prunings (all of them for None)."""
    rng = random.Random(40)
    cases = []
    for t in _terms_in_scope(shape, labels)[::step]:
        items = prune(t).items
        cases.append((print_term(t), t))
        cases += [(print_pruned(p), p) for p in (
            items if prunings is None else rng.sample(items, prunings))]
    return cases


def _check_the_close_protocol_on_both_reads(monkeypatch, labels, step, prunings):
    class Untokenizable:
        def findall(self, text):
            raise AssertionError("a text was read from the token pattern")

    for shape in ShapeKind:
        cases = _close_protocol_cases(shape, labels, step, prunings)
        with monkeypatch.context() as m:  # the split read alone
            m.setattr(shapes, "_TOKEN_RE", Untokenizable())
            _check_the_close_protocol(cases, shape)
        with monkeypatch.context() as m:  # the token pattern alone
            m.setattr(shapes, "_split_tokens", lambda text: [")"])  # refused at once
            _check_the_close_protocol(cases, shape)


def test_the_text_parse_closes_as_postorder_does(monkeypatch):
    # labels that _SMALL_LABELS holds and one it misses
    _check_the_close_protocol_on_both_reads(monkeypatch, (0, -7, 1000), step=3, prunings=2)


@pytest.mark.skipif(not os.environ.get("SEGMAX_FULL_SCOPE"),
                    reason="about 2 s; set SEGMAX_FULL_SCOPE=1 to run it, as CI does")
def test_the_text_parse_closes_as_postorder_does_over_the_full_scope(monkeypatch):
    # every term in scope and every pruning of it, also at the 64-bit edges
    _check_the_close_protocol_on_both_reads(
        monkeypatch, (0, -7, 999, 1000, I64_MIN, I64_MAX), step=1, prunings=None)


def test_parse_error_offset_points_at_fault():
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("(cons 1 @)", ShapeKind.LIST)
    assert exc.value.offset == 8


def test_pruned_grammar_accepts_empty_marker():
    p = parse_pruned("(fork 1 E (leaf 2))", ShapeKind.HTREE)
    assert p.children[0] is EMPTY
    assert print_pruned(p) == "(fork 1 E (leaf 2))"
    assert print_pruned(EMPTY) == "E"


def _token_print(p) -> str:
    """The printer as a token list joined by spaces, with none after '('
    or before ')': the reference for the one-pass printer."""
    toks: list[str] = []
    stack = [p]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            toks.append(x)
        elif x is EMPTY:
            toks.append("E")
        elif SIGNATURES[x.shape][x.tag].atom:
            toks.append(x.tag)
        else:
            toks += ["(", x.tag, *map(str, x.labels)]
            stack.append(")")
            stack += reversed(x.children)
    text = ""
    for prev, tok in zip([None, *toks], toks):
        text += tok if tok == ")" or prev in (None, "(") else " " + tok
    return text


def test_print_step_prints_every_pruning_as_print_pruned():
    # the fused printer against the Node prunings printed one by one
    rng = random.Random(5)
    terms = [gen_term_capped(rng, shape, prune_count, 1000, max_depth=6, lo=-12, hi=12)
             for shape in ShapeKind for _ in range(40)]
    shared = leaf(2)  # one child object in both slots
    terms += [
        parse_term(EX7, ShapeKind.HTREE), leaf(-3), nil(),
        make_node(ShapeKind.ITREE, "nilt", (), ()), fork(1, leaf(2), leaf(2)),
        fork(1, shared, shared), list_term(range(-2, 40)),
        parse_term("(bin (tip 1) (bin (tip -0) (tip 007)))", ShapeKind.ETREE),
        parse_term("(node 0 nilt (node -9223372036854775808 nilt nilt))", ShapeKind.ITREE),
        fork(I64_MAX, leaf(I64_MIN), leaf(I64_MAX)),
        parse_term("(cons 7 nil)", ShapeKind.LIST),
    ]
    edges = [I64_MAX, I64_MIN, 0, -1, 7]
    terms += [list_term(rng.choice(edges) for _ in range(n)) for n in range(61)]
    for t in terms:
        for kind in CollectionKind:
            items = prune(t, kind).items
            texts = prune(t, kind, print_step)
            assert texts == Collection(kind, tuple(map(print_pruned, items)))
            assert list(texts.items) == [_token_print(p) for p in items]
            assert [parse_pruned(s, t.shape) for s in texts.items] == list(items)


def test_bimap_fixtures():
    ident = lambda v: v
    t = nil()
    c = cons(4, t)
    assert bimap_node(ident, ident, c) == c
    f = fork(3, leaf(1), leaf(2))
    bumped = bimap_node(lambda l: l + 1, ident, f)
    assert bumped.labels == (4,) and bumped.children == f.children
    assert bimap_node(ident, lambda _: None, nil()) == nil()


def _small_nodes():
    for shape, sigs in SIGNATURES.items():
        for tag, sig in sigs.items():
            slots = sig.n_labels + sig.n_children
            for vals in itertools.product(range(-2, 3), repeat=slots):
                yield Node(shape, tag, vals[: sig.n_labels], vals[sig.n_labels :])


def test_functor_laws_exhaustive_on_all_constructors():
    ident = lambda v: v
    f1, f2 = (lambda v: v + 1), (lambda v: 2 * v)
    g1, g2 = (lambda v: v - 3), (lambda v: -v)
    for n in _small_nodes():
        assert bimap_node(ident, ident, n) == n
        lhs = bimap_node(lambda v: f1(f2(v)), lambda v: g1(g2(v)), n)
        rhs = bimap_node(f1, g1, bimap_node(f2, g2, n))
        assert lhs == rhs


def test_make_node_validates():
    with pytest.raises(ShapeMismatchError):
        make_node(ShapeKind.LIST, "fork", (1,), ())
    with pytest.raises(ShapeMismatchError):
        make_node(ShapeKind.LIST, "cons", (), (nil(),))
    with pytest.raises(ShapeMismatchError):
        make_node(ShapeKind.HTREE, "leaf", (1,), (leaf(2),))
    # labels are 64-bit integers and children are terms of the same shape
    with pytest.raises(ShapeMismatchError):
        make_node(ShapeKind.HTREE, "leaf", ("x",), ())
    with pytest.raises(ShapeMismatchError):
        make_node(ShapeKind.HTREE, "leaf", (True,), ())
    with pytest.raises(OverflowError):
        make_node(ShapeKind.HTREE, "leaf", (1 << 63,), ())
    with pytest.raises(ShapeMismatchError):
        make_node(ShapeKind.LIST, "cons", (1,), (leaf(2),))


def test_builders_reject_foreign_children_and_bad_labels():
    with pytest.raises(ShapeMismatchError):
        cons(1, leaf(2))
    with pytest.raises(ShapeMismatchError):
        cons("x", nil())
    with pytest.raises(OverflowError):
        tip(1 << 63)


@given(any_term)
def test_roundtrip_hypothesis(t):
    assert parse_term(print_term(t), t.shape) == t


def test_roundtrip_seeded_thousand_per_shape():
    rng = random.Random(7)
    for shape in ShapeKind:
        for _ in range(1000):
            t = gen_term(rng, shape, max_depth=6)
            assert parse_term(print_term(t), shape) == t


def test_print_injective_on_random_terms():
    rng = random.Random(11)
    for shape in ShapeKind:
        seen: dict[str, object] = {}
        for _ in range(500):
            t = gen_term(rng, shape, max_depth=5)
            s = print_term(t)
            assert seen.setdefault(s, t) == t


def test_struct_key_orders_empty_first_and_totally():
    items = [EMPTY, leaf(2), fork(1, leaf(2), leaf(3)), leaf(-1)]
    ordered = sorted(items, key=struct_key)
    assert ordered[0] is EMPTY
    assert sorted(items, key=struct_key) == sorted(reversed(items), key=struct_key)


def _nested_key(x) -> tuple:
    """The nested key struct_key replaced, kept as the order reference:
    (0,) for an empty slot, (1, tag, labels, child keys) for a node."""
    if not isinstance(x, Node):
        return (0,)
    return (1, x.tag, x.labels, tuple(_nested_key(c) for c in x.children))


def test_flat_struct_key_orders_as_the_nested_key():
    rng = random.Random(23)
    items = []
    for shape in ShapeKind:
        for _ in range(40):
            t = gen_term_capped(rng, shape, prune_count, 60, max_depth=4, lo=-2, hi=2)
            items.extend(prune(t, CollectionKind.LIST).items)
    rng.shuffle(items)
    flat = sorted(items, key=struct_key)
    assert [_nested_key(x) for x in flat] == sorted(_nested_key(x) for x in items)
    for _ in range(5000):
        a, b = rng.choice(items), rng.choice(items)
        ka, kb, na, nb = struct_key(a), struct_key(b), _nested_key(a), _nested_key(b)
        assert (ka < kb, ka == kb) == (na < nb, na == nb)


def test_deep_terms_hash_and_compare_in_a_subprocess():
    # hashing a deep term used to overflow the C stack and kill the
    # interpreter, so the check runs in a child process
    code = (
        "from segmax import list_term, scan_generic, subterms\n"
        "from segmax.lawcheck import ALGEBRAS\n"
        "t, u = list_term(range(100_000)), list_term(range(100_000))\n"
        "assert t == u and not t != u and hash(t) == hash(u)\n"
        "hash(scan_generic(ALGEBRAS['size'], t))\n"
        "hash(subterms(t))\n"
        "print('ok')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(segmax.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr


def test_equal_labelled_structures_hash_alike():
    # built apart, so equal without being the same objects; the long list
    # nests deeper than the recursion limit
    size = ALGEBRAS["size"]
    for n in (3, 10_000):
        a, b = segmax.subterms(list_term(range(n))), segmax.subterms(list_term(range(n)))
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(segmax.scan_generic(size, a.value)) == hash(segmax.scan_generic(size, b.value))


def test_the_empty_marker_is_no_plain_term():
    with pytest.raises(ShapeMismatchError, match="^empty marker is not a plain term$"):
        print_term(EMPTY)
    assert print_pruned(EMPTY) == "E"


def test_size_depth_fixtures():
    t = parse_term(EX7, ShapeKind.HTREE)
    assert term_size(t) == 5


def test_deep_chain_no_recursion_limit():
    t = list_term(range(50_000))
    assert term_size(t) == 50_001
    assert parse_term(print_term(t), ShapeKind.LIST) == t


def _as_plain_namedtuples(x):
    """x rebuilt from plain namedtuples, whose generated repr is the one
    Node and Labelled had before they wrote their own (small x only)."""
    if type(x) is tuple:
        return tuple(_as_plain_namedtuples(e) for e in x)
    if type(x) not in (Node, segmax.Labelled):
        return x
    plain = collections.namedtuple(type(x).__name__, x._fields)
    return plain(*(_as_plain_namedtuples(v) for v in x))


def test_repr_matches_the_namedtuple_repr():
    assert repr(list_term([1])) == (
        "Node(shape=<ShapeKind.LIST: 'list'>, tag='cons', labels=(1,), "
        "children=(Node(shape=<ShapeKind.LIST: 'list'>, tag='nil', labels=(), "
        "children=()),))"
    )
    rng = random.Random(31)
    for shape in ShapeKind:
        for _ in range(40):
            t = gen_term(rng, shape, max_depth=4)
            for x in (t, segmax.subterms(t), *prune(t, CollectionKind.SET).items[:5],
                      Node(shape, "pair", (), (EMPTY, (t, 3)))):
                assert repr(x) == repr(_as_plain_namedtuples(x))


def test_repr_of_a_deep_term_does_not_recurse():
    t = list_term(range(10_000))
    text = repr(t)
    assert text.count("tag='cons'") == 10_000
    assert text.endswith("children=())" + ",))" * 10_000)
    assert repr(segmax.subterms(list_term(range(2_000)))).startswith("Labelled(value=Node(")


def test_a_star_import_binds_no_module():
    # the package binds its submodules as attributes; they are not exports
    ns = {}
    exec("from segmax import *", ns)
    assert [n for n, v in ns.items() if isinstance(v, types.ModuleType)] == []
    assert set(ns) - {"__builtins__"} == set(segmax.__all__)
    assert {"parse_term", "mss_generic", "SegmaxError"} <= set(ns)

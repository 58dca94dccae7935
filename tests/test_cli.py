import collections
import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal

import pytest
from click.testing import CliRunner

import segmax
from segmax import CollectionKind, ShapeKind, TermSyntaxError, list_term, map_term, print_term
from segmax.cli import _EXIT_CODES, _SEPARATOR, _parse_int_list, main
from segmax.ints import I64_MAX, I64_MIN, check_i64, parse_int, plain_ints
from segmax.lawcheck import gen_term_capped
from segmax.pruning import prune, prune_count
from segmax.shapes import print_pruned

EX3 = "4,-5,6,-3,2,0,-4,5,-6,5"
EX7 = "(fork 1 (leaf 2) (fork 3 (leaf 1) (leaf 4)))"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_mss_fixtures(runner):
    assert invoke(runner, "mss", "--algo", "linear", "--input", EX3).output.strip() == "6"
    assert invoke(runner, "mss", "--algo", "prefix", "--input", EX3).output.strip() == "5"
    assert invoke(runner, "mss", "--algo", "linear", "--input", "").output.strip() == "0"


def test_mss_json_roundtrip(runner):
    res = invoke(runner, "mss", "--algo", "spec", "--input", EX3, "--json")
    blob = json.loads(res.output)
    assert blob == {"algo": "spec", "value": 6, "n": 10}


def test_mss_cross_algorithm_agreement(runner):
    rng = random.Random(99)
    for _ in range(100):
        xs = ",".join(str(rng.randint(-50, 50)) for _ in range(rng.randint(0, 20)))
        outs = {
            invoke(runner, "mss", "--algo", algo, "--input", xs).output
            for algo in ("spec", "quadratic", "linear")
        }
        assert len(outs) == 1


def test_mss_input_from_file(runner, tmp_path):
    p = tmp_path / "xs.txt"
    p.write_text(EX3.replace(",", " "))
    res = invoke(runner, "mss", "--file", str(p))
    assert res.output.strip() == "6"


def test_mss_usage_errors(runner):
    assert invoke(runner, "mss").exit_code == 2  # neither input nor file
    assert invoke(runner, "mss", "--input", "1", "--file", "x").exit_code == 2
    assert invoke(runner, "mss", "--input", "1,foo").exit_code == 2


def test_mss_elements_take_the_label_syntax(runner):
    # int() reads '+3' and '1_0'; term labels are -?\d+, and so are list
    # elements.  The first faulty element decides, as for any other fault
    for text in ("1_0 +3", "+3", "4,-5,6_0", "1_0 99999999999999999999"):
        res = invoke(runner, "mss", "--input", text)
        assert (res.exit_code, res.stderr) == (
            2, "error: list elements must be integers (at offset 0)\n")
    assert invoke(runner, "mss", "--input", "99999999999999999999 1_0").exit_code == 4
    res = invoke(runner, "tree", "--shape", "list", "--input", "(cons +3 nil)")
    assert (res.exit_code, res.stderr) == (2, "error: unexpected character '+' (at offset 6)\n")
    assert invoke(runner, "mss", "--input", "-0 4,-5 6").output == "6\n"


def _per_element_read(text, limit):
    # the list read as one check_i64(parse_int(p)) per element, as it was
    # before the read tried map(int) first
    parts = text.replace(",", " ").split(maxsplit=limit)
    if len(parts) > limit:
        raise TermSyntaxError(f"list longer than {limit} elements", 0)
    if not plain_ints(text):
        parts = [p if plain_ints(p) else "" for p in parts]
    try:
        return [check_i64(parse_int(p), "element") for p in parts]
    except ValueError:
        raise TermSyntaxError("list elements must be integers", 0) from None


def _read_outcome(read, text, limit):
    try:
        xs = read(text, limit)
    except tuple(_EXIT_CODES) as e:
        code = next(_EXIT_CODES[c] for c in type(e).__mro__ if c in _EXIT_CODES)
        return type(e), str(e), code
    return xs, [type(x) for x in xs]


def _list_read_corpus():
    """Texts the chunked read takes and texts it leaves to the per-element loop."""
    edges = [I64_MAX, -I64_MAX, I64_MIN, I64_MAX + 1, -(I64_MAX + 1) - 1]
    words = ["+", "_", "1_0", "99999999999999999999", "+3", "-0", "x", "--1", "1.5",
             "\u0663\u0664", "-\uff11\uff12", "0" * 4300 + "7", "9" * 4301,
             *map(str, edges), "0", "-1", "42"]
    seps = [",", " ", "\t", "\n", ", ", ",,", " \r\n"]
    texts = ["", ",", " \t\n", "1_0 99999999999999999999", "99999999999999999999 1_0",
             "+ _", "_ +", "\u0663\u0664,\uff11\uff12", "0" * 4300 + "7"]
    texts += [",".join(map(str, edges[:k])) for k in range(1, 6)]
    rng = random.Random(20)
    for _ in range(600):
        k = rng.randint(0, 6)
        text = "".join(rng.choice(words + [str(rng.randint(-99, 99))] * 4) + rng.choice(seps)
                       for _ in range(k))
        texts.append(text[:rng.randint(len(text) - 2, len(text))] if text else text)
    return texts


def _assert_reads_agree(texts, limits):
    """The same list, or the same error type, message and exit status, as
    the per-element read; returns how often each outcome came."""
    outcomes = collections.Counter()
    for text in texts:
        for limit in limits:
            got = _read_outcome(_parse_int_list, text, limit)
            assert got == _read_outcome(_per_element_read, text, limit), (text, limit)
            outcomes[got[-1] if isinstance(got[-1], int) else "list"] += 1
    return outcomes


def test_the_list_read_answers_as_the_per_element_read():
    outcomes = _assert_reads_agree(_list_read_corpus(), (10**6, 3))
    assert min(outcomes[k] for k in ("list", 2, 4)) >= 100, outcomes


@pytest.mark.parametrize("chunk", [1, 3, 8])
def test_the_chunked_list_read_answers_as_the_per_element_read(chunk, monkeypatch):
    # the read cuts its text into chunks at separators; with chunks this
    # short, every text of two or more characters is read across cuts
    monkeypatch.setattr("segmax.cli._CHUNK", chunk)
    outcomes = _assert_reads_agree(_list_read_corpus(), (10**6, 3))
    assert min(outcomes[k] for k in ("list", 2, 4)) >= 100, outcomes
    texts = []
    # a cut on each separator, at every offset around the first chunk's end
    # (a cut between CR and LF included)
    for sep in (",", "\t", "\r\n", "\u00a0", "\u3000", ", ", " \u3000,"):
        texts += [sep.join(["1" * k, "-23", "4", "", "56"]) for k in range(1, 2 * chunk + 3)]
    # tokens longer than one chunk, in range and past it
    texts += ["12345678901 -2", "-" + "0" * 30 + "5,7", "1 " + "9" * 25, "9" * 4301 + " 1"]
    # a fault in a later chunk, by syntax or by range, on lists under and
    # over the limit of 5
    for fault in ("x", "1_0", "+1", str(I64_MAX + 1), str(I64_MIN - 1)):
        for n in (2, 4, 5, 6, 20):
            texts.append(" ".join(["7"] * n + [fault]))
            texts.append(",".join(["-7"] * 3 + [fault] + ["7"] * n))
    outcomes = _assert_reads_agree(texts, (10**6, 5))
    assert min(outcomes[k] for k in ("list", 2, 4)) >= 20, outcomes
    # split() cuts at exactly the characters the read cuts chunks at
    assert all(bool(_SEPARATOR.fullmatch(c)) == (c.isspace() or c == ",")
               for c in map(chr, range(sys.maxunicode + 1)))


def test_mss_overflow_status(runner):
    big = str((1 << 62) + (1 << 61))
    res = invoke(runner, "mss", "--algo", "linear", "--input", f"{big},{big}")
    assert res.exit_code == 4


def test_integers_past_the_int_str_digit_limit_are_judged_by_value(runner):
    # int(str) refuses more than 4,300 digits; such a token is read as the
    # value it writes, as a shorter one is, and echoed by its first 20
    # characters and its digit count
    nines, seven = "9" * 5000, "0" * 4300 + "7"
    res = invoke(runner, "mss", "--input", f"1,-{nines},x")
    assert (res.exit_code, res.stderr) == (
        4, f"error: element -{nines[:19]}... (5000 digits) outside 64-bit signed range\n")
    assert invoke(runner, "mss", "--input", f"{seven} -1 {seven}").output == "13\n"
    for args in (["tree", "--input", f"(cons {nines} nil)"],
                 ["prune", "--count", "--input", f"(cons 1 nil) {nines}"]):
        res = invoke(runner, *args[:1], "--shape", "list", *args[1:])
        assert (res.exit_code, res.stderr) == (
            2, "error: integer label outside 64-bit range (at offset %d)\n"
            % args[-1].index("9"))
    assert invoke(runner, "tree", "--shape", "list", "--input",
                  f"(cons {seven} nil)").output == "7\n"
    res = invoke(runner, "bench", "--sizes", nines)
    assert (res.exit_code, res.stderr) == (2, "error: sizes must be at most 1000000\n")


def test_tree_fixtures(runner):
    res = invoke(runner, "tree", "--shape", "htree", "--semiring", "max-plus",
                 "--input", EX7)
    assert res.output.strip() == "11" and res.exit_code == 0
    res = invoke(runner, "tree", "--input", "(leaf -7)")
    assert res.output.strip() == "0"


def test_tree_check_runs_both_routes(runner):
    res = invoke(runner, "tree", "--check", "--input", EX7, "--json")
    blob = json.loads(res.output)
    assert blob["scan"] == blob["brute"] == 11


def test_tree_distributivity_gate(runner):
    res = invoke(runner, "tree", "--semiring", "plus-times", "--monad", "set",
                 "--input", EX7)
    assert res.exit_code == 3
    res = invoke(runner, "tree", "--semiring", "plus-times", "--monad", "set",
                 "--force", "--input", EX7)
    assert res.exit_code == 0


def test_tree_parse_error_status(runner):
    assert invoke(runner, "tree", "--input", "(fork 1").exit_code == 2
    assert invoke(runner, "tree", "--shape", "list", "--input", "(leaf 2)").exit_code == 2


def test_prune_fixtures(runner):
    res = invoke(runner, "prune", "--count", "--input", EX7)
    assert res.output.strip() == "11"
    res = invoke(runner, "prune", "--input", "(leaf 2)")
    assert res.output.strip() == "<E, (leaf 2)>"
    res = invoke(runner, "prune", "--shape", "list", "--count",
                 "--input", "(cons 1 (cons 2 nil))")
    assert res.output.strip() == "4"


def test_prune_of_a_long_list(runner):
    n = 1000
    xs = print_term(list_term(range(n)))
    res = invoke(runner, "prune", "--shape", "list", "--json", "--input", xs)
    assert res.exit_code == 0
    assert len(json.loads(res.output)["items"]) == n + 2


def test_brute_guard_refuses_a_long_list_quickly(runner):
    xs = print_term(list_term(x % 7 for x in range(20_000)))
    t0 = time.perf_counter()
    res = invoke(runner, "tree", "--via", "brute", "--shape", "list", "--input", xs)
    assert res.exit_code == 5
    assert time.perf_counter() - t0 < 10


def _complete_htree(depth):
    text = "(leaf 1)"
    for _ in range(depth - 1):
        text = f"(fork 1 {text} {text})"
    return text


def test_exact_counts_past_the_int_str_digit_limit(runner):
    # a complete htree of depth 16 (65,535 nodes) has a pruning count of
    # 11,595 digits, past the interpreter's 4,300-digit str(int) limit
    counts = [2]  # prunings of a complete tree, by depth
    for _ in range(15):
        counts.append(1 + counts[-1] ** 2)
    segs = sum(c << (15 - d) for d, c in enumerate(counts))
    text = _complete_htree(16)
    for route in (["--via", "brute"], ["--check"]):
        res = runner.invoke(main, ["tree", *route, "--input", text])
        assert res.exit_code == 5 and res.exception is not None  # SystemExit
        (line,) = res.stderr.splitlines()
        head, tail = "error: collection of ", " elements exceeds guard 1000000"
        assert line.startswith(head) and line.endswith(tail)
        assert Decimal(line[len(head):-len(tail)]) == segs
    res = invoke(runner, "prune", "--count", "--input", text)
    assert res.exit_code == 0 and Decimal(res.output) == counts[-1]
    res = invoke(runner, "prune", "--count", "--json", "--input", text)
    assert json.loads(res.output, parse_int=Decimal) == {"count": counts[-1]}


def _build_no_term(monkeypatch, what: str) -> None:
    # every parse that builds a term closes its constructors with _build's action
    def build(shape):
        def close(*_):
            raise AssertionError(f"{what} built a term")
        return close

    monkeypatch.setattr("segmax.shapes._build", build)


def test_tree_by_scan_builds_no_term(runner, monkeypatch):
    # the scan route runs the Horner step as the parser's close action
    _build_no_term(monkeypatch, "tree")
    with pytest.raises(AssertionError, match="tree built a term"):  # the patch bites
        invoke(runner, "tree", "--via", "brute", "--input", EX7)
    assert invoke(runner, "tree", "--via", "scan", "--input", EX7).output == "11\n"
    res = invoke(runner, "tree", "--via", "scan", "--input", _complete_htree(16))
    assert (res.exit_code, res.output) == (0, "65535\n")  # 65,535 nodes labelled 1
    over_limit = "(cons 0 " * 100_000 + "nil" + ")" * 100_000  # 100,001 nodes
    res = runner.invoke(main, ["tree", "--via", "scan", "--shape", "list",
                               "--input", over_limit])
    assert (res.exit_code, res.stderr) == (
        2, "error: tree larger than 100000 nodes (at offset 0)\n")


def test_tree_calls_parse_term_on_no_route(runner, monkeypatch):
    # every route hands mss_generic the text; the brute and check routes
    # parse it inside, and the check route counts the term for its guard
    def refuse(*_):
        raise AssertionError("tree called cli.parse_term")

    monkeypatch.setattr("segmax.cli.parse_term", refuse)
    for route, output in [(["--via", "scan"], "11\n"), (["--via", "brute"], "11\n"),
                          (["--check"], "scan = 11\nbrute = 11\n")]:
        assert invoke(runner, "tree", *route, "--input", EX7).output == output
    text = print_term(list_term([I64_MAX - 1] * 1500))  # the scan overflows
    res = runner.invoke(main, ["tree", "--shape", "list", "--check", "--input", text])
    assert (res.exit_code, res.stderr) == (
        5, "error: collection of 1128752 elements exceeds guard 1000000\n")


def test_the_guard_refuses_ahead_of_an_overflow_in_the_scans_reduce(runner):
    # every Horner value fits in 64 bits, their sum does not: the check
    # route's guard comes first, as it does for an overflow in the pass
    text = print_term(list_term([6144818145805979] + [1] * 1499))
    res = runner.invoke(main, ["tree", "--shape", "list", "--semiring", "plus-times",
                               "--via", "scan", "--input", text])
    assert (res.exit_code, res.stderr) == (
        4, "error: sum 9223372036855901730 outside 64-bit signed range\n")
    res = runner.invoke(main, ["tree", "--shape", "list", "--semiring", "plus-times",
                               "--check", "--input", text])
    assert (res.exit_code, res.stderr) == (
        5, "error: collection of 1128752 elements exceeds guard 1000000\n")


def test_prune_count_builds_no_term(runner, monkeypatch):
    # the count runs as the parser's close action
    _build_no_term(monkeypatch, "prune --count")
    assert invoke(runner, "prune", "--count", "--input", EX7).output == "11\n"
    count = 2  # prunings of a complete htree, by depth
    for _ in range(15):
        count = 1 + count**2
    text = _complete_htree(16)  # 65,535 nodes: a count of 11,595 digits
    res = invoke(runner, "prune", "--count", "--input", text)
    assert res.exit_code == 0 and Decimal(res.output) == count
    res = invoke(runner, "prune", "--count", "--json", "--input", text)
    assert json.loads(res.output, parse_int=Decimal) == {"count": count}
    over_limit = "(cons 0 " * 100_000 + "nil" + ")" * 100_000  # 100,001 nodes
    res = runner.invoke(main, ["prune", "--count", "--shape", "list", "--input", over_limit])
    assert (res.exit_code, res.stderr) == (
        2, "error: tree larger than 100000 nodes (at offset 0)\n")


def test_tree_and_prune_count_are_one_library_call_each(runner, monkeypatch):
    # segbench's traced run times each answer under the name cli binds for it
    calls = collections.Counter()
    for name in ("mss_generic", "prune_count"):
        fn = getattr(segmax.cli, name)
        monkeypatch.setattr(segmax.cli, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.update([_name]) or _fn(*a, **k))
    for args, name, output in [(("tree", "--via", "scan"), "mss_generic", "11\n"),
                               (("tree", "--via", "brute"), "mss_generic", "11\n"),
                               (("tree", "--check"), "mss_generic", "scan = 11\nbrute = 11\n"),
                               (("prune", "--count"), "prune_count", "11\n")]:
        calls.clear()
        assert invoke(runner, *args, "--input", EX7).output == output
        assert calls == {name: 1}, args


def test_guard_message_for_a_printable_count(runner):
    res = runner.invoke(main, ["tree", "--via", "brute", "--input", _complete_htree(6)])
    assert (res.exit_code, res.stderr) == (
        5, "error: collection of 210067308621 elements exceeds guard 1000000\n")


def test_tree_sum_at_the_64_bit_edge(runner):
    for via in ("scan", "brute"):
        res = invoke(runner, "tree", "--shape", "etree", "--semiring", "plus-times",
                     "--via", via, "--input", "(tip 9223372036854775806)")
        assert (res.exit_code, res.output.strip()) == (0, "9223372036854775807")


def test_prune_json(runner):
    res = invoke(runner, "prune", "--input", "(leaf 2)", "--json")
    blob = json.loads(res.output)
    assert blob == {"kind": "bag", "items": ["E", "(leaf 2)"]}


def test_prune_json_is_json_dumps(runner):
    # the JSON enumeration is written by a join, json.dumps' output byte for
    # byte, with labels at the 64-bit edges
    rng = random.Random(20)
    edges = (I64_MIN, I64_MAX, -1, 0)
    for shape in ShapeKind:
        for _ in range(12):
            t = gen_term_capped(rng, shape, prune_count, 300, max_depth=4)
            t = map_term(lambda v: rng.choice(edges), t)
            for kind in CollectionKind:
                items = [print_pruned(p) for p in prune(t, kind).items]
                res = invoke(runner, "prune", "--shape", shape.value, "--monad", kind.value,
                             "--json", "--input", print_term(t))
                assert res.stdout == json.dumps({"kind": kind.value, "items": items}) + "\n"


PRUNE_OUTPUTS = [  # the prunings of each input, in each monad's brackets
    (["--input", EX7], "bag",
     "<E, (fork 1 E E), (fork 1 E (fork 3 E E)), (fork 1 E (fork 3 E (leaf 4))), "
     "(fork 1 E (fork 3 (leaf 1) E)), (fork 1 E (fork 3 (leaf 1) (leaf 4))), "
     "(fork 1 (leaf 2) E), (fork 1 (leaf 2) (fork 3 E E)), "
     "(fork 1 (leaf 2) (fork 3 E (leaf 4))), (fork 1 (leaf 2) (fork 3 (leaf 1) E)), "
     "(fork 1 (leaf 2) (fork 3 (leaf 1) (leaf 4)))>"),
    (["--shape", "etree", "--input", "(bin (tip 1) (bin (tip -2) (tip 1)))"], "set",
     "{E, (bin E E), (bin E (bin E E)), (bin E (bin E (tip 1))), (bin E (bin (tip -2) E)), "
     "(bin E (bin (tip -2) (tip 1))), (bin (tip 1) E), (bin (tip 1) (bin E E)), "
     "(bin (tip 1) (bin E (tip 1))), (bin (tip 1) (bin (tip -2) E)), "
     "(bin (tip 1) (bin (tip -2) (tip 1)))}"),
    (["--shape", "itree", "--input", "(node 5 nilt (node -1 nilt nilt))"], "list",
     "[E, (node 5 E E), (node 5 E (node -1 E E)), (node 5 E (node -1 E nilt)), "
     "(node 5 E (node -1 nilt E)), (node 5 E (node -1 nilt nilt)), (node 5 nilt E), "
     "(node 5 nilt (node -1 E E)), (node 5 nilt (node -1 E nilt)), "
     "(node 5 nilt (node -1 nilt E)), (node 5 nilt (node -1 nilt nilt))]"),
    (["--shape", "list", "--input", "(cons 3 (cons -4 nil))"], "bag",
     "<E, (cons 3 E), (cons 3 (cons -4 E)), (cons 3 (cons -4 nil))>"),
    (["--shape", "itree", "--input", "nilt"], "set", "{E, nilt}"),
]


def _cons_chain_prunings(xs):
    # E, then every prefix closed by E, then the whole list
    heads = [f"(cons {x} " for x in xs]
    return (["E"] + ["".join(heads[:k]) + "E" + ")" * k for k in range(1, len(xs) + 1)]
            + ["".join(heads) + "nil" + ")" * len(xs)])


def test_prune_prints_fixed_outputs_as_text_and_json(runner):
    xs = [(7 * k) % 23 - 11 for k in range(250)]
    chain = _cons_chain_prunings(xs)
    cases = PRUNE_OUTPUTS + [
        (["--shape", "list", "--input", print_term(list_term(xs))], kind,
         "<[{"[i] + ", ".join(chain) + ">]}"[i])
        for i, kind in enumerate(("bag", "list", "set"))
    ]
    for args, kind, text in cases:
        res = invoke(runner, "prune", "--monad", kind, *args)
        assert (res.exit_code, res.stdout, res.stderr) == (0, text + "\n", "")
        res = invoke(runner, "prune", "--monad", kind, "--json", *args)
        items = text[1:-1].split(", ")
        assert res.stdout == json.dumps({"kind": kind, "items": items}) + "\n"


def test_repeated_prunes_free_their_captured_output(runner):
    # 7,448 prunings, about 1 MB printed; one CliRunner must not keep any
    # invocation's output once its result is dropped
    text = f"(fork 1 {_complete_htree(4)} (fork 1 (leaf 1) {_complete_htree(2)}))"
    args = ["prune", "--input", text]
    assert len(invoke(runner, *args).stdout_bytes) > 900_000
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(30):
            assert invoke(runner, *args).exit_code == 0
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 3 * 10**6


FIXTURES = pathlib.Path(__file__).with_name("cli_fixtures")


@pytest.mark.parametrize("case", sorted(p.name for p in FIXTURES.iterdir()))
def test_entry_point_in_a_real_process(case, tmp_path):
    # each case holds its arguments (one a line, as bytes: one is not
    # UTF-8) and the exact stdout, stderr and exit status expected
    d = FIXTURES / case
    args = (d / "args").read_bytes().splitlines()
    src = os.path.dirname(os.path.dirname(os.path.abspath(segmax.__file__)))
    res = subprocess.run([sys.executable, "-m", "segmax", *args], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         timeout=120)
    assert (res.stdout, res.stderr, res.returncode) == (
        (d / "stdout").read_bytes(), (d / "stderr").read_bytes(),
        int((d / "status").read_text()))


def test_the_tree_check_order_fixtures_hide_a_second_error(runner):
    # each input holds a second fault that another order would report: the
    # brute route alone overflows at another sum, and with its one label
    # outside the carrier made a bit, the 63-node htree meets the guard
    def args(case):
        return (FIXTURES / case / "args").read_text().splitlines()

    *_, text = args("tree-check-scan-overflow-first")
    res = invoke(runner, "tree", "--via", "brute", "--input", text)
    assert (res.exit_code, res.stderr) == (
        4, "error: sum 9223372036854775808 outside 64-bit signed range\n")
    *opts, text = args("tree-check-carrier-before-guard")
    res = invoke(runner, *opts, text.replace("(leaf 7)", "(leaf 1)"))
    assert (res.exit_code, res.stderr) == (
        5, "error: collection of 210067308621 elements exceeds guard 1000000\n")


def test_laws_single_id_with_witness(runner):
    res = invoke(runner, "laws", "--id", "set-plus-nonidempotent", "--trials", "500")
    assert res.exit_code == 0
    assert "witness" in res.output


def test_laws_unknown_id(runner):
    assert invoke(runner, "laws", "--id", "nosuch").exit_code == 2


def test_laws_json_deterministic(runner):
    args = ["laws", "--seed", "42", "--trials", "30", "--json"]
    a = runner.invoke(main, args, catch_exceptions=False).output
    b = runner.invoke(main, args, catch_exceptions=False).output
    assert a == b
    blob = json.loads(a)
    assert all(r["ok"] for r in blob)


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_laws_rejects_fewer_than_one_trial(runner, trials):
    res = invoke(runner, "laws", "--id", "mss-chain", "--trials", trials)
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", f"error: trials must be at least 1, got {trials}\n")


def test_laws_subset_exit_zero(runner):
    res = invoke(runner, "laws", "--id", "mss-chain", "--id", "horner-list",
                 "--trials", "40")
    assert res.exit_code == 0


def test_bench_single_row(runner):
    res = invoke(runner, "bench", "--sizes", "100", "--algos", "linear", "--json")
    rows = json.loads(res.output)
    assert len(rows) == 1 and rows[0]["algo"] == "linear" and rows[0]["n"] == 100


def test_bench_usage_errors(runner):
    assert invoke(runner, "bench", "--sizes", "800,400").exit_code == 2
    assert invoke(runner, "bench", "--sizes", "0").exit_code == 2
    assert invoke(runner, "bench", "--algos", "warp").exit_code == 2
    # sizes take the label syntax -?\d+, not int()'s '+' and '_'
    res = invoke(runner, "bench", "--sizes", "+5,1_0", "--algos", "linear")
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "error: sizes must be integers (at offset 0)\n")
    for budget in ("nan", "0", "-1"):
        assert invoke(runner, "bench", "--budget", budget).exit_code == 2, budget


def test_bench_refuses_before_building_any_input(runner):
    # a size past the mss list limit is refused before its input is built:
    # the budget cannot interrupt a repetition
    res = invoke(runner, "bench", "--sizes", "1000001", "--algos", "linear")
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "error: sizes must be at most 1000000\n")
    res = invoke(runner, "bench", "--algos", " , ")
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", "error: no algorithms given\n")


def test_bench_budget_exceeded(runner):
    res = invoke(runner, "bench", "--sizes", "400,800", "--algos", "spec",
                 "--budget", "0.05")
    assert res.exit_code == 6


def test_bench_assert_ordering(runner):
    res = invoke(runner, "bench", "--sizes", "100,200", "--seed", "7", "--assert")
    assert res.exit_code == 0, res.output
    assert len(res.output.strip().splitlines()) == 6

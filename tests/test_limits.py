"""The CLI at its documented limits: lists of 10^6 elements and terms of
10^5 nodes, on degenerate shapes and at the 64-bit extremes.

Every run must end in an answer or in a mapped exit status (2-5) with a
single error line on stderr -- never in a traceback.  The brute route
runs on terms the guard refuses and on a list just under it.  The cubic
and quadratic mss algorithms have limits of their own, and are run only
past them.  Prune enumeration runs on a list of 2,000 elements only: its
printed output grows quadratically with the length.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal

import pytest
from click.testing import CliRunner

import segmax
from segmax import I64_MAX, I64_MIN, list_term, mss_linear, print_pruned, print_term, prune
from segmax.cli import main
from segmax.monads import to_text
from segmax.pruning import GUARD, segs_count

N_LIST = 99_999  # cons nodes, so the term has 100,000 nodes with its nil
OVER_LIMIT = "(cons 0 " * 100_000 + "nil" + ")" * 100_000  # 100,001 nodes
TOO_LARGE = (2, "error: tree larger than 100000 nodes (at offset 0)")
HTREE_DEPTH = 16  # 65,535 nodes
SPINE_FORKS = 49_999  # 99,999 nodes with their leaves


def _cli(*args) -> tuple[int, str]:
    res = CliRunner().invoke(main, list(args))
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    if res.exit_code == 0:
        assert res.stderr == ""
        return 0, res.stdout
    assert res.exit_code in (2, 3, 4, 5)
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: ")
    return res.exit_code, line


@pytest.fixture(scope="module")
def long_list():
    labels = [(i * 7919) % 201 - 100 for i in range(N_LIST)]
    return labels, print_term(list_term(labels))


@pytest.fixture(scope="module")
def complete_htree():
    text = "(leaf 1)"
    for _ in range(HTREE_DEPTH - 1):
        text = f"(fork 1 {text} {text})"
    return text


@pytest.fixture(scope="module")
def spine():
    # every fork's right child is the next fork: 50,001-bit segment counts
    return "(fork 1 (leaf 1) " * SPINE_FORKS + "(leaf 1)" + ")" * SPINE_FORKS


@pytest.fixture(scope="module")
def edge_list():
    # every sum of two labels leaves the 64-bit range
    return print_term(list_term([I64_MAX - 1] * N_LIST))


def test_scan_answers_at_the_node_limit(long_list, complete_htree, edge_list):
    labels, text = long_list
    assert _cli("tree", "--shape", "list", "--input", text) == (
        0, f"{mss_linear(labels)}\n")
    # every label is 1, so the best segment is the whole tree
    assert _cli("tree", "--input", complete_htree) == (0, f"{2**HTREE_DEPTH - 1}\n")
    code, line = _cli("tree", "--shape", "list", "--input", edge_list)
    assert code == 4 and "outside 64-bit signed range" in line
    assert _cli("tree", "--shape", "list", "--input", OVER_LIMIT) == TOO_LARGE


def test_brute_routes_refuse_at_the_guard(long_list, complete_htree, spine):
    for shape, text in (("list", long_list[1]), ("htree", complete_htree), ("htree", spine)):
        for route in (["--via", "brute"], ["--check"]):
            code, line = _cli("tree", "--shape", shape, *route, "--input", text)
            assert code == 5 and line.endswith(" elements exceeds guard 1000000")


def test_check_refuses_at_the_guard_before_the_scan_overflows(edge_list):
    # the scan route alone overflows (exit 4); --check meets the brute
    # route's guard first, as --via brute does
    for route in (["--via", "brute"], ["--check"]):
        code, line = _cli("tree", "--shape", "list", *route, "--input", edge_list)
        assert code == 5 and line.endswith(" elements exceeds guard 1000000")


def test_prune_counts_at_the_node_limit(long_list, complete_htree):
    assert _cli("prune", "--shape", "list", "--count", "--input", long_list[1]) == (
        0, f"{N_LIST + 2}\n")
    assert _cli("prune", "--shape", "list", "--count", "--input", OVER_LIMIT) == TOO_LARGE
    count = 2
    for _ in range(HTREE_DEPTH - 1):
        count = 1 + count * count
    code, out = _cli("prune", "--count", "--input", complete_htree)
    assert code == 0 and Decimal(out) == count


@pytest.mark.parametrize("algo", ["linear", "prefix"])
def test_mss_at_the_list_limit_and_the_64_bit_extremes(algo):
    n = 10**6
    tops = ",".join([str(I64_MAX)] * n)
    bottoms = ",".join([str(I64_MIN)] * n)
    mixed = ",".join([str(I64_MAX), str(I64_MIN)] * (n // 2))
    code, line = _cli("mss", "--algo", algo, "--input", tops)
    assert code == 4 and "outside 64-bit signed range" in line
    assert _cli("mss", "--algo", algo, "--input", bottoms) == (0, "0\n")
    assert _cli("mss", "--algo", algo, "--input", mixed) == (0, f"{I64_MAX}\n")
    too_long = ",".join(["0"] * (n + 1))
    assert _cli("mss", "--algo", algo, "--input", too_long) == (
        2, f"error: list longer than {n} elements (at offset 0)")
    # the length is refused before any element is converted or range-checked
    too_long_and_too_big = ",".join(["0"] * n + [str(I64_MAX + 1)])
    assert _cli("mss", "--algo", algo, "--input", too_long_and_too_big) == (
        2, f"error: list longer than {n} elements (at offset 0)")


@pytest.mark.parametrize("algo,limit", [("spec", 1_000), ("quadratic", 10_000)])
def test_slow_mss_algorithms_refuse_lists_past_their_own_limits(algo, limit, monkeypatch):
    too_long = ",".join(["1"] * (limit + 1))
    t0 = time.perf_counter()
    assert _cli("mss", "--algo", algo, "--input", too_long) == (
        2, f"error: list longer than {limit} elements (at offset 0)")
    assert _cli("bench", "--sizes", f"{limit + 1}", "--algos", f"linear,{algo}") == (
        2, f"error: sizes must be at most {limit} for {algo}")
    assert time.perf_counter() - t0 < 5
    # a list at the limit is accepted; the algorithm itself is not run here
    monkeypatch.setattr(f"segmax.cli.mss_{algo}", len)
    assert _cli("mss", "--algo", algo, "--input", ",".join(["1"] * limit)) == (0, f"{limit}\n")


# Runs the command in its argv, then prints its exit status, its stdout,
# its stderr and its peak RSS: a fresh wrapper's RUSAGE_CHILDREN holds
# only that child.
_MEASURE = """
import json, resource, subprocess, sys
res = subprocess.run(sys.argv[1:], capture_output=True, text=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB
print(json.dumps([res.returncode, res.stdout, res.stderr, peak]))
"""


def _measured(*args) -> list:
    """[exit status, stdout, stderr, peak RSS in KiB] of python -m segmax *args."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(segmax.__file__)))
    cmd = [sys.executable, "-m", "segmax", *args]
    res = subprocess.run([sys.executable, "-c", _MEASURE, *cmd],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(res.stdout)


def test_oversize_terms_are_refused_at_a_bounded_cost(tmp_path):
    # a text with more '(' than the node limit is refused before it is
    # read, so the 3 * 10^6-node list (27 MB of text) takes well under
    # 150 MiB, and its size is reported ahead of a fault further on
    lists = {f"list-{n}": "(cons 0 " * n + "nil" + ")" * n for n in (10**6, 3 * 10**6)}
    lists["list-1000000-then-@"] = lists["list-1000000"] + " @"
    cases = [("list", name, text) for name, text in lists.items()]
    # 100,001 nodes, but only 50,000 '(': the parsed count must refuse it
    cases.append(("itree", "itree", "(node 1 nilt " * 50_000 + "nilt" + ")" * 50_000))
    for shape, name, text in cases:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, _, stderr, peak_kib = _measured("tree", "--shape", shape, "--file", str(path))
        assert (code, stderr) == (2, f"{TOO_LARGE[1]}\n"), name
        if name == "list-3000000":
            assert peak_kib < 150 * 1024, peak_kib


def test_an_over_long_list_is_refused_at_a_bounded_cost(tmp_path):
    # 10^7 two-digit labels (30 MB of text): the list is split no further
    # than one part past the limit, so refusing it takes well under
    # 250 MiB.  One-character labels would hide the cost, as CPython
    # shares one string object for each of them.
    path = tmp_path / "list-10000000"
    path.write_text("12 " * 10**7, encoding="utf-8")
    code, _, stderr, peak_kib = _measured("mss", "--file", str(path))
    assert (code, stderr) == (2, f"error: list longer than {10**6} elements (at offset 0)\n")
    assert peak_kib < 250 * 1024, peak_kib


def test_a_list_at_the_limit_is_read_in_bounded_memory(tmp_path):
    # 10^6 labels of up to seven digits (7.9 MB of text): the read converts
    # the text a 64 KiB chunk at a time, so only one chunk's split parts are
    # alive at once, and it peaks at 63-70 MiB; splitting the whole text
    # first peaked at 139 MiB
    rng = random.Random(22)
    labels = [rng.randint(-10**6, 10**6) for _ in range(10**6)]
    expected = (0, f"{mss_linear(labels)}\n", "")
    for sep in (" ", ","):
        path = tmp_path / "list-1000000"
        path.write_text(sep.join(map(str, labels)), encoding="utf-8")
        code, stdout, stderr, peak_kib = _measured("mss", "--file", str(path))
        assert (code, stdout, stderr) == expected, sep
        assert peak_kib < 80 * 1024, (sep, peak_kib)
    # a fault in the last chunk, by syntax or by range, is named by that
    # chunk's per-element read, so the list takes no more memory than a
    # valid one (re-reading the whole text to name it peaked at 132 MiB)
    text = " ".join(map(str, labels[:-1]))
    for last, status, message in ((" x", 2, "list elements must be integers (at offset 0)"),
                                  (f" {I64_MAX + 1}", 4,
                                   f"element {I64_MAX + 1} outside 64-bit signed range")):
        path.write_text(text + last, encoding="utf-8")
        code, stdout, stderr, peak_kib = _measured("mss", "--file", str(path))
        assert (code, stdout, stderr) == (status, "", f"error: {message}\n"), last
        assert peak_kib < 80 * 1024, (last, peak_kib)


def test_a_deep_list_is_parsed_in_bounded_memory(tmp_path):
    # all 99,999 conses are open when nil is read; each is one 5-tuple on
    # the parser's stack, with no kid list.  CPython 3.10-3.13 peaked at
    # 39.2-41.4 MiB (count) and 42.9-45.3 MiB (scan) with it, and at
    # 45.4-47.8 MiB and 49.1-52.1 MiB with a list per open constructor
    rng = random.Random(40)
    labels = [rng.randint(-50, 50) for _ in range(N_LIST)]
    path = tmp_path / "list-99999"
    path.write_text(print_term(list_term(labels)), encoding="utf-8")
    for args, stdout, limit_mib in (
            (["prune", "--count"], f"{N_LIST + 2}\n", 46),
            (["tree"], f"{mss_linear(labels)}\n", 50)):
        code, out, stderr, peak_kib = _measured(*args, "--shape", "list", "--file", str(path))
        assert (code, out, stderr) == (0, stdout, ""), args
        assert peak_kib < limit_mib * 1024, (args, peak_kib)


def test_brute_routes_refuse_the_spine_in_bounded_memory(tmp_path, spine):
    # the segment count adds each subterm's prunings as its fold closes,
    # so it keeps only the open forks' counts; listing all 99,999 counts
    # of up to 50,001 bits first peaked at 199-205 MiB
    count = 2  # a leaf's prunings; a fork's are 1 + 2 * its right child's
    segments = 2 * (SPINE_FORKS + 1)  # the leaves'
    for _ in range(SPINE_FORKS):
        count = 1 + 2 * count
        segments += count
    guard_line = f"error: collection of {Decimal(segments)} elements exceeds guard {GUARD}\n"
    path = tmp_path / "spine"
    path.write_text(spine, encoding="utf-8")
    for route in (["--via", "brute"], ["--check"]):
        code, stdout, stderr, peak_kib = _measured("tree", *route, "--file", str(path))
        assert (code, stdout, stderr) == (5, "", guard_line), route
        assert peak_kib < 100 * 1024, (route, peak_kib)


def test_brute_route_answers_a_list_at_the_guards_edge(tmp_path):
    # 1,400 elements are 983,502 segments, just under the guard; each
    # segment folds only its own layer over its children's shared values,
    # so both routes answer in seconds, not the quarter hour that
    # re-folding every segment from scratch takes
    n = 1400
    rng = random.Random(15)
    labels = [rng.randint(-100, 100) for _ in range(n)]
    t = list_term(labels)
    assert segs_count(t) == 983_502 <= GUARD
    path = tmp_path / "list-1400"
    path.write_text(print_term(t), encoding="utf-8")
    start = time.monotonic()
    code, stdout, stderr, peak_kib = _measured("tree", "--shape", "list", "--check",
                                               "--file", str(path))
    elapsed = time.monotonic() - start
    v = mss_linear(labels)
    assert (code, stdout, stderr) == (0, f"scan = {v}\nbrute = {v}\n", "")
    assert elapsed < 60, elapsed
    assert peak_kib < 512 * 1024, peak_kib


def test_prune_prints_a_long_list_at_a_bounded_cost(tmp_path):
    # 2,002 prunings of up to 2,000 nodes, 21 MB of text: each text is
    # written once, where building every pruning as a Node and printing
    # it afterwards peaked at about 360 MiB
    rng = random.Random(19)
    t = list_term([rng.randint(-100, 100) for _ in range(2000)])
    path = tmp_path / "list-2000"
    path.write_text(print_term(t), encoding="utf-8")
    code, stdout, stderr, peak_kib = _measured("prune", "--shape", "list", "--file", str(path))
    assert (code, stderr) == (0, "")
    nodes = prune(t)
    expected = to_text(nodes._replace(items=tuple(map(print_pruned, nodes.items)))) + "\n"
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert digest(stdout) == digest(expected)
    assert peak_kib < 150 * 1024, peak_kib

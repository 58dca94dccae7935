"""Seeded request generation for the four workloads.

A workload is one pass of at least 100 requests, which a run repeats
until its time is up.  The pass follows a fixed plan: its sizes are the
midpoints of equal slices of log-uniform ranges, its shapes, settings
and output formats rotate through their choices by position, and its
order is the same for every seed.  The seed draws only the data: labels,
tree structure and law seeds.  So medians, tails and peak memory stay
steady from seed to seed.

Each request carries the CLI arguments, the text of the file it reads
through --file, what the reference says it must answer, and its units of
work.  Expectations take one of four forms:

    {"stdout": s}                       exit 0 and exactly s on stdout
    {"exit": n, "stderr": s}            exit n, empty stdout, s on stderr
    {"prune": {...}}                    exit 0; count, first and last item
    {"law": {...}}                      exit 0; a one-report JSON list
"""

from __future__ import annotations

import itertools
import json
import math
import random
from array import array

import reference as ref

WORKLOADS = ("scan", "prune", "brute", "laws")
# Trials per request of each law.  Each light law's count makes one
# request about 12 ms of work at reference speed (one calibration = 1 ms,
# see worker.calibrate), from the measured cost of one trial, so the light
# requests gather tightly and the 90th percentile, which lies among them,
# does not hang on the seed.
# Three laws draw terms whose cost is heavy-tailed: one prune-counts
# trial takes 45 ms on average with a standard deviation of 130 ms, one
# horner-generic-vs-prune trial 11 ms (sd 31), one mss-generic-scan-vs-brute
# trial 3.5 ms (sd 7).  They run under every other law seed with more
# trials, so that they are fewer than a tenth of the requests and mostly
# slower than any light one, and so that a pass holds enough of their
# trials (100, 40, 100) for each law's own rate to vary little by seed.
# The one law expected to fail stops at its first witness; 200 trials
# (the CLI default) never missed one in 3,000 seeds.
LAW_TRIALS = {
    "fold-universal": 95, "fold-universal-base": 1350, "fold-fusion": 56,
    "fold-map-fusion": 52, "scan-lemma": 30, "subterms-para-equiv": 38,
    "subterms-unfold-equiv": 49, "monad-laws": 190, "join-distributes": 270,
    "monad-algebra": 360, "reduce-distributes": 350, "reduce-unit-forced": 690,
    "horner-list": 720, "mss-chain": 150, "rectangle-distributivity": 350,
    "face7-lists": 130, "distlist-defs-equiv": 145, "cp-distributivity": 165,
    "collection-distributivity": 430, "contents-naturality": 100,
    "delta-respects-contents": 175, "set-plus-nonidempotent": 200,
    "horner-generic-vs-prune": 8, "mss-generic-scan-vs-brute": 20, "prune-counts": 20,
}
HEAVY_LAWS = ("horner-generic-vs-prune", "mss-generic-scan-vs-brute", "prune-counts")
TREE_SETTINGS = (  # gate-passing (semiring, monad) pairs the reference checks
    ("max-plus", "list"), ("max-plus", "bag"), ("max-plus", "set"),
    ("min-plus", "bag"), ("min-plus", "set"),
    ("bool-or-and", "list"), ("bool-or-and", "bag"), ("bool-or-and", "set"),
)


def log_strata(lo: float, hi: float, m: int) -> list[int]:
    """m sizes, the midpoints of m equal log-slices of [lo, hi]."""
    span = math.log(hi / lo)
    return [int(lo * math.exp(span * (k + 0.5) / m)) for k in range(m)]


# ---------------------------------------------------------------------------
# terms

def _labeller(rng: random.Random, semiring: str | None, bound: int = 50):
    if semiring == "bool-or-and":
        return lambda: int(rng.random() * 2)
    return lambda: int(rng.random() * (2 * bound + 1)) - bound


def _build(shape: str, kids: list[list[int]], label) -> ref.Term:
    """Preorder arrays from a tree given as child lists rooted at 0."""
    stop, grow = ref.SHAPES[shape]
    order, stack = [], [0]
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(reversed(kids[x]))
    pos = {x: i for i, x in enumerate(order)}
    tags, labels, kk = [], [], []
    for x in order:
        tag = grow if kids[x] else stop
        tags.append(tag)
        labels.append(label() if tag in ref.LABELLED else None)
        kk.append(tuple(pos[c] for c in kids[x]))
    return ref.Term(shape, tags, labels, kk)


def list_term(n_cons: int, label) -> ref.Term:
    """n_cons cons cells ending in nil: n_cons + 1 nodes."""
    tags = ["cons"] * n_cons + ["nil"]
    labels = [label() for _ in range(n_cons)] + [None]
    kids = [(i + 1,) for i in range(n_cons)] + [()]
    return ref.Term("list", tags, labels, kids)


def _grow(rng: random.Random, steps: int) -> list[list[int]]:
    """A random binary tree grown by expanding a random leaf `steps`
    times (2 * steps + 1 nodes)."""
    kids: list[list[int]] = [[]]
    leaves = [0]
    for _ in range(steps):
        j = rng.randrange(len(leaves))
        x = leaves[j]
        leaves[j] = leaves[-1]
        leaves.pop()
        a, b = len(kids), len(kids) + 1
        kids[x] = [a, b]
        kids.extend(([], []))
        leaves.extend((a, b))
    return kids


def random_tree(rng: random.Random, shape: str, nodes: int, label) -> ref.Term:
    """A random term of an odd number of nodes, built top-down in
    preorder: each node splits its remaining nodes at random between its
    two subtrees, which gives depths like those of a random search tree."""
    if shape == "list":
        return list_term(max(nodes - 1, 0), label)
    stop, grow = ref.SHAPES[shape]
    stop_label, grow_label = stop in ref.LABELLED, grow in ref.LABELLED
    tags, labels, kids = [], [], []
    stack = [(nodes, -1)]
    while stack:
        n, parent = stack.pop()
        i = len(tags)
        if parent >= 0:
            kids[parent].append(i)
        kids.append([])
        if n <= 1:
            tags.append(stop)
            labels.append(label() if stop_label else None)
            continue
        tags.append(grow)
        labels.append(label() if grow_label else None)
        left = 2 * int(rng.random() * ((n - 1) // 2)) + 1
        stack.append((n - 1 - left, i))
        stack.append((left, i))
    return ref.Term(shape, tags, labels, kids)


def balanced_htree(depth: int, label) -> ref.Term:
    """The complete htree of the given depth: 2**(depth+1) - 1 nodes."""
    n = 2 ** (depth + 1) - 1
    kids = [[2 * i + 1, 2 * i + 2] if 2 * i + 1 < n else [] for i in range(n)]
    return _build("htree", kids, label)


def tree_near(rng: random.Random, shape: str, target: int, measure, label,
              attempts: int = 32) -> ref.Term:
    """A random tree whose measure (prune or segment count) is as close
    to target as a few random growth sequences allow.  The counts grow
    multiplicatively with every expanded leaf, so sizes alone would
    scatter them over orders of magnitude."""
    best, best_err = None, math.inf
    for _ in range(attempts):
        state = rng.getstate()
        steps = 0
        while True:
            rng.setstate(state)
            t = _build(shape, _grow(rng, steps), lambda: 0)
            err = abs(math.log(measure(t) / target))
            if err < best_err:
                best, best_err = (state, steps), err
            if measure(t) >= target:
                break
            steps += 1
        rng.random()  # a fresh growth sequence for the next attempt
    state, steps = best
    after = rng.getstate()
    rng.setstate(state)
    t = _build(shape, _grow(rng, steps), label)
    rng.setstate(after)
    return t


# ---------------------------------------------------------------------------
# request builders

def _req(args: list[str], text: str, expect: dict, work: int, cls: str,
         group: str = "") -> dict:
    """A request; `group` names the rate group its work counts in (see
    run.latency_figures)."""
    return {"args": args, "text": text, "expect": expect, "work": work, "cls": cls,
            "group": group}


def tree_request(t: ref.Term, semiring: str, monad: str, via: str, as_json: bool,
                 cls: str) -> dict:
    args = ["tree", "--shape", t.shape, "--semiring", semiring, "--monad", monad]
    if via == "check":
        args.append("--check")
    elif via == "brute":
        args += ["--via", "brute"]
    if as_json:
        args.append("--json")
    # work: input nodes for the scan route, segments enumerated otherwise
    work = len(t) if via == "scan" else ref.segs_count(t)
    if len(t) > ref.MAX_TREE_NODES:
        expect = {"exit": 2, "stderr":
                  f"error: tree larger than {ref.MAX_TREE_NODES} nodes (at offset 0)\n"}
    elif via != "scan" and work > ref.GUARD:
        expect = {"exit": 5, "stderr":
                  f"error: collection of {work} elements exceeds guard {ref.GUARD}\n"}
        work = 0
    else:
        v = ref.horner_best(t, semiring)
        if via == "check":
            out = (json.dumps({"scan": v, "brute": v, "semiring": semiring, "monad": monad})
                   if as_json else f"scan = {v}\nbrute = {v}")
        else:
            out = (json.dumps({"via": via, "value": v, "semiring": semiring, "monad": monad})
                   if as_json else str(v))
        expect = {"stdout": out + "\n"}
    return _req(args, ref.text(t), expect, work, cls)


def mss_request(xs: list[int], as_json: bool) -> dict:
    args = ["mss", "--algo", "linear"] + (["--json"] if as_json else [])
    v = ref.mss_linear(xs)
    out = json.dumps({"algo": "linear", "value": v, "n": len(xs)}) if as_json else str(v)
    return _req(args, " ".join(map(str, xs)), {"stdout": out + "\n"}, len(xs), "mss")


FULL_CHECK_LIMIT = 1000  # prune outputs up to this many items are compared whole


def prune_request(t: ref.Term, monad: str, as_json: bool, cls: str) -> dict:
    args = ["prune", "--shape", t.shape, "--monad", monad] + (["--json"] if as_json else [])
    count = ref.prune_counts(t)[0]
    if count <= FULL_CHECK_LIMIT:
        items = ref.prunings(t, monad)
        out = ref.prune_json(monad, items) if as_json else ref.collection_text(monad, items)
        expect = {"stdout": out + "\n"}
    else:
        expect = {"prune": {"monad": monad, "json": as_json, "count": count,
                            "last": ref.text(t)}}
    return _req(args, ref.text(t), expect, count, cls)


def count_request(t: ref.Term, as_json: bool, cls: str) -> dict:
    args = ["prune", "--shape", t.shape, "--count"] + (["--json"] if as_json else [])
    digits = ref.big_str(ref.prune_counts(t)[0])
    out = '{"count": ' + digits + "}" if as_json else digits
    return _req(args, ref.text(t), {"stdout": out + "\n"}, 0, cls)


def law_request(law_id: str, seed: int, trials: int) -> dict:
    args = ["laws", "--id", law_id, "--seed", str(seed), "--trials", str(trials), "--json"]
    expect = {"law": {"id": law_id, "trials": trials, "expectation": ref.LAWS[law_id]}}
    return _req(args, "", expect, trials, "law", law_id)


# ---------------------------------------------------------------------------
# one pass of each workload

def _sized(rng: random.Random, shape: str, n: int, label) -> ref.Term:
    """A term of about n nodes; "htree-balanced" is the complete htree
    nearest in size."""
    if shape == "htree-balanced":
        return balanced_htree(max(round(math.log2(n + 1)) - 1, 1), label)
    return random_tree(rng, shape, n | 1, label)


def typical_tree(rng: random.Random, shape: str, n: int, label, draws: int = 5) -> ref.Term:
    """Of a few random terms of about n nodes, the one whose prune count
    has the median size.  `prune --count` costs more the larger the
    count, and random structure scatters counts of one size widely."""
    if shape in ("list", "htree-balanced"):  # one structure per size
        return _sized(rng, shape, n, label)
    terms = sorted((_sized(rng, shape, n, label) for _ in range(draws)),
                   key=lambda t: ref.prune_counts(t)[0])
    return terms[draws // 2]


def scan_pass(rng: random.Random) -> list[dict]:
    reqs = []
    # the large band holds the complete htree of 65,535 nodes; the
    # over-limit term is a cons chain one node past the limit
    plan = (list(zip(log_strata(1e3, 4e3, 95),
                     itertools.cycle(("list", "etree", "itree", "htree", "htree-balanced")),
                     itertools.repeat("tree-small")))
            + list(zip(log_strata(1e4, 1e5 - 1, 3), ("etree", "list", "htree-balanced"),
                       itertools.repeat("tree-large"))))
    for k, (n, shape, cls) in enumerate(plan):
        semiring, monad = TREE_SETTINGS[k % len(TREE_SETTINGS)]
        t = _sized(rng, shape, n, _labeller(rng, semiring))
        reqs.append(tree_request(t, semiring, monad, "scan", k % 3 == 0, cls))
    for k, n in enumerate(log_strata(1e4, 1e6, 5)):
        xs = [v % 2001 - 1000 for v in array("H", rng.randbytes(2 * n))]
        reqs.append(mss_request(xs, k % 2 == 0))
    over = list_term(ref.MAX_TREE_NODES, _labeller(rng, None))
    reqs.append(tree_request(over, "max-plus", "bag", "scan", False, "over-limit"))
    return reqs


def prune_pass(rng: random.Random) -> list[dict]:
    reqs = []
    monads = ("bag", "set", "list")
    shapes = ("etree", "itree", "htree")
    label = _labeller(rng, None, 9)
    for k, target in enumerate(log_strata(10, 1e4, 54)):
        t = tree_near(rng, shapes[(k // 3) % 3], target,
                      lambda u: ref.prune_counts(u)[0], label)
        reqs.append(prune_request(t, monads[k % 3], k % 2 == 1, "enum"))
    for k, n in enumerate(log_strata(100, 250, 2)):
        reqs.append(prune_request(list_term(n, label), monads[k % 3], k == 1, "enum-list"))
    shapes = ("list", "etree", "itree", "htree", "htree-balanced")
    for k, n in enumerate(log_strata(1e2, 1.6e4, 45)):
        t = typical_tree(rng, shapes[k % len(shapes)], n, label)
        reqs.append(count_request(t, k % 2 == 0, "count"))
    return reqs


def brute_pass(rng: random.Random) -> list[dict]:
    reqs = []
    plan = ([(n, "segs-small") for n in log_strata(1e2, 3e3, 101)]
            + [(n, "segs-large") for n in log_strata(3e3, 3e4, 3)])
    shapes = ("etree", "itree", "htree")
    vias = ("brute", "check")
    for k, (target, cls) in enumerate(plan):
        semiring, monad = TREE_SETTINGS[k % len(TREE_SETTINGS)]
        t = tree_near(rng, shapes[(k // 2) % 3], target, ref.segs_count,
                      _labeller(rng, semiring))
        reqs.append(tree_request(t, semiring, monad, vias[k % 2], k % 3 == 0, cls))
    for k, n in enumerate(log_strata(20, 80, 4)):
        semiring, monad = TREE_SETTINGS[k % len(TREE_SETTINGS)]
        t = list_term(n, _labeller(rng, semiring))
        reqs.append(tree_request(t, semiring, monad, vias[k % 2], False, "segs-list"))
    t = list_term(1500 + rng.randrange(10), _labeller(rng, "max-plus"))
    reqs.append(tree_request(t, "max-plus", "bag", "brute", False, "guard"))
    return reqs


def laws_pass(rng: random.Random) -> list[dict]:
    """Every law id under ten law seeds, the heavy laws under five of them."""
    seeds = [rng.randrange(10**6) for _ in range(10)]
    return [law_request(i, s, LAW_TRIALS[i]) for k, s in enumerate(seeds) for i in ref.LAWS
            if k % 2 == 0 or i not in HEAVY_LAWS]


PASS_BUILDERS = {"scan": scan_pass, "prune": prune_pass, "brute": brute_pass,
                 "laws": laws_pass}


def known_defects(rng: random.Random) -> list[dict]:
    """Inputs that fail at the time the benchmark was written (see
    README.md).  They run after the timed loop of the prune workload;
    each must either fail exactly as documented here or answer right."""
    long_list = list_term(500, _labeller(rng, None, 9))
    r1 = prune_request(long_list, "bag", False, "defect-prune-recursion")
    r1["defect"] = {"exit": 1, "exc": "RecursionError"}
    deep = balanced_htree(14, _labeller(rng, None, 9))
    r2 = count_request(deep, False, "defect-count-digits")
    r2["defect"] = {"exit": 2, "stderr_prefix": "error: Exceeds the limit (4300 digits)"}
    return [r1, r2]


def workload(name: str, seed: int) -> tuple[list[dict], list[dict]]:
    """The pass of a workload and its known-defect probe inputs."""
    rng = random.Random(f"segbench:{name}:{seed}")
    reqs = PASS_BUILDERS[name](rng)
    random.Random(len(reqs)).shuffle(reqs)  # interleave the plan, alike for every seed
    probe = known_defects(rng) if name == "prune" else []
    return reqs, probe

"""Command-line front end.

Subcommands: mss (list algorithms), tree (generic pipeline), prune
(enumerate or count prunings), laws (run the law registry), bench
(wall-clock comparison of the list algorithms).

Exit statuses: 0 ok, 1 a check failed (tree --check routes disagree,
laws misses an expectation, bench --assert finds the algorithms out of
order), 2 usage or parse problem, 3 distributivity gate, 4 arithmetic
overflow, 5 collection size guard, 6 bench budget.
"""

from __future__ import annotations

import functools
import json
import random
import re
import sys
import time
from decimal import Decimal

import click

from .errors import (
    BenchBudgetError,
    DistributivityError,
    RoutesDisagreeError,
    SegmaxError,
    SizeGuardError,
    TermSyntaxError,
)
from .horner import (
    SEMIRINGS,
    max_prefix_sum,
    mss_generic,
    mss_linear,
    mss_quadratic,
    mss_spec,
)
from .ints import I64_MAX, I64_MIN, check_i64, parse_int, plain_ints
from .lawcheck import reports_to_json, run_all
from .monads import CollectionKind, to_text
from .pruning import print_step, prune_count
from .pruning import prune as prune_term
from .shapes import ShapeKind, parse_term
# segbench's traced run rebinds these names here, so they stay bound
from .shapes import print_pruned, term_size  # noqa: F401

EXIT_USAGE = 2
EXIT_GATE = 3
EXIT_OVERFLOW = 4
EXIT_GUARD = 5
EXIT_BUDGET = 6

MAX_LIST_LEN = 10**6
# the cubic and quadratic algorithms' own limits, by measurement: on CPython
# 3.11 on a shared 2-vCPU VM, spec took 2.9 s at 1,000 elements and
# quadratic 1.9 s at 10,000
ALGO_MAX_LEN = {"spec": 1_000, "quadratic": 10_000}
# mss lists are read in chunks of _CHUNK characters, each cut where split()
# cuts: at a comma or a character for which str.isspace holds (re's \s)
_CHUNK = 1 << 16
_SEPARATOR = re.compile(r"[\s,]")

_SHAPE_CHOICES = [k.value for k in ShapeKind]
_MONAD_CHOICES = [k.value for k in CollectionKind]


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current sys.stdout (or sys.stderr), keeping the
    stream's own encoding and error handler.  Naming the stream bypasses
    click's default-stream cache, a WeakKeyDictionary that maps a stream
    to itself and so never frees it: under CliRunner it would keep every
    invocation's captured output alive."""
    stream = click.get_text_stream("stderr" if err else "stdout", errors=None)
    click.echo(message, file=stream)


def _fail(code: int, message: str) -> None:
    _echo(f"error: {message}", err=True)
    sys.exit(code)


# Exit status per exception type; an exception takes the entry of the
# nearest class along its MRO, so every other SegmaxError is a usage error.
_EXIT_CODES = {
    RoutesDisagreeError: 1,
    DistributivityError: EXIT_GATE,
    SizeGuardError: EXIT_GUARD,
    BenchBudgetError: EXIT_BUDGET,
    OverflowError: EXIT_OVERFLOW,
    SegmaxError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
}


def _run(command):
    """A command whose exceptions of the types in _EXIT_CODES end it with
    one error line and the mapped exit status."""

    @functools.wraps(command)  # click reads the help text from the docstring
    def run(*args, **kwargs) -> None:
        try:
            command(*args, **kwargs)
        except tuple(_EXIT_CODES) as e:
            code = next(_EXIT_CODES[c] for c in type(e).__mro__ if c in _EXIT_CODES)
            _fail(code, str(e))

    return run


def _read_source(inline: str | None, path: str | None) -> str:
    if (inline is None) == (path is None):
        raise SegmaxError("provide exactly one of --input or --file")
    if inline is not None:
        return inline
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise SegmaxError(f"cannot read {path}: {e}") from None


def _parse_int_list(text: str, limit: int) -> list[int]:
    xs, start, n, faulty = [], 0, 0, False
    while start < len(text) and n <= limit:  # one chunk's parts are alive at a time
        cut = _SEPARATOR.search(text, start + _CHUNK)
        end = cut.start() if cut else len(text)
        chunk, start = text[start:end], end
        parts = chunk.replace(",", " ").split()
        n += len(parts)
        if faulty:  # past a fault parts are only counted: an over-long list is refused first
            continue
        k = len(xs)
        try:
            if plain_ints(chunk):
                xs.extend(map(int, parts))
                continue
        except ValueError:
            del xs[k:]
        # the values up to the chunk's first syntax fault, a literal past int()'s 4,300
        # digits read by value; a part with '+' or '_' is "", which parse_int refuses
        try:
            xs.extend(parse_int(p if plain_ints(p) else "") for p in parts)
        except ValueError:
            faulty = True
    if n > limit:
        raise TermSyntaxError(f"list longer than {limit} elements", 0)
    if xs and not (I64_MIN <= min(xs) and max(xs) <= I64_MAX):
        for x in xs:  # the first element out of range comes before a syntax fault after it
            check_i64(x, "element")
    if faulty:
        raise TermSyntaxError("list elements must be integers", 0)
    return xs


@click.group()
def main() -> None:
    """Segment sums over lists and shaped terms, with an executable law suite."""


@main.command()
@click.option("--algo", type=click.Choice(["spec", "quadratic", "linear", "prefix"]),
              default="linear", show_default=True)
@click.option("--input", "inline", default=None,
              help="Comma or space separated integers, each an optional '-' "
                   "and decimal digits, as term labels are.")
@click.option("--file", "path", default=None, help="Read the list from a file.")
@click.option("--json", "as_json", is_flag=True)
@_run
def mss(algo: str, inline: str | None, path: str | None, as_json: bool) -> None:
    """Maximum segment sum of an integer list (prefix = best prefix sum).

    Lists may have up to 1,000,000 elements, except that --algo spec
    (cubic) takes at most 1,000 and --algo quadratic at most 10,000.
    The list is read in chunks of about 64 KiB of text, faulty or not,
    so only one chunk's split parts are held at a time."""
    xs = _parse_int_list(_read_source(inline, path), ALGO_MAX_LEN.get(algo, MAX_LIST_LEN))
    fn = {"spec": mss_spec, "quadratic": mss_quadratic,
          "linear": mss_linear, "prefix": max_prefix_sum}[algo]
    value = fn(xs)
    if as_json:
        _echo(json.dumps({"algo": algo, "value": value, "n": len(xs)}))
    else:
        _echo(str(value))


@main.command()
@click.option("--shape", type=click.Choice(_SHAPE_CHOICES), default="htree",
              show_default=True)
@click.option("--semiring", "semiring_name", type=click.Choice(list(SEMIRINGS)),
              default="max-plus", show_default=True)
@click.option("--monad", type=click.Choice(_MONAD_CHOICES), default="bag",
              show_default=True)
@click.option("--via", type=click.Choice(["scan", "brute"]), default="scan",
              show_default=True)
@click.option("--check", "check_both", is_flag=True,
              help="Run both routes and require agreement.")
@click.option("--input", "inline", default=None, help="Term s-expression.")
@click.option("--file", "path", default=None)
@click.option("--force", is_flag=True, help="Bypass the distributivity gate.")
@click.option("--json", "as_json", is_flag=True)
@_run
def tree(shape: str, semiring_name: str, monad: str, via: str, check_both: bool,
         inline: str | None, path: str | None, force: bool, as_json: bool) -> None:
    """Best segment value of a shaped term, by scan or brute enumeration."""
    # one library call on every route; the brute and check routes parse the text
    value = mss_generic(SEMIRINGS[semiring_name], _read_source(inline, path),
                        "check" if check_both else via, CollectionKind(monad), force,
                        shape=ShapeKind(shape))
    if as_json:
        fields = {"scan": value, "brute": value} if check_both else {"via": via, "value": value}
        _echo(json.dumps({**fields, "semiring": semiring_name, "monad": monad}))
    else:
        _echo(f"scan = {value}\nbrute = {value}" if check_both else str(value))


@main.command()
@click.option("--shape", type=click.Choice(_SHAPE_CHOICES), default="htree",
              show_default=True)
@click.option("--monad", type=click.Choice(_MONAD_CHOICES), default="bag",
              show_default=True)
@click.option("--count", "count_only", is_flag=True,
              help="Print the number of prunings, counted while reading the "
                   "text: no term is built and nothing is enumerated.")
@click.option("--input", "inline", default=None, help="Term s-expression.")
@click.option("--file", "path", default=None)
@click.option("--json", "as_json", is_flag=True)
@_run
def prune(shape: str, monad: str, count_only: bool, inline: str | None,
          path: str | None, as_json: bool) -> None:
    """Enumerate (or count) all prunings of a term.

    --count reads the text and builds no term.  The printed size of an
    enumeration is the sum of the prunings' sizes, which no guard bounds:
    it is quadratic in the length of a list (72 MB at 4,000 elements,
    written in about a second, as each text is written once)."""
    text = _read_source(inline, path)
    if count_only:  # counted while parsing: no term is built
        count = prune_count(text, ShapeKind(shape))
        digits = str(Decimal(count))  # str(int) stops at 4,300 digits
        _echo('{"count": ' + digits + "}" if as_json else digits)
        return
    c = prune_term(parse_term(text, ShapeKind(shape)), CollectionKind(monad), print_step)
    if as_json:  # json.dumps, written out: there is always "E", and print_step's
        # texts need no escaping (its docstring gives their alphabet)
        _echo('{"kind": "' + monad + '", "items": ["' + '", "'.join(c.items) + '"]}')
    else:
        _echo(to_text(c))


@main.command()
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--trials", type=int, default=200, show_default=True)
@click.option("--id", "ids", multiple=True, help="Run only these law ids.")
@click.option("--json", "as_json", is_flag=True)
@_run
def laws(seed: int, trials: int, ids: tuple[str, ...], as_json: bool) -> None:
    """Run the law registry; nonzero exit if any expectation is missed."""
    reports = run_all(seed, trials, list(ids) or None)
    if as_json:
        _echo(reports_to_json(reports))
    else:
        width = max(len(r.id) for r in reports)
        for r in reports:
            status = "ok" if r.ok else "UNEXPECTED"
            line = f"{r.id:<{width}}  {r.outcome:<18} trials={r.trials:<6} {status}"
            _echo(line)
            if r.witness is not None:
                _echo(f"{'':<{width}}  witness: {r.witness}")
    if not all(r.ok for r in reports):
        sys.exit(1)


_BENCH_ALGOS = {"spec": mss_spec, "quadratic": mss_quadratic, "linear": mss_linear}


def _bench_input(n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    bound = 1 << 20
    return [rng.randint(-bound, bound) for _ in range(n)]


def bench_run(sizes: list[int], algos: list[str], seed: int = 42,
              budget: float = 120.0) -> list[dict]:
    """Median of three wall times for each (algo, n); raises
    BenchBudgetError when the accumulated time passes the budget."""
    rows = []
    started = time.perf_counter()
    for algo in algos:
        fn = _BENCH_ALGOS[algo]
        for n in sizes:
            xs = _bench_input(n, seed)
            times = []
            for _ in range(3):
                if time.perf_counter() - started > budget:
                    raise BenchBudgetError(f"bench budget of {budget}s exceeded")
                t0 = time.perf_counter()
                fn(xs)
                times.append(time.perf_counter() - t0)
            rows.append({"algo": algo, "n": n, "seconds": sorted(times)[1]})
    return rows


@main.command()
@click.option("--sizes", default="200,400,800", show_default=True,
              help="Comma-separated ascending list lengths, at most 1,000,000; "
                   "at most 1,000 with spec and 10,000 with quadratic.")
@click.option("--algos", default="spec,quadratic,linear", show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--assert", "do_assert", is_flag=True,
              help="Require spec > quadratic > linear at the largest size.")
@click.option("--budget", type=float, default=120.0, show_default=True,
              help="Total wall-clock budget in seconds, read before each "
                   "repetition: a running repetition is not interrupted.")
@click.option("--json", "as_json", is_flag=True)
@_run
def bench(sizes: str, algos: str, seed: int, do_assert: bool, budget: float,
          as_json: bool) -> None:
    """Compare the list algorithms' wall-clock growth."""
    try:
        # a part with '+' or '_' becomes "", which parse_int refuses
        ns = [parse_int(p if plain_ints(p) else "") for p in sizes.split(",") if p.strip()]
    except ValueError:
        raise TermSyntaxError("sizes must be integers", 0) from None
    if not ns or any(n <= 0 for n in ns) or ns != sorted(ns):
        _fail(EXIT_USAGE, "sizes must be positive and ascending")
    if ns[-1] > MAX_LIST_LEN:  # before any input is built
        _fail(EXIT_USAGE, f"sizes must be at most {MAX_LIST_LEN}")
    if not budget > 0:  # also refuses nan, which would disable the guard
        _fail(EXIT_USAGE, "budget must be a positive number of seconds")
    names = [a.strip() for a in algos.split(",") if a.strip()]
    unknown = [a for a in names if a not in _BENCH_ALGOS]
    if unknown:
        _fail(EXIT_USAGE, f"unknown algorithms: {', '.join(unknown)}")
    if not names:
        _fail(EXIT_USAGE, "no algorithms given")
    for a in names:
        if ns[-1] > ALGO_MAX_LEN.get(a, MAX_LIST_LEN):
            _fail(EXIT_USAGE, f"sizes must be at most {ALGO_MAX_LEN[a]} for {a}")
    rows = bench_run(ns, names, seed, budget=budget)
    if as_json:
        _echo(json.dumps(rows))
    else:
        for row in rows:
            _echo(f"{row['algo']:<10} n={row['n']:<8} {row['seconds']:.6f}s")
    if do_assert and len(names) > 1:
        top = ns[-1]
        at_top = {r["algo"]: r["seconds"] for r in rows if r["n"] == top}
        order = [a for a in ("spec", "quadratic", "linear") if a in at_top]
        for fast, slow in zip(order[1:], order[:-1]):
            if not at_top[slow] > at_top[fast]:
                _fail(1, f"expected {slow} slower than {fast} at n={top}")


if __name__ == "__main__":
    main()

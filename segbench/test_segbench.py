"""Self-tests of the benchmark: its reference, its failure accounting and
its tracer.  Run from the root of a checkout:

    python3 -m pytest segbench -q
"""

from __future__ import annotations

import os
import statistics
import sys

import click
import pytest
from click.testing import CliRunner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

# the hand fixtures of acceptance tests c01 and c03
CLASSIC = [4, -5, 6, -3, 2, 0, -4, 5, -6, 5]
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


def ex7() -> ref.Term:
    return ref.Term("htree", ["fork", "leaf", "fork", "leaf", "leaf"], [1, 2, 3, 1, 4],
                    [(1, 2), (), (3, 4), (), ()])


def test_reference_classic_list():
    t = inputs.list_term(len(CLASSIC), iter(CLASSIC).__next__)
    assert ref.horner_values(t, "max-plus")[0] == 5  # best prefix sum
    assert ref.horner_best(t, "max-plus") == 6
    assert ref.mss_linear(CLASSIC) == 6


def test_reference_ex7_prunings():
    t = ex7()
    assert ref.text(t) == EX7_TEXT
    assert ref.prune_counts(t)[0] == 11
    assert ref.prunings(t, "bag") == EX7_PRUNINGS
    assert ref.prunings(t, "set") == EX7_PRUNINGS
    assert ref.prunings(t, "list")[0] == "E" and ref.prunings(t, "list")[-1] == EX7_TEXT


def test_reference_big_counts():
    n = 7**6000  # 5,071 digits, past str()'s default limit
    digits = ref.big_str(n)
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == n and digits[0] != "0"


def test_inputs_repeat_per_seed():
    a, _ = inputs.workload("brute", 3)
    b, _ = inputs.workload("brute", 3)
    c, _ = inputs.workload("brute", 4)
    assert a == b
    assert a != c


# -- failure accounting ---------------------------------------------------------

@click.group()
def fake():
    pass


@fake.command()
def ok():
    click.echo("42")


@fake.command()
def wrong():
    click.echo("41")


@fake.command()
def refuse():
    click.echo("error: no", err=True)
    sys.exit(3)


@fake.command()
def crash():
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize("cmd, flagged", [
    ("ok", None), ("wrong", "stdout"), ("refuse", "exit 3"), ("crash", "uncaught RecursionError"),
])
def test_failure_accounting_flags(cmd, flagged):
    req = {"args": [cmd], "expect": {"stdout": "42\n"}, "work": 7}
    r = worker.run_one(CliRunner(), fake, req, 0, None)
    if flagged is None:
        assert r["reason"] is None
    else:
        assert r["reason"].startswith(flagged)


def test_quantile_is_harrell_davis():
    assert run.quantile(list(range(101)), 0.5) == pytest.approx(50)
    assert run.quantile(list(range(101)), 0.9) == pytest.approx(90.4, abs=0.1)
    # a gap at the median: the plain median sits on one side of it, and
    # moving one request across would flip it; the estimate lies inside
    gap = [1.0] * 50 + [3.0] * 51
    assert statistics.median(gap) == 3.0
    assert 1.5 < run.quantile(gap, 0.5) < 2.5


def test_failed_requests_are_slowest_and_do_no_work():
    good = {"ns": 2 * 10**6, "cal_ns": 10**6, "reason": None, "work": 5}
    bad = {"ns": 1, "cal_ns": 10**6, "reason": "uncaught RecursionError", "work": 5}
    schedule = list(range(10)) * 3
    results = [good] * 29 + [bad]  # request 9 fails in the last pass only
    m = run.end_to_end(schedule, results, [""] * 10, 0.1, 1024)
    assert m["req_p50_ms"][0] == pytest.approx(2.0, abs=0.05)  # two calibrations long
    assert m["req_p90_ms"][0] > 2.0
    assert m["work_per_s"][0] == pytest.approx(45 / (10 * 2.0) * 1e3)
    # one group per law id: the geometric mean of each group's rate
    m = run.end_to_end(schedule, results, ["a"] * 5 + ["b"] * 5, 0.1, 1024)
    assert m["work_per_s"][0] == pytest.approx((25 / 10e-3 * 20 / 10e-3) ** 0.5)


# -- tracing ----------------------------------------------------------------------

def _tiny_requests(tmp_path) -> list:
    t = ex7()
    reqs = [inputs.tree_request(t, "max-plus", "bag", "check", False, "segs-small"),
            inputs.prune_request(t, "bag", False, "enum"),
            inputs.law_request("prune-counts", 1, 2)]
    for k, req in enumerate(reqs):
        text = req.pop("text")
        if text:
            path = tmp_path / f"{k}.txt"
            path.write_text(text)
            req["args"] = req["args"] + ["--file", str(path)]
    return reqs


def _wrapped_bindings() -> list[str]:
    return [f"{module}.{attr}" for module, attr, _ in tracing.BOUNDARIES
            if hasattr(getattr(sys.modules[f"segmax.{module}"], attr), "__wrapped__")]


def test_untraced_run_records_no_spans(tmp_path, monkeypatch):
    from segmax.cli import main

    def no_install(self):
        raise AssertionError("the untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", no_install)
    spans = tmp_path / "spans.bin"
    manifest = {"requests": _tiny_requests(tmp_path), "seconds": 0, "min_passes": 2,
                "probe": [], "spans": str(spans)}
    results = worker.untraced_run(CliRunner(), main, manifest)["results"]
    assert len(results) == 6 and all(r["reason"] is None for r in results)
    assert not spans.exists() and not list(tmp_path.glob("spans*"))
    assert _wrapped_bindings() == []


def test_nesting_check_catches_a_span_outside_its_parent():
    tr = tracing.Tracer()
    root = tr.open_request(0)
    tr.close_request(root, 100, 200)
    tr.next_id = 2
    tr.buf.extend((1, tr.name_id("shapes.parse_term"), 150, 250, root, 0))
    with pytest.raises(AssertionError, match="inside its parent"):
        tr.check_nesting()


def test_nesting_check_catches_overlapping_children():
    tr = tracing.Tracer()
    root = tr.open_request(0)
    tr.close_request(root, 100, 200)
    tr.next_id = 3
    name = tr.name_id("schemes.fold")
    tr.buf.extend((1, name, 100, 180, root, 0))
    tr.buf.extend((2, name, 120, 200, root, 0))  # overlaps its sibling
    with pytest.raises(AssertionError, match="negative self time"):
        tr.check_nesting()


def test_traced_run_restores_bindings_and_adds_up(tmp_path):
    import segmax.horner
    from segmax.cli import main

    original = segmax.horner.pruned_fold
    manifest = {"requests": _tiny_requests(tmp_path), "seconds": 0, "min_passes": 1,
                "spans": str(tmp_path / "spans.bin")}
    out = worker.traced_run(CliRunner(), main, manifest)  # asserts the sums and outputs
    assert segmax.horner.pruned_fold is original and _wrapped_bindings() == []
    assert out["spans"] > 3 and os.path.getsize(manifest["spans"]) == out["spans"] * 48
    m, _ = run.per_layer(out, manifest["requests"])
    assert m["pruning.pruned_fold.calls"][0] == ref.segs_count(ex7())
    assert m["pruning.prune.items"][0] > 11
    assert m["lawcheck.trials"][0] == 2 and m["lawcheck.prune-counts.s"][0] > 0

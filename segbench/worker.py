"""The process that runs one workload's requests.

    python3 segbench/worker.py MANIFEST RESULTS

runs the closed loop the manifest describes and writes the results.

It runs from the root of a checkout and imports segmax from ./src.  One
client sends the next request only after the previous one has returned:
each request is one in-process call of the click entry point through
CliRunner, and its latency runs from the call to the captured stdout and
exit status.  The process keeps CPython's defaults: no raised recursion
limit, no raised integer-string limit and no gc tuning, since each would
hide a defect the workloads measure.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

import tracing  # noqa: E402
import verdict  # noqa: E402


def run_one(runner, main, req: dict, rid: int, tracer) -> dict:
    """Invoke one request and judge the response outside the timed span."""
    if tracer is not None:
        idx = tracer.open_request(rid)
    t0 = time.perf_counter_ns()
    res = runner.invoke(main, req["args"])
    t1 = time.perf_counter_ns()
    if tracer is not None:
        tracer.close_request(idx, t0, t1)
    exc = res.exception
    exc_name = None if exc is None or isinstance(exc, SystemExit) else type(exc).__name__
    stdout = res.stdout_bytes.decode("utf-8", "replace")
    stderr = res.stderr_bytes.decode("utf-8", "replace")
    reason = verdict.judge(req["expect"], res.exit_code, stdout, stderr, exc_name)
    work = req["work"]
    if reason is None and "law" in req["expect"]:
        work = verdict.law_trials(stdout)
    return {"ns": t1 - t0, "exit": res.exit_code, "exc": exc_name, "reason": reason,
            "work": work, "stderr": stderr[:200],
            "digest": hashlib.sha256(res.stdout_bytes).hexdigest()}


def _cal_node(i: int, kids: tuple) -> tuple:
    return (i, kids)


def _cal_size(t: tuple) -> int:
    return 1 + sum(_cal_size(k) for k in t[1])


def calibrate() -> int:
    """Time a fixed piece of pure-Python work like the program's own: build
    a tree of tuples, walk it recursively, format, sort and count strings.
    It takes about 1 ms on the machine the benchmark was tuned on; its
    time measures how fast the machine runs Python at that moment."""
    t0 = time.perf_counter_ns()
    level = [_cal_node(i, ()) for i in range(512)]
    while len(level) > 1:
        level = [_cal_node(i, (level[i], level[i + 1])) for i in range(0, len(level), 2)]
    counts: dict = {}
    for w in sorted(str(i * 7919 % 1000) for i in range(_cal_size(level[0]))):
        counts[w] = counts.get(w, 0) + 1
    return time.perf_counter_ns() - t0


def closed_loop(runner, main, reqs, seconds, min_passes, send) -> tuple[list, list]:
    """Send the pass reqs again and again, through send(runner, main,
    req, rid), until both `seconds` have passed and `min_passes` passes
    are complete.  Returns the schedule (request indices) and what send
    returned for each request.  The calibration work runs between every
    two requests; each result's "cal_ns" is the lesser of the two
    calibration times around it."""
    schedule, results = [], []
    start, passes = time.perf_counter(), 0
    cal = calibrate()
    while time.perf_counter() - start < seconds or passes < min_passes:
        for i, req in enumerate(reqs):
            schedule.append(i)
            r = send(runner, main, req, len(results))
            after = calibrate()
            r["cal_ns"] = min(cal, after)
            cal = after
            results.append(r)
        passes += 1
    return schedule, results


def check_repeats(schedule: list, results: list) -> None:
    """A repeated input must answer byte for byte as it did before."""
    first: dict = {}
    for i, r in zip(schedule, results):
        if first.setdefault(i, r["digest"]) != r["digest"] and r["reason"] is None:
            r["reason"] = "output differs from an earlier run of the same input"


def untraced_run(runner, main, manifest: dict) -> dict:
    schedule, results = closed_loop(runner, main, manifest["requests"], manifest["seconds"],
                                    manifest["min_passes"],
                                    lambda *a: run_one(*a, tracer=None))
    check_repeats(schedule, results)
    probe = []
    for req in manifest["probe"]:
        r = run_one(runner, main, req, -1, None)
        documented = verdict.defect_outcome(req["defect"], r["exit"], r["stderr"], r["exc"])
        probe.append({"cls": req["cls"], "reason": r["reason"], "documented": documented,
                      "exit": r["exit"], "exc": r["exc"], "s": r["ns"] / 1e9})
    return {"schedule": schedule, "results": results, "probe": probe}


def traced_run(runner, main, manifest: dict) -> dict:
    """Send every request twice in a row, traced and untraced, in turns
    first one way and then the other: the two must answer byte for byte
    alike, and the ratio of their summed times, taken over the same
    seconds of the machine, is the tracing overhead.  The wrappers are
    installed only around the traced send."""
    tr = tracing.Tracer()

    def send_traced(runner, main, req, rid):
        tr.install()
        try:
            return run_one(runner, main, req, rid, tr)
        finally:
            tr.uninstall()

    def send_twice(runner, main, req, rid):
        if rid % 2:
            plain = run_one(runner, main, req, rid, None)
            traced = send_traced(runner, main, req, rid)
        else:
            traced = send_traced(runner, main, req, rid)
            plain = run_one(runner, main, req, rid, None)
        if (traced["digest"], traced["exit"]) != (plain["digest"], plain["exit"]):
            raise AssertionError("traced and untraced responses differ")
        traced["untraced_ns"] = plain["ns"]
        return traced

    reqs = manifest["requests"]
    schedule, results = closed_loop(runner, main, reqs, manifest["seconds"],
                                    manifest["min_passes"], send_twice)
    check_repeats(schedule, results)
    tr.write(manifest["spans"])
    classes = [reqs[i]["cls"] for i in schedule]
    tr.check_nesting()
    self_ns, incl_ns, calls = tr.aggregate(lambda rid: classes[rid])
    return {"schedule": schedule, "results": results,
            "untraced_ns": sum(r["untraced_ns"] for r in results),
            "self_ns": [[n, g, v] for (n, g), v in self_ns.items()],
            "incl_ns": [[n, g, v] for (n, g), v in incl_ns.items()],
            "calls": [[n, g, v] for (n, g), v in calls.items()],
            "counters": dict(tr.counters), "spans": len(tr.buf) // 6}


def main_worker(manifest_path: str, results_path: str) -> None:
    from click.testing import CliRunner
    from segmax.cli import main

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    runner = CliRunner()
    out = (traced_run if manifest["trace"] else untraced_run)(runner, main, manifest)
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(results_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main_worker(sys.argv[1], sys.argv[2])

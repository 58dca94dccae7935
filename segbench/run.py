"""Benchmark of the segmax CLI: one workload, one run.

    python3 segbench/run.py --workload scan|prune|brute|laws --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  It generates the workload's inputs
from the seed under .segbench/, times set-up in fresh interpreters, runs
the requests in a fresh worker process (worker.py), checks every answer
against the reference, and prints as its last line one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = ".segbench"
SETUP_SAMPLES = 5  # before the requests and again after them
WORKER_TIMEOUT_S = 150
# set-up: a fresh interpreter imports segmax.cli and nothing of the benchmark's
SETUP_PROGRAM = ("import sys; sys.path.insert(0, 'src'); import segmax.cli; "
                 "print('ready', flush=True)")
MIN_PASSES = 3  # a request's latency is the median of its sends


def fail(message: str) -> None:
    print(f"segbench: {message}", file=sys.stderr)
    sys.exit(2)


def time_setup(samples: int) -> list[float]:
    """Wall times from starting a fresh interpreter to segmax.cli imported
    and ready, after one warm-up start (which may compile bytecode)."""
    times = []
    for k in range(samples + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROGRAM],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if line != "ready\n" or proc.returncode != 0:
            fail(f"set-up failed: {err.strip()[-300:]}")
        if k:
            times.append(t1 - t0)
    return times


def materialize(workload: str, seed: int, work: str) -> tuple[list, list, str]:
    """Write every request's input file, point its --file at it, and
    digest the whole input set (arguments and file contents)."""
    reqs, probe = inputs.workload(workload, seed)
    digest = hashlib.sha256()
    os.makedirs(os.path.join(work, "in"))

    def place(req: dict, name: str) -> dict:
        text = req.pop("text")
        digest.update(json.dumps(req["args"]).encode())
        digest.update(hashlib.sha256(text.encode()).digest())
        if text:
            path = os.path.join(work, "in", name)
            with open(path, "w") as fh:
                fh.write(text)
            req["args"] = req["args"] + ["--file", path]
        return req

    reqs = [place(r, f"{i:03d}.txt") for i, r in enumerate(reqs)]
    probe = [place(r, f"defect-{i}.txt") for i, r in enumerate(probe)]
    return reqs, probe, digest.hexdigest()


def run_worker(manifest: dict, work: str) -> dict:
    mpath, rpath = os.path.join(work, "manifest.json"), os.path.join(work, "results.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    proc = subprocess.Popen([sys.executable, WORKER, mpath, rpath],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"worker exceeded {WORKER_TIMEOUT_S}s")
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}: {err.strip()[-500:]}")
    with open(rpath) as fh:
        return json.load(fh)


def quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) mass over each
    one's 1/n of [0, 1].  A pass's sizes are spread by plan, so its
    latencies have gaps; where a quantile falls into one, a single order
    statistic jumps across it from seed to seed, and this estimate does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32  # midpoint rule within each order statistic's interval
    total = 0.0
    for i, x in enumerate(xs):
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            total += x * math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
    return total / (steps * n)


def latency_figures(schedule: list[int], results: list[dict], groups: list[str],
                    per_send) -> tuple:
    """p50 and p90 latency (ms; see quantile) and work per second, from
    per_send(result) in ms.  Every request of the pass was sent in each
    of several passes; its latency is the median over them.  A request
    that failed in any pass failed: it counts as slower than any success
    and does no work.

    Work per second is the geometric mean, over the rate groups
    (groups[i] for request i), of each group's work over its time.  Only
    laws has more than one group, one per law id, so that each law's rate
    weighs alike: a law whose trial cost is heavy-tailed (prune-counts)
    then moves the figure by its own rate, not by how many of its rare
    large terms a seed happens to draw."""
    sends: dict = {}
    for i, r in zip(schedule, results):
        sends.setdefault(i, []).append(r)
    lat = {i: statistics.median(per_send(r) for r in rs) for i, rs in sends.items()}
    ok = {i: all(r["reason"] is None for r in rs) for i, rs in sends.items()}
    total_ms = sum(lat.values())
    lat_ms = [lat[i] if ok[i] else total_ms + 1 for i in sends]
    work: dict = {}
    time_ms: dict = {}
    for i in sends:
        g = groups[i]
        work[g] = work.get(g, 0) + (sends[i][0]["work"] if ok[i] else 0)
        time_ms[g] = time_ms.get(g, 0) + lat[i]
    rates = [work[g] / (time_ms[g] / 1e3) for g in work]
    rate = statistics.geometric_mean(rates) if all(rates) else 0.0
    return quantile(lat_ms, 0.50), quantile(lat_ms, 0.90), rate


def end_to_end(schedule: list[int], results: list[dict], groups: list[str],
               setup_s: float, maxrss_kib: int) -> dict:
    """Latency and throughput are in reference time: a send's wall time
    over the calibration time beside it, with one calibration counted as
    one reference millisecond.  A spell in which the machine runs Python
    slower moves both alike, so it does not move the figures."""
    p50, p90, rate = latency_figures(schedule, results, groups,
                                     lambda r: r["ns"] / r["cal_ns"])
    return {
        "setup_s": (setup_s, "s"),
        "req_p50_ms": (p50, "ref_ms"),
        "req_p90_ms": (p90, "ref_ms"),
        "work_per_s": (rate, "1/ref_s"),
        "peak_rss_mb": (maxrss_kib / 1024, "MiB"),
    }


def per_layer(out: dict, reqs: list) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced run, and notes on the shares
    the roadmap asserts."""
    def table(key):
        t: dict = {}
        for name, group, v in out[key]:
            t.setdefault(name, {})[group] = v
        return t

    self_ns, incl_ns, calls = table("self_ns"), table("incl_ns"), table("calls")
    m: dict = {"cli.self_s": (sum(self_ns.get(tracing.CLI, {}).values()) / 1e9, "s")}
    for name in tracing.SPAN_NAMES:
        m[f"{name}.self_s"] = (sum(self_ns.get(name, {}).values()) / 1e9, "s")
        m[f"{name}.calls"] = (sum(calls.get(name, {}).values()), "count")
    oracle = [n for n in self_ns if n.startswith(tracing.ORACLES + ".")]
    m["oracles.self_s"] = (sum(sum(self_ns[n].values()) for n in oracle) / 1e9, "s")
    m["oracles.calls"] = (sum(sum(calls[n].values()) for n in oracle), "count")
    counters = out["counters"]
    for name in tracing.COUNTERS:
        unit = "s" if name.endswith("_s") else "count"
        m[name] = (counters.get(name, 0), unit)
    for law_id in inputs.ref.LAWS:
        m[f"lawcheck.{law_id}.s"] = (counters.get(f"lawcheck.{law_id}.s", 0.0), "s")
    traced_ns = sum(r["ns"] for r in out["results"])
    m["trace.overhead_ratio"] = (traced_ns / out["untraced_ns"], "1")

    # shares of request time claimed in ROADMAP.md, measured here
    classes = [reqs[i]["cls"] for i in out["schedule"]]
    req_ns: dict = {}
    for c, r in zip(classes, out["results"]):
        req_ns[c] = req_ns.get(c, 0) + r["ns"]

    trees, enum = ("tree-small", "tree-large"), ("enum", "enum-list")
    notes = []
    for label, parts, groups in (
        ("tree: tokenize+parse (roadmap: ~40%)", [(incl_ns, "shapes.parse_term")], trees),
        ("tree: scan route (roadmap: ~40%)", [(incl_ns, "horner.mss_generic")], trees),
        ("prune: struct_key plus sorting (roadmap: ~97%)",
         [(self_ns, "shapes.struct_key"), (self_ns, "monads.collection")], enum),
        ("prune: print_pruned", [(self_ns, "shapes.print_pruned")], enum),
    ):
        total = sum(req_ns.get(g, 0) for g in groups)
        if total:
            part = sum(t.get(name, {}).get(g, 0) for t, name in parts for g in groups)
            notes.append(f"{label}: {part / total:.1%} of request time")
    if "law" in req_ns:
        pc = counters.get("lawcheck.prune-counts.s", 0.0) * 1e9 / req_ns["law"]
        notes.append(f"laws: prune-counts: {pc:.1%} of request time")
        # the roadmap's claim is about `segmax laws`, which runs every law
        # for the same number of trials: weigh each law by its time per trial
        per_trial = {i: counters[f"lawcheck.{i}.s"] / counters[f"lawcheck.{i}.trials"]
                     for i in inputs.ref.LAWS if counters.get(f"lawcheck.{i}.trials")}
        if "prune-counts" in per_trial:
            pc = per_trial["prune-counts"] / sum(per_trial.values())
            notes.append(f"laws: prune-counts at equal trials for every law "
                         f"(roadmap: dominates): {pc:.1%} of law time")
    return m, notes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "segmax", "cli.py")):
        fail("run from the root of a segmax checkout (src/segmax/cli.py not found)")

    setup = time_setup(SETUP_SAMPLES) if not args.trace else []
    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    reqs, probe, digest = materialize(args.workload, args.seed, work)
    print(f"inputs: sha256 {digest} ({len(reqs)} requests a pass, "
          f"{len(probe)} known-defect inputs)")
    manifest = {"requests": reqs, "probe": [] if args.trace else probe,
                "seconds": args.seconds,
                "min_passes": 1 if args.trace else MIN_PASSES,
                "trace": args.trace, "spans": os.path.join(work, "spans.bin")}
    out = run_worker(manifest, work)
    if not args.trace:  # set-up timed at both ends of the run, so one slow spell moves it less
        setup_s = statistics.median(setup + time_setup(SETUP_SAMPLES))
    shutil.rmtree(os.path.join(work, "in"))

    results = out["results"]
    failed = [r for r in results if r["reason"] is not None]
    for r in failed[:5]:
        print(f"failed: {r['reason']}")
    correct = not failed
    for p in out.get("probe", []):
        state = ("answers correctly" if p["reason"] is None
                 else "fails as documented" if p["documented"] else "WRONG")
        correct = correct and state != "WRONG"
        print(f"known defect {p['cls']}: {state} (exit {p['exit']}, {p['exc']}, {p['s']:.2f}s)")
    wall = sum(r["ns"] for r in results) / 1e9
    print(f"requests: {len(results)} in {wall:.2f}s, {len(failed)} failed")
    if args.trace:
        metrics, notes = per_layer(out, reqs)
        for note in notes:
            print(f"share: {note}")
        layers_s = metrics["cli.self_s"][0] + sum(
            v for k, (v, _) in metrics.items() if k.endswith(".self_s") and k != "cli.self_s")
        print(f"self times: {layers_s:.6f}s over all layers and cli, "
              f"traced request time {wall:.6f}s")
        print(f"spans: {out['spans']} written to {manifest['spans']}")
    else:
        groups = [r["group"] for r in reqs]
        metrics = end_to_end(out["schedule"], results, groups, setup_s, out["maxrss_kib"])
        p50, p90, rate = latency_figures(out["schedule"], results, groups,
                                         lambda r: r["ns"] / 1e6)
        cal_ms = statistics.median(r["cal_ns"] for r in results) / 1e6
        print(f"wall time: p50 {p50:.2f} ms, p90 {p90:.2f} ms, {rate:.5g} work/s; "
              f"calibration median {cal_ms:.3f} ms")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()

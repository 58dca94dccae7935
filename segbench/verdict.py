"""Failure accounting: judge one CLI response against its expectation.

A request fails on wrong stdout, an unexpected exit status, or an
uncaught exception.  judge() returns None for a correct response and a
one-line reason otherwise.
"""

from __future__ import annotations

import json

from reference import BRACKETS


def judge(expect: dict, exit_code: int, stdout: str, stderr: str,
          exc: str | None) -> str | None:
    if exc is not None:
        return f"uncaught {exc}"
    if "stderr" in expect:
        if exit_code != expect["exit"]:
            return f"exit {exit_code}, expected {expect['exit']}"
        if stdout:
            return "unexpected stdout"
        if stderr != expect["stderr"]:
            return f"stderr {stderr[:80]!r}"
        return None
    if exit_code != 0:
        return f"exit {exit_code}, expected 0: {stderr[:80]!r}"
    if "stdout" in expect:
        return None if stdout == expect["stdout"] else f"stdout {stdout[:80]!r}"
    if "prune" in expect:
        return _judge_prune(expect["prune"], stdout)
    return _judge_law(expect["law"], stdout)


def _judge_prune(e: dict, stdout: str) -> str | None:
    if e["json"]:
        try:
            blob = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        if set(blob) != {"kind", "items"} or blob["kind"] != e["monad"]:
            return "wrong JSON keys or kind"
        items = blob["items"]
    else:
        opening, closing = BRACKETS[e["monad"]]
        if not (stdout.startswith(opening) and stdout.endswith(closing + "\n")):
            return "wrong brackets"
        items = stdout[1:-2].split(", ")
    if len(items) != e["count"]:
        return f"{len(items)} prunings, expected {e['count']}"
    if items[0] != "E" or items[-1] != e["last"]:
        return "wrong first or last pruning"
    return None


def _judge_law(e: dict, stdout: str) -> str | None:
    try:
        reports = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(reports, list) or len(reports) != 1:
        return "expected exactly one report"
    r = reports[0]
    if set(r) != {"id", "trials", "outcome", "expectation", "ok", "witness"}:
        return "wrong report keys"
    if r["id"] != e["id"] or r["expectation"] != e["expectation"]:
        return "wrong id or expectation"
    if r["outcome"] != e["expectation"] or r["ok"] is not True:
        return f"outcome {r['outcome']}"
    if e["expectation"] == "HOLDS":
        if r["trials"] != e["trials"] or r["witness"] is not None:
            return "a holding law must run every trial without a witness"
    elif not (1 <= r["trials"] <= e["trials"] and isinstance(r["witness"], str)):
        return "a failing law must stop at a witness"
    return None


def law_trials(stdout: str) -> int:
    """Trials a correctly answered law request completed."""
    return json.loads(stdout)[0]["trials"]


def defect_outcome(defect: dict, exit_code: int, stderr: str, exc: str | None) -> bool:
    """Whether a known-defect input failed exactly as documented."""
    if exit_code != defect["exit"]:
        return False
    if "exc" in defect:
        return exc == defect["exc"]
    return exc is None and stderr.startswith(defect["stderr_prefix"])

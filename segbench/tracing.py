"""Spans around the calls into each segmax module, recorded from outside.

The tracer replaces, in the namespace of each calling module, the name
that module bound to a segmax function with a wrapper that records a
span: its name, start and end perf_counter_ns, the span that was open
when it began, and the request id.  Spans stay in one flat in-memory
array until the run ends.  A span is named after the module that
defines the function (`shapes.parse_term`), and a module is a layer.

Nothing here edits segmax: install() rebinds names and uninstall() puts
every original object back and checks that it did.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

CLI = "cli"  # the root span of every request

# (calling module, name it binds, span name)
_SCHEMES_FOLD = [(m, "fold", "schemes.fold")
                 for m in ("labelled", "pruning", "horner", "lawcheck", "oracles", "schemes")]
_COLLECTION = [(m, "collection", "monads.collection")
               for m in ("horner", "pruning", "schemes", "lawcheck", "oracles", "monads")]
BOUNDARIES = [
    ("cli", "parse_term", "shapes.parse_term"),
    ("cli", "term_size", "shapes.term_size"),
    ("cli", "print_pruned", "shapes.print_pruned"),
    ("monads", "struct_key", "shapes.struct_key"),
    *_SCHEMES_FOLD,
    ("horner", "scan_generic", "labelled.scan_generic"),
    ("lawcheck", "scan_generic", "labelled.scan_generic"),
    ("horner", "preorder_values", "labelled.preorder_values"),
    ("pruning", "preorder_values", "labelled.preorder_values"),
    ("pruning", "subterms", "labelled.subterms"),
    ("lawcheck", "subterms", "labelled.subterms"),
    ("cli", "prune_count", "pruning.prune_count"),
    ("pruning", "prune_count", "pruning.prune_count"),
    ("lawcheck", "prune_count", "pruning.prune_count"),
    ("pruning", "segs_count", "pruning.segs_count"),
    ("lawcheck", "segs_count", "pruning.segs_count"),
    ("cli", "prune_term", "pruning.prune"),
    ("horner", "prune", "pruning.prune"),
    ("lawcheck", "prune", "pruning.prune"),
    ("horner", "_segs_items", "pruning._segs_items"),
    ("pruning", "_segs_items", "pruning._segs_items"),
    ("horner", "pruned_fold", "pruning.pruned_fold"),
    *_COLLECTION,
    ("horner", "reduce", "monads.reduce"),
    ("lawcheck", "reduce", "monads.reduce"),
    ("cli", "to_text", "monads.to_text"),
    ("cli", "mss_generic", "horner.mss_generic"),
    ("lawcheck", "mss_generic", "horner.mss_generic"),
    ("cli", "mss_linear", "horner.mss_linear"),
    ("lawcheck", "mss_linear", "horner.mss_linear"),
    ("lawcheck", "horner_generic", "horner.horner_generic"),
    ("lawcheck", "horner_generic_brute", "horner.horner_generic_brute"),
    ("lawcheck", "run_law", "lawcheck.run_law"),
    ("lawcheck", "shrink_inputs", "lawcheck.shrink_inputs"),
]
ORACLES = "oracles"  # every function the oracles module defines is a boundary

# span names reported one by one; the oracles are summed into oracles.self_s
SPAN_NAMES = sorted({name for _, _, name in BOUNDARIES})
COUNTERS = ("pruning.prune.items", "pruning.segs.items", "pruning.guard_refused",
            "pruning.guard_refused_s", "monads.collection.items_in",
            "monads.collection.items_out", "lawcheck.trials")


def _materialize(args, kwargs):
    kind, items = args
    return (kind, tuple(items)), kwargs


def _count_collection(tr, args, result, error, dur):
    if error is None:
        tr.counters["monads.collection.items_in"] += len(args[1])
        tr.counters["monads.collection.items_out"] += len(result.items)


def _guarded(counter, size):
    def after(tr, args, result, error, dur):
        if error is None:
            tr.counters[counter] += size(result)
        elif type(error).__name__ == "SizeGuardError":
            tr.counters["pruning.guard_refused"] += 1
            tr.counters["pruning.guard_refused_s"] += dur / 1e9
    return after


def _count_law(tr, args, result, error, dur):
    law_id = args[0] if args else "?"
    tr.counters[f"lawcheck.{law_id}.s"] += dur / 1e9
    if error is None:
        tr.counters["lawcheck.trials"] += result.trials
        tr.counters[f"lawcheck.{law_id}.trials"] += result.trials


HOOKS = {  # span name -> (prepare args, after the call)
    "monads.collection": (_materialize, _count_collection),
    "pruning.prune": (None, _guarded("pruning.prune.items", lambda r: len(r.items))),
    "pruning._segs_items": (None, _guarded("pruning.segs.items", len)),
    "lawcheck.run_law": (None, _count_law),
}


class Tracer:
    def __init__(self):
        self.buf = array("q")  # (id, name id, start, end, parent id, request id) per span
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stack = [-1]
        self.next_id = 0
        self.req = -1
        self.counters: Counter = Counter()
        self._bindings: list = []  # (module, name, original, wrapper)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- request root spans ---------------------------------------------------

    def open_request(self, rid: int) -> int:
        idx = self.next_id
        self.next_id = idx + 1
        self.req = rid
        self.stack.append(idx)
        return idx

    def close_request(self, idx: int, t0: int, t1: int) -> None:
        self.stack.pop()
        self.buf.extend((idx, self.name_id(CLI), t0, t1, -1, self.req))

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        prepare, after = HOOKS.get(name, (None, None))
        buf, stack, clock, tr = self.buf, self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tr.next_id
            tr.next_id = idx + 1
            parent = stack[-1]
            stack.append(idx)
            result = error = None
            t0 = clock()
            try:
                if prepare is not None:
                    args, kwargs = prepare(args, kwargs)
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                buf.extend((idx, nid, t0, t1, parent, tr.req))
                if after is not None:
                    after(tr, args, result, error, t1 - t0)
        return wrapper

    def install(self) -> None:
        """Rebind every boundary to its wrapper (built on first use)."""
        if not self._bindings:
            mod = lambda short: sys.modules[f"segmax.{short}"]
            targets = [(mod(m), attr, name) for m, attr, name in BOUNDARIES]
            oracles = mod(ORACLES)
            targets += [(oracles, attr, f"{ORACLES}.{attr}")
                        for attr, obj in sorted(vars(oracles).items())
                        if inspect.isfunction(obj) and obj.__module__ == oracles.__name__]
            for module, attr, name in targets:
                original = getattr(module, attr)
                assert not hasattr(original, "__wrapped__"), f"{module.__name__}.{attr} is wrapped"
                self._bindings.append((module, attr, original, self.wrap(original, name)))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back, and check that it is back."""
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)
        for module, attr, original, _ in self._bindings:
            if getattr(module, attr) is not original:
                raise AssertionError(f"{module.__name__}.{attr} was not restored")

    # -- results ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans out: a binary array of int64 six-tuples, and
        the span names beside it."""
        with open(path, "wb") as fh:
            self.buf.tofile(fh)
        with open(path + ".names.json", "w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "request"],
                       "names": self.names}, fh)

    def _columns(self):
        """Per span id: name id, start, end, parent and request id, and
        the summed durations of its direct children."""
        n, buf = self.next_id, self.buf
        nid, start, end, parent, req = ([0] * n for _ in range(5))
        for k in range(0, len(buf), 6):
            i = buf[k]
            nid[i], start[i], end[i], parent[i], req[i] = buf[k + 1:k + 6]
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        return nid, start, end, parent, req, child

    def check_nesting(self) -> None:
        """Every span was closed, lies inside its parent within the same
        request, and has a self time of zero or more."""
        if len(self.buf) != 6 * self.next_id:
            raise AssertionError("a span was opened but never closed")
        _, start, end, parent, req, child = self._columns()
        for i, p in enumerate(parent):
            if p >= 0 and not (start[p] <= start[i] <= end[i] <= end[p] and req[i] == req[p]):
                raise AssertionError(f"span {i} does not lie inside its parent {p}")
            if end[i] - start[i] < child[i]:
                raise AssertionError(f"span {i} has a negative self time")

    def aggregate(self, group_of) -> tuple[dict, dict, dict]:
        """Self time, inclusive time and calls per (span name, request
        group).  Self time is a span's duration minus the durations of
        its direct children, which nest inside it."""
        nid, start, end, _, req, child = self._columns()
        self_ns, incl_ns, calls = defaultdict(int), defaultdict(int), Counter()
        groups = {}
        for i in range(self.next_id):
            rid = req[i]
            g = groups.get(rid)
            if g is None:
                g = groups[rid] = group_of(rid)
            key = (self.names[nid[i]], g)
            dur = end[i] - start[i]
            self_ns[key] += dur - child[i]
            incl_ns[key] += dur
            calls[key] += 1
        return self_ns, incl_ns, calls

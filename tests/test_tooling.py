import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "segbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("segbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_bindings_resolve():
    # the benchmark's traced run rebinds these names in segmax's modules;
    # renaming or dropping one would break it, so it fails here first
    tracing = _tracing()
    for module, name, _ in tracing.BOUNDARIES:
        assert hasattr(importlib.import_module(f"segmax.{module}"), name), (module, name)
    importlib.import_module(f"segmax.{tracing.ORACLES}")


def _tracer_shims() -> list[tuple[str, str]]:
    """(module, name) for every name a segmax module imports from another
    and never reads: it is bound only for the traced run to rebind."""
    shims = []
    for path in sorted((ROOT / "src" / "segmax").glob("*.py")):
        if path.name == "__init__.py":  # re-exports its imports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        shims += [(path.stem, a.asname or a.name)
                  for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
                  for a in node.names if (a.asname or a.name) not in read]
    return shims


def test_every_tracer_shim_is_a_boundary():
    # a shim whose boundary is gone is dead code: this names it for deletion
    boundaries = {(module, name) for module, name, _ in _tracing().BOUNDARIES}
    for shim in _tracer_shims():
        assert shim in boundaries, f"{shim} is bound for no boundary: delete it"


# Why a def in src/segmax may stay although no command run reaches it
API = "public API used by tests/test_acceptance.py"
GRAMMAR = "the grammar's checked constructors, printer and parsers"
PROTOCOL = "a protocol method"
REFERENCE = "a reference or paper combinator that tests compare the library against"
LIBRARY = "a library-only error path or a tracer boundary"

# every def that the audit's commands never enter, by module and qualified name
UNREACHED = {
    "horner.scanr_list": REFERENCE,
    "horner.segs_list": API,
    "horner.tails_list": API,
    "labelled.preorder_values": LIBRARY,
    "labelled.root": REFERENCE,
    "labelled.value_count": API,
    "lawcheck.decode_inputs": API,
    "lawcheck.decode_value": API,
    "lawcheck.replay": LIBRARY,
    "monads.opt": REFERENCE,
    "monads.reduce_law_failure": LIBRARY,
    "oracles.prune_recursive": REFERENCE,
    "oracles.prune_via_fold": REFERENCE,
    "oracles.prune_via_fold.<locals>.alg": REFERENCE,
    "oracles.pruned_fold_literal": REFERENCE,
    "oracles.scan_unfold": REFERENCE,
    "oracles.segs_generic_literal": REFERENCE,
    "pruning.is_pruning_of": REFERENCE,
    "pruning.segs_generic": REFERENCE,
    "shapes.Labelled.__hash__": PROTOCOL,
    "shapes.Node.__hash__": PROTOCOL,
    "shapes._EmptyMark.__repr__": PROTOCOL,
    "shapes._repr": PROTOCOL,
    "shapes.bin_": GRAMMAR,
    "shapes.cons": GRAMMAR,
    "shapes.fork": GRAMMAR,
    "shapes.inode": GRAMMAR,
    "shapes.leaf": GRAMMAR,
    "shapes.list_term": GRAMMAR,
    "shapes.make_node": GRAMMAR,
    "shapes.nil": GRAMMAR,
    "shapes.nilt": GRAMMAR,
    "shapes.parse_pruned": GRAMMAR,
    "shapes.print_term": GRAMMAR,
    "shapes.term_size": API,
    "shapes.tip": GRAMMAR,
}

FIXTURES = ROOT / "tests" / "cli_fixtures"
# with their exit statuses: five trials draw no witness of set-plus-nonidempotent
AUDIT_RUNS = {("laws", "--trials", "5"): 1,
              ("bench", "--sizes", "10,20", "--algos", "spec,quadratic,linear"): 0}

# runs in a fresh interpreter: argv[1] is a JSON list of argument lists;
# prints each run's exit status and every code object entered, as JSON
_AUDIT = """
import json, sys
from click.testing import CliRunner
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
from segmax.cli import main
statuses = [CliRunner().invoke(main, args).exit_code for args in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"statuses": statuses, "entered": [
    [c.co_filename, c.co_firstlineno, c.co_name] for c in entered]}))
"""


def _defs() -> dict[tuple[str, int, str], str]:
    """Every def in src/segmax, keyed as its code object is (file, first
    line, name), with its module and qualified name: code objects have no
    co_qualname before 3.11, and a decorated def starts at its decorator."""
    defs = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                defs[(str(path), line, child.name)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                      else prefix)

    for path in sorted((ROOT / "src" / "segmax").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return defs


def test_every_def_in_src_is_reached_or_allowlisted(tmp_path):
    # every fixture, a short law run and a short bench run through the CLI
    # in a fresh interpreter; a def they never enter must be allowlisted
    # with its reason, and an allowlisted def they enter is a stale entry
    cases = sorted(FIXTURES.iterdir())
    runs = [[os.fsdecode(a) for a in (d / "args").read_bytes().splitlines()] for d in cases]
    res = subprocess.run([sys.executable, "-c", _AUDIT, json.dumps(runs + list(AUDIT_RUNS))],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert res.returncode == 0, res.stderr
    audit = json.loads(res.stdout)
    assert audit["statuses"] == [int((d / "status").read_text()) for d in cases] + list(
        AUDIT_RUNS.values())
    defs = _defs()
    entered = {defs[k] for k in map(tuple, audit["entered"]) if k in defs}
    assert set(UNREACHED.values()) <= {API, GRAMMAR, PROTOCOL, REFERENCE, LIBRARY}
    assert sorted(set(defs.values()) - entered - set(UNREACHED)) == [], "reached by nothing"
    assert sorted(set(UNREACHED) - (set(defs.values()) - entered)) == [], "stale entries"


# modules that no command runs: dataclasses imports copy, and statistics
# imports _statistics and fractions
NEVER_LOADED = ["_statistics", "copy", "dataclasses", "fractions", "statistics"]
START_RUNS = [["tree", "--input", "(leaf 1)"], ["mss", "--input", "1,2"],
              ["prune", "--count", "--input", "(leaf 1)"],
              ["laws", "--id", "mss-chain", "--trials", "1"],
              ["bench", "--sizes", "10", "--algos", "linear"]]

# runs in a fresh interpreter: each argument list in argv[1], as JSON,
# then prints which of the modules in argv[2] are loaded; click.testing
# would load copy and dataclasses itself, so main is called directly
_STARTUP = """
import json, sys
from segmax.cli import main
for args in json.loads(sys.argv[1]):
    main(args, standalone_mode=False)
print(json.dumps(sorted(set(json.loads(sys.argv[2])) & set(sys.modules))))
"""


def test_no_command_loads_a_module_it_never_runs(tmp_path):
    res = subprocess.run([sys.executable, "-c", _STARTUP, json.dumps(START_RUNS),
                          json.dumps(NEVER_LOADED)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == []

import ast
import importlib
import importlib.util
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

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "segbench" / "tracing.py"


def test_traced_bindings_resolve():
    # the benchmark's traced run rebinds these names in segmax's modules;
    # renaming or dropping one would break it, so it fails here first
    spec = importlib.util.spec_from_file_location("segbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name, _ in tracing.BOUNDARIES:
        assert hasattr(importlib.import_module(f"segmax.{module}"), name), (module, name)
    importlib.import_module(f"segmax.{tracing.ORACLES}")

"""Names other code depends on: every function the traced benchmark wraps
(perfbench/spans.py) and every name in polysmash.__all__ must resolve, so
that deleting one fails here and not only in the benchmark's own smoke run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import polysmash

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_span_targets_resolve():
    mods = SimpleNamespace(**{
        info.name: importlib.import_module(f"polysmash.{info.name}")
        for info in pkgutil.iter_modules(polysmash.__path__)
    })
    targets = load_spans().targets(mods)
    assert targets
    missing = [(owner, attr) for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing


def test_all_names_resolve():
    missing = [name for name in polysmash.__all__ if not hasattr(polysmash, name)]
    assert not missing, missing

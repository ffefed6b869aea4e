"""The benchmark's tracer wraps functions the package still has."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_wrapped_names_are_package_functions():
    # loaded by path: perfbench is not a package the project declares
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}" for module, names in spans.WRAPPED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"dpca.{module}"), name, None))]
    assert spans.WRAPPED
    assert missing == []

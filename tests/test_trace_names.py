"""The benchmark's traced pass (``perfbench/run.py --trace 1``) wraps
package functions and ``Matroid`` methods by name; a rename breaks it."""

import importlib
import importlib.util
from pathlib import Path

from gammoids.matroid import Matroid

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = load_spans()
    for short, names in spans.FUNCTIONS.items():
        home = importlib.import_module(f"gammoids.{short}")
        for name in names:
            assert callable(getattr(home, name, None)), f"gammoids.{short}.{name}"
    for name in spans.METHODS:
        assert name in Matroid.__dict__, f"Matroid.{name}"

"""The benchmark's tracer wraps public functions by module and name; a
rename must fail here rather than in a benchmark run."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import LAYERS  # noqa: E402


def test_every_traced_layer_resolves():
    missing = [
        f"{mod}.{fn}" for mod, fn, _name, _counts in LAYERS
        if not callable(getattr(importlib.import_module(f"mobilemem.{mod}"), fn, None))
    ]
    assert not missing, f"bench/tracing.py LAYERS names no function: {missing}"

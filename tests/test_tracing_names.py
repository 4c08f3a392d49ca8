"""The benchmark's tracer (`perfbench/tracing.py`) wraps functions of the package
by name, so every name it lists must still be a function of its module: a
deleted or renamed function would break `perfbench/run.py --trace 1`."""

import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_is_a_function_of_its_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    missing = [
        f"spanembed.{layer}.{fname}"
        for layer, fname, _ in tracing.TRACED
        if not inspect.isfunction(getattr(importlib.import_module(f"spanembed.{layer}"), fname, None))
    ]
    assert missing == []

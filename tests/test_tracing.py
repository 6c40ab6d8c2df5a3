"""The benchmark's tracer must still find every layer it measures.

``perfbench/tracing.py`` names each traced layer as ``module.function``; a
refactor that renames or moves one of those functions breaks the traced
benchmark run.  The tracer module is loaded by path, without writing
bytecode next to it, and without being imported as part of a package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    patched = {(owner.__name__, attr) for owner, attr, _, _ in tracer._patches}
    for layer in tracing.LAYER_FUNCTIONS:
        module, func = layer.split(".")[:2]
        if layer in tracing.METHODS:
            cls, attr = tracing.METHODS[layer]
            assert (cls.__name__, attr) in patched, layer
        else:
            assert callable(getattr(importlib.import_module(f"qmeasure.{module}"), func)), layer
            assert (f"qmeasure.{module}", func) in patched, layer

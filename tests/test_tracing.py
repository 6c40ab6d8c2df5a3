"""The benchmark's tracer must still find every layer it measures, and its
workloads must still build their inputs.

``perfbench/tracing.py`` names each traced layer as ``module.function``; a
refactor that renames or moves one of those functions breaks the traced
benchmark run.  ``perfbench/workloads.py`` builds its d = 4 indirect scenarios
through ``Instrument.from_indirect``; a change that breaks that builder breaks
every benchmark run.  Both modules are loaded by path, without writing
bytecode next to them, and without being imported as part of a package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name: str):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer(monkeypatch):
    tracing = load_perfbench(monkeypatch, "tracing")
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


def test_workloads_build_a_d4_indirect_scenario(monkeypatch):
    scenario = load_perfbench(monkeypatch, "workloads").generate_d4_indirect(0, 0)
    assert scenario.dimension == 4 and scenario.indirect is not None
    assert scenario.apparatus.kraus_stack.shape == (4, 4, 4, 4)

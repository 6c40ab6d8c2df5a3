"""Spans around calls into qmeasure's layers, for the traced run.

The traced run makes the same library calls as the untraced run.  While a
``Tracer`` is installed, every module-level binding of a measured function
in the ``qmeasure`` modules and in the given extra namespaces is replaced by
a wrapper that records a span, so calls the package makes between its own
modules are traced as well.  Three measured layers are methods and are
wrapped on their classes: ``Scenario.digest``, ``Instrument.pom`` and
``Instrument.contextual_values``.  Leaving the ``installed()`` block puts
the original functions back.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import os
import sys
import time
from collections import Counter

from qmeasure.inequalities import RELATION_IDS
from qmeasure.instruments import Instrument
from qmeasure.scenario import Scenario

# Per-layer functions, in the order of the per-layer table.  Each gets a
# ``.calls`` and a ``.self_ms`` metric.
LAYER_FUNCTIONS = (
    "scenario.load_scenario",
    "scenario.generate_random",
    "scenario.digest",
    "operators.spectral_decompose",
    "instruments.pom",
    "instruments.contextual_values",
    "metrics.epsilon_sq_system",
    "metrics.eta_sq_system",
    "metrics.epsilon_sq_joint",
    "metrics.eta_sq_joint",
    "metrics.eta_sq_lindblad",
    "quasiprob.tmh_error_distribution",
    "quasiprob.tmh_disturbance_distribution",
    "quasiprob.weak_probe_error_distribution",
    "quasiprob.weak_probe_disturbance_distribution",
    "retrodiction.retrodictive_error",
    "retrodiction.interdictive_disturbance",
    "retrodiction.restricted_metrics",
    *(f"inequalities.evaluate.{rid}" for rid in RELATION_IDS),
    "inequalities.evaluate_all",
    "inequalities.random_sweep",
    "harness.analyze",
    "harness.report_to_dict",
    "harness.weak_sweep",
    "harness.sample",
)

METHODS = {
    "scenario.digest": (Scenario, "digest"),
    "instruments.pom": (Instrument, "pom"),
    "instruments.contextual_values": (Instrument, "contextual_values"),
}


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, request id)."""

    def __init__(self, extra_namespaces=()):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []
        self._patches = self._plan(extra_namespaces)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_load(self, fn):
        def load_scenario(path, *args, **kwargs):
            self.counters["load_scenario.bytes"] += os.path.getsize(path)
            with _Span(self, "scenario.load_scenario"):
                return fn(path, *args, **kwargs)

        return load_scenario

    def _wrap_evaluate(self, fn):
        """One span name per relation; counts the relations that give a
        record (not MissingIngredient), and hofmann2's sub-records."""

        def evaluate(relation_id, *args, **kwargs):
            self.counters["evaluate.attempts"] += 1
            with _Span(self, f"inequalities.evaluate.{relation_id}"):
                record = fn(relation_id, *args, **kwargs)
            self.counters["evaluate.useful"] += 1
            if relation_id == "hofmann2":
                self.counters["restricted_metrics.useful"] += len(record.sub_records)
            return record

        return evaluate

    def _plan(self, extra_namespaces) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        functions = [n for n in LAYER_FUNCTIONS if n not in METHODS and not n.startswith("inequalities.evaluate.")]
        wrappers = {}  # id(original) -> wrapper; the originals stay alive, so ids are unique
        for layer in [*functions, "inequalities.evaluate"]:
            module, func = layer.split(".")
            original = getattr(importlib.import_module(f"qmeasure.{module}"), func)
            if layer == "inequalities.evaluate":
                wrappers[id(original)] = self._wrap_evaluate(original)
            elif layer == "scenario.load_scenario":
                wrappers[id(original)] = self._wrap_load(original)
            else:
                wrappers[id(original)] = self._wrap(layer, original)
        namespaces = [m for n, m in sys.modules.items() if n == "qmeasure" or n.startswith("qmeasure.")]
        patches = []
        for ns in [*namespaces, *extra_namespaces]:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    patches.append((ns, attr, value, wrappers[id(value)]))
        for layer, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            patches.append((cls, attr, original, self._wrap(layer, original)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Trace the measured layers inside the block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return dict(totals)

    def call_counts(self) -> dict[str, int]:
        return dict(Counter(s[0] for s in self.spans))

    def covered_by_request(self) -> dict[int, float]:
        """Time covered by each request's top-level spans, in seconds."""
        covered: Counter = Counter()
        for _, start, end, parent, rid in self.spans:
            if parent is None:
                covered[rid] += end - start
        return dict(covered)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps([name, start, end, parent, rid]) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.request_id])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False

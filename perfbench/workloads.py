"""The benchmark's workloads: seeded inputs, requests and output checks.

Every workload is a closed loop: one caller in one process sends the next
input when the previous one has returned.  An input is a pass over the
workload's request classes, so every pass does about the same work.  Inputs
come from the workload seed alone; the library receives only the generated
inputs.

A request returns a summary made of JSON types.  Summaries are what the
checks compare: with the same request made again and with the same request
made under the tracer (both bit for bit), and with the stored reference
outputs for the default seed (numbers to ``REFERENCE_TOL``, integers and
strings exactly).

Each workload names a light and a heavy request class.  Their 90th
percentiles are gated separately from the whole pass, so that a gain on one
class cannot hide a loss on the other.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from qmeasure import analyze, load_scenario, random_sweep, sample, save_scenario, weak_sweep
from qmeasure.errors import NotExpressible
from qmeasure.harness import report_to_dict
from qmeasure.inequalities import RELATION_IDS
from qmeasure.instruments import Instrument
from qmeasure.operators import expectation
from qmeasure.scenario import Scenario, random_density, random_hermitian, random_indirect_model

DEFAULT_SEED = 0
REFERENCE_TOL = 1e-12
MARGIN_FLOOR = -1e-9
N_OUTCOMES = 4
SHOTS = 10**7
LIGHT_SHOTS = 10**6
G_LIST = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
QUBIT_FILES = ("theta_pom", "qnd", "weak_probe", "cnot_projective")
D4_FILES = 16
# Scenarios per random_sweep call, for each d.
SWEEP_BATCH = {2: 4, 3: 4, 8: 2}
INPUT_COUNT = 4096  # more than any run uses; the loop cycles if it gets there


def close(a, b, tol: float = REFERENCE_TOL) -> bool:
    """Structural equality; floats within ``tol`` relative to max(1, |b|)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(close(a[k], b[k], tol) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= tol * max(1.0, abs(b))
    return type(a) is type(b) and a == b


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _report_text(s) -> str:
    """One analyze request after parsing: analysis, dict form and JSON text."""
    return json.dumps(report_to_dict(analyze(s)), indent=2, sort_keys=True)


def _report_problems(s, doc: dict) -> list[str]:
    problems = []
    if s.observable_B is not None and s.values_mB is not None and set(doc["inequalities"]) != set(RELATION_IDS):
        problems.append(f"relations present: {sorted(doc['inequalities'])}")
    for rid, rec in doc["inequalities"].items():
        if not rec["margin"] >= MARGIN_FLOOR:
            problems.append(f"{rid} margin {rec['margin']!r}")
    return problems


class Workload:
    """Base class.  ``inputs`` is the pass sequence for the run's seed.

    ``units_per_input`` is the number of request units in a pass, by which
    per-layer metrics are divided; ``requests_per_input`` is the number of
    library entry-point calls, which ``attempted`` and ``failed`` count.
    ``light_class`` and ``heavy_class`` are keys of ``class_times``; each
    occurs at least once in every pass.
    """

    name: str
    unit: str
    light_class: str
    heavy_class: str
    units_per_input = 1
    requests_per_input = 1

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.class_times: dict[str, list[float]] = defaultdict(list)
        self.inputs = self.make_inputs(seed)

    def _timed(self, cls: str, fn, *args):
        """Call ``fn`` and add its duration to its request class."""
        t0 = time.perf_counter()
        out = fn(*args)
        self.class_times[cls].append(time.perf_counter() - t0)
        return out

    def class_metrics(self) -> dict[str, tuple[float, int, str]]:
        """Per-class figures from ``class_times``: name -> (value, samples, unit)."""
        return {}

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def warm_up(self) -> None:
        """The set-up request."""
        self.run(self.inputs[0])

    def comparable(self, summary):
        return summary

    def output_bytes(self, summary) -> int:
        """Bytes of serialized report text in a summary."""
        return 0

    def check(self, inp, summary) -> list[str]:
        return []

    def describe_inputs(self) -> list:
        return self.inputs

    def reference_inputs(self) -> list:
        return self.make_inputs(DEFAULT_SEED)[:2]


def _ms_quantiles(times: list[float]) -> tuple[float, float]:
    ms = [t * 1000 for t in times]
    return statistics.median(ms), (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0])


class EnsembleSweep(Workload):
    """A pass is one random_sweep call at each of d = 2, 3 and 8."""

    name = "ensemble-sweep"
    unit = "scenario"
    units_per_input = sum(SWEEP_BATCH.values())
    requests_per_input = len(SWEEP_BATCH)
    light_class, heavy_class = "d2", "d8"

    def make_inputs(self, seed):
        rng = _rng(self.name, seed)
        return [tuple(rng.getrandbits(63) for _ in SWEEP_BATCH) for _ in range(INPUT_COUNT)]

    def run(self, seeds):
        out = {}
        for (d, batch), seed in zip(SWEEP_BATCH.items(), seeds):
            r = self._timed(f"d{d}", random_sweep, [d], batch, seed, N_OUTCOMES)
            out[f"d{d}"] = {"records": len(r.records), "min_margins": r.min_margins}
        return out

    def class_metrics(self):
        return {
            f"sweep_d{d}_scenarios_per_s": (batch * len(t) / sum(t), batch * len(t), "1/s")
            for d, batch in SWEEP_BATCH.items()
            if (t := self.class_times[f"d{d}"])
        }

    def check(self, seeds, summary):
        problems = []
        for d, batch in SWEEP_BATCH.items():
            v = summary[f"d{d}"]
            if set(v["min_margins"]) != set(RELATION_IDS):
                problems.append(f"d={d}: relations present: {sorted(v['min_margins'])}")
            if v["records"] != len(RELATION_IDS) * batch:
                problems.append(f"d={d}: {v['records']} records")
            problems += [f"d={d}: {rid} margin {m!r}" for rid, m in v["min_margins"].items() if not m >= MARGIN_FLOOR]
        return problems


def _load_bundled(root: Path, files) -> dict:
    return {f: load_scenario(root / "scenarios" / f"{f}.json") for f in files}


def _rows(rows) -> list:
    return [[r.g, r.error_dist_maxnorm, r.disturbance_dist_maxnorm] for r in rows]


WEAK_FILES = ("weak_probe", "qnd")


class ScenarioFiles(Workload):
    """A pass is the four bundled qubit files, one generated d = 4 file and
    one weak-sweep request, in a seeded order.

    Analyze requests are the ``qmeasure analyze`` path: load_scenario,
    analyze, report_to_dict and JSON encoding.  The d = 4 files have an
    indirect (system-detector) apparatus and are written to disk during
    set-up, so that parsing stays in the request.  A weak-sweep request runs
    weak_sweep over the demo strengths on both weak_probe.json and qnd.json,
    loaded during set-up.
    """

    name = "scenario-files"
    unit = "request"
    units_per_input = len(QUBIT_FILES) + 2
    requests_per_input = units_per_input
    light_class, heavy_class = "qubit", "d4"

    def __init__(self, root, seed, workdir):
        self._first: dict[str, str] = {}
        super().__init__(root, seed, workdir)
        self.weak = _load_bundled(root, WEAK_FILES)

    def make_inputs(self, seed):
        d4 = []
        for i in range(D4_FILES):
            path = self.workdir / f"d4-seed{seed}-{i}.json"
            if not path.exists():
                save_scenario(generate_d4_indirect(seed, i), path)
            d4.append(path)
        rng = _rng(self.name, seed)
        rng.shuffle(d4)
        passes = []
        for k in range(INPUT_COUNT):
            items = [("qubit", self.root / "scenarios" / f"{f}.json") for f in QUBIT_FILES]
            items += [("d4", d4[k % D4_FILES]), ("weak", tuple(rng.sample(WEAK_FILES, 2)))]
            rng.shuffle(items)
            passes.append(tuple(items))
        return passes

    def _analyze(self, path) -> str:
        return _report_text(load_scenario(path))

    def _weak_sweep(self, order) -> dict:
        out = {}
        for f in order:
            sweep = weak_sweep(self.weak[f], G_LIST)
            out[f] = {"rows": _rows(sweep.rows), "error_slope": sweep.error_slope, "disturbance_slope": sweep.disturbance_slope}
        return out

    def run(self, items):
        out = {}
        for kind, arg in items:
            if kind == "weak":
                out["weak"] = self._timed(kind, self._weak_sweep, arg)
            else:
                out[arg.name] = self._timed(kind, self._analyze, arg)
        return out

    def comparable(self, summary):
        return {k: v if k == "weak" else json.loads(v) for k, v in summary.items()}

    def output_bytes(self, summary):
        return sum(len(v) for k, v in summary.items() if k != "weak")

    def class_metrics(self):
        out = {}
        for kind, name in (("qubit", "analyze_qubit"), ("d4", "analyze_d4_indirect")):
            if self.class_times[kind]:
                p50, p90 = _ms_quantiles(self.class_times[kind])
                out[f"{name}_ms_p50"] = (p50, len(self.class_times[kind]), "ms")
                out[f"{name}_ms_p90"] = (p90, len(self.class_times[kind]), "ms")
        if self.class_times["weak"]:
            out["weak_sweep_ms_p50"] = (_ms_quantiles(self.class_times["weak"])[0], len(self.class_times["weak"]), "ms")
        return out

    def check(self, items, summary):
        problems = []
        for kind, arg in items:
            if kind == "weak":
                problems += [
                    f"weak_sweep {f}: rows {v['rows']!r}"
                    for f, v in summary["weak"].items()
                    if len(v["rows"]) != len(G_LIST) or not all(r[1] >= 0.0 for r in v["rows"])
                ]
                continue
            text = summary[arg.name]
            first = self._first.get(arg.name)
            if first is None:
                self._first[arg.name] = text
                problems += [f"{arg.name}: {p}" for p in _report_problems(load_scenario(arg), json.loads(text))]
            elif text != first:
                problems.append(f"{arg.name}: report differs from the first request on the same file")
        return problems

    def describe_inputs(self):
        def name(kind, arg):
            return hashlib.sha256(arg.read_bytes()).hexdigest() if kind == "d4" else str(arg if kind == "weak" else arg.name)

        return [[(kind, name(kind, arg)) for kind, arg in items] for items in self.inputs[: 2 * D4_FILES]]

    def reference_inputs(self):
        return self.make_inputs(DEFAULT_SEED)[:1]


def generate_d4_indirect(seed: int, index: int) -> Scenario:
    """Random d = 4 state and targets measured through a random 16-dimensional
    system-detector coupling: 4 outcomes of 4 Kraus operators each."""
    dim = 4
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
    state = random_density(dim, rng)
    obs_a = random_hermitian(dim, rng)
    obs_b = random_hermitian(dim, rng)
    model = random_indirect_model(dim, rng)
    inst = Instrument.from_indirect(model)

    def assignment(target):
        try:
            return inst.contextual_values(target)
        except NotExpressible:
            return {label: float(i) for i, label in enumerate(inst.labels)}

    return Scenario(
        dimension=dim,
        state=state,
        observable_A=obs_a,
        observable_B=obs_b,
        apparatus=inst,
        indirect=model,
        values_m=assignment(obs_a),
        values_mB=assignment(obs_b),
        meta={"name": f"bench-d4-indirect-{seed}-{index}"},
    )


def _sample_summary(run) -> dict:
    return {
        "seed": run.seed,
        "counts": run.counts,
        "pair_counts": None if run.pair_counts is None else {"|".join(k): n for k, n in run.pair_counts.items()},
        "mean": run.empirical_mean,
        "mean_se": run.empirical_mean_se,
        "moments": None if run.empirical_moments is None else {str(n): v for n, v in run.empirical_moments.items()},
        "eps_sq": run.empirical_eps_sq,
        "eps_sq_se": run.empirical_eps_sq_se,
    }


class MonteCarlo(Workload):
    """A pass is one 10^7-shot call (heavy) and one 10^6-shot call (light)
    on the same file.  Passes alternate weak_probe.json, which has no
    observable_B and takes the per-outcome path, with qnd.json, which takes
    the outcome-posterior pair path."""

    name = "monte-carlo"
    unit = "pass"
    requests_per_input = 2
    light_class, heavy_class = "light", "heavy"
    bytes_per_shot = 0.0

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.scenarios = _load_bundled(root, WEAK_FILES)
        self.exact_mean = {
            f: expectation(s.apparatus.effective_observable(s.values_m), s.state) for f, s in self.scenarios.items()
        }

    def make_inputs(self, seed):
        rng = _rng(self.name, seed)
        return [(WEAK_FILES[i % 2], rng.getrandbits(63), rng.getrandbits(63)) for i in range(INPUT_COUNT)]

    def run(self, inp):
        f, heavy_seed, light_seed = inp
        s = self.scenarios[f]
        return {
            "heavy": _sample_summary(self._timed("heavy", sample, s, SHOTS, heavy_seed)),
            "light": _sample_summary(self._timed("light", sample, s, LIGHT_SHOTS, light_seed)),
        }

    def warm_up(self) -> None:
        """The set-up pass; also measures peak-RSS growth per shot (both
        paths grow by the same amount)."""
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.run(self.inputs[0])
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.bytes_per_shot = (after - before) * 1024 / SHOTS

    def class_metrics(self):
        t = self.class_times["heavy"] + self.class_times["light"]
        shots = SHOTS * len(self.class_times["heavy"]) + LIGHT_SHOTS * len(self.class_times["light"])
        return {"sample_mshots_per_s": (shots / 1e6 / sum(t), len(t), "Mshot/s")} if t else {}

    def check(self, inp, summary):
        f = inp[0]
        problems = []
        for size, shots in (("heavy", SHOTS), ("light", LIGHT_SHOTS)):
            v = summary[size]
            if sum(v["counts"].values()) != shots:
                problems.append(f"{f} {size}: counts sum to {sum(v['counts'].values())}")
            if v["pair_counts"] is not None:
                for label, n in v["counts"].items():
                    if sum(m for k, m in v["pair_counts"].items() if k.split("|")[0] == label) != n:
                        problems.append(f"{f} {size}: pair counts of {label!r} do not add up")
            if not abs(v["mean"] - self.exact_mean[f]) <= 6 * v["mean_se"] + 1e-9:
                problems.append(f"{f} {size}: empirical mean {v['mean']!r} vs exact {self.exact_mean[f]!r}")
        return problems


WORKLOADS = {w.name: w for w in (EnsembleSweep, ScenarioFiles, MonteCarlo)}


def reference_path() -> Path:
    return Path(__file__).resolve().parent / "reference.json"


def reference_outputs(wl: Workload) -> list:
    return [wl.comparable(wl.run(inp)) for inp in wl.reference_inputs()]


def check_reference(wl: Workload, stored: dict) -> list[str]:
    """Compare the outputs of the default-seed inputs with the stored ones."""
    expected = stored[wl.name]
    got = reference_outputs(wl)
    return [
        f"reference input {i}: output differs from {reference_path().name}"
        for i, (g, e) in enumerate(itertools.zip_longest(got, expected))
        if not close(g, e)
    ]

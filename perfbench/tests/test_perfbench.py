"""Tests of the benchmark itself; they are not part of the library's suite.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

run.bootstrap()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def workdir():
    path = run.OUT_DIR / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path)


def _metric_names(kind):
    return [m["name"] for m in SPEC[kind]]


def test_workloads_match_spec():
    assert list(run.WORKLOAD_NAMES) == NAMES
    assert list(workloads.WORKLOADS) == NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_every_workload(name, trace, workdir, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "MIN_P90_SAMPLES", 1)
    args = run.parse_args(["--workload", name, "--seed", "5", "--seconds", "0.05", "--trace", str(trace)])
    result = run.measure(args, workdir, f"test-{name}-{trace}-{os.getpid()}")
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == _metric_names(kind)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "units_per_s" in result["extra_metrics"]
    assert result["provenance"]["seed"] == 5
    assert result["provenance"]["blas_threads"] in (1, None)


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_last_line_matches_spec(trace):
    # scenario-files has the shortest pass, so the untraced run soon has
    # the passes its 90th percentiles need.
    cmd = [sys.executable, "perfbench/run.py", "--workload", "scenario-files", "--seed", "3"]
    proc = subprocess.run(cmd + ["--seconds", "1", "--trace", str(trace)], cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(last["metrics"]) == _metric_names(kind)
    assert [m["unit"] for m in last["metrics"].values()] == [m["unit"] for m in SPEC[kind]]


@pytest.mark.parametrize("name", NAMES)
def test_inputs_come_from_the_seed(name, workdir):
    factory = workloads.WORKLOADS[name]
    (workdir / "a").mkdir()
    (workdir / "b").mkdir()
    first = factory(run.ROOT, 11, workdir / "a").describe_inputs()
    again = factory(run.ROOT, 11, workdir / "b").describe_inputs()
    other = factory(run.ROOT, 12, workdir / "b").describe_inputs()
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", NAMES)
def test_traced_call_agrees_with_untraced_call(name, workdir):
    wl = workloads.WORKLOADS[name](run.ROOT, 13, workdir)
    tr = tracing.Tracer(extra_namespaces=[workloads])
    inp = wl.inputs[0]
    untraced = wl.run(inp)
    with tr.installed():
        traced = wl.run(inp)
    assert workloads.close(traced, untraced, tol=0.0)
    assert tr.spans and all(end >= start for _, start, end, _, _ in tr.spans)
    assert {s[0] for s in tr.spans} <= set(tracing.LAYER_FUNCTIONS)


def test_tracer_restores_the_library(workdir):
    import qmeasure.harness
    import qmeasure.inequalities
    from qmeasure.scenario import Scenario

    before = (workloads.random_sweep, qmeasure.inequalities.evaluate, qmeasure.harness.spectral_decompose, Scenario.digest)
    tr = tracing.Tracer(extra_namespaces=[workloads])
    with tr.installed():
        assert workloads.random_sweep is not before[0]
        assert qmeasure.harness.spectral_decompose is not before[2]
        workloads.random_sweep([2], 1, 7)
    after = (workloads.random_sweep, qmeasure.inequalities.evaluate, qmeasure.harness.spectral_decompose, Scenario.digest)
    assert after == before
    calls = tr.call_counts()
    assert calls["inequalities.random_sweep"] == 1
    assert calls["scenario.digest"] >= len(workloads.RELATION_IDS)
    # every relation is attempted once; a d = 2 scenario lacks none of them
    assert tr.counters["evaluate.attempts"] == tr.counters["evaluate.useful"] == len(workloads.RELATION_IDS)
    assert 0 < tr.counters["restricted_metrics.useful"] <= calls["retrodiction.restricted_metrics"]


def test_reference_mismatch_is_detected(workdir):
    wl = workloads.WORKLOADS["ensemble-sweep"](run.ROOT, 1, workdir)
    stored = json.loads(workloads.reference_path().read_text())
    assert workloads.check_reference(wl, stored) == []
    stored["ensemble-sweep"][0]["d2"]["min_margins"]["ozawa"] += 1e-9
    assert len(workloads.check_reference(wl, stored)) == 1


def test_close():
    assert workloads.close({"a": [1.0, 2]}, {"a": [1.0 + 1e-13, 2]})
    assert not workloads.close(1.0, 1.0 + 1e-9)
    assert not workloads.close(1.0, 1.0 + 1e-13, tol=0.0)
    assert not workloads.close(1, 1.0)
    assert not workloads.close({"a": 1}, {"a": 1, "b": 2})
    assert workloads.close(math.nan, math.nan)


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0], ["c", 5.0, 6.0, 0, 0], ["a", 20.0, 21.0, None, 1]]
    assert tr.self_times() == {"a": 7.0, "b": 3.0, "c": 1.0}
    assert tr.call_counts() == {"a": 2, "b": 1, "c": 1}
    assert tr.covered_by_request() == {0: 10.0, 1: 1.0}


def test_fails_without_the_library(workdir):
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(PERFBENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "ensemble-sweep", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

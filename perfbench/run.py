"""qmeasure benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports ``qmeasure`` from the
checkout's ``src`` and reads the bundled ``scenarios``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``.  A full
result, with provenance and the sample count behind every metric, is
written under ``perfbench/out``.  The exit code is 0 only when every output
check passed.

Load shape: a closed loop, one caller in one process, BLAS pinned to one
thread (at d <= 16 threaded BLAS only adds scheduler noise).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 10
PROBE_TIMEOUT_S = 120
# A gated 90th percentile needs at least ten samples beyond it.  An untraced
# run goes on past --seconds until it has this many passes (every gated
# request class occurs in every pass), but not past MAX_LOOP_S.
MIN_P90_SAMPLES = 100
MAX_LOOP_S = 120.0
WORKLOAD_NAMES = ("ensemble-sweep", "scenario-files", "monte-carlo")


class SetupError(Exception):
    """The checkout cannot be benchmarked (sources or inputs missing)."""


def bootstrap() -> None:
    """Pin BLAS to one thread and import qmeasure from this checkout's src.

    Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "qmeasure" / "__init__.py").is_file():
        raise SetupError(f"no qmeasure sources under {src}")
    if not (ROOT / "scenarios").is_dir():
        raise SetupError(f"no bundled scenarios under {ROOT / 'scenarios'}")
    sys.path.insert(0, str(src))
    import qmeasure

    if Path(qmeasure.__file__).resolve().parent != (src / "qmeasure").resolve():
        raise SetupError(f"imported qmeasure from {qmeasure.__file__}, not from {src}")


def metric_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Provenance


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Measurement


def setup(name: str, seed: int, workdir: Path):
    """Inputs for the seed, then one warm-up request."""
    import workloads

    wl = workloads.WORKLOADS[name](ROOT, seed, workdir)
    wl.warm_up()
    return wl


def probe_setup_times(args) -> list[float]:
    """Wall time of fresh processes that set up and exit: interpreter start,
    import, input loading or generation, and the warm-up request."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()}")
    return times


@dataclass
class Loop:
    times: list[float] = field(default_factory=list)  # untraced seconds per pass
    walls: list[float] = field(default_factory=list)  # traced seconds per pass
    first_output: object = None  # only the first is kept, so memory does not grow with the run
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, requests: int, problems: list[str]) -> None:
        self.failed += requests
        self.problems += problems


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def timed_loop(wl, seconds: float, tr=None) -> Loop:
    """Closed loop over the workload's inputs for ``seconds``; each output
    is checked outside the timed region.

    With a tracer, every input is also sent with the tracer installed.
    Which of the two goes first alternates, so drift and warm caches fall on
    both alike, and the traced output must equal the untraced one.
    """
    import workloads

    loop = Loop()
    requests = wl.requests_per_input * (1 if tr is None else 2)
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tr is not None or len(loop.times) >= MIN_P90_SAMPLES or elapsed >= MAX_LOOP_S):
            break
        inp = wl.inputs[i % len(wl.inputs)]
        loop.attempted += requests
        try:
            if tr is None:
                summary, dt = _timed(wl.run, inp)
            else:
                tr.request_id = i
                if i % 2:
                    traced, wall = _traced(tr, wl, inp)
                    summary, dt = _timed(wl.run, inp)
                else:
                    summary, dt = _timed(wl.run, inp)
                    traced, wall = _traced(tr, wl, inp)
        except Exception:  # a failing request is counted and reported, not fatal
            loop.fail(requests, [f"input {i}: {traceback.format_exc(limit=4)}"])
            i += 1
            continue
        loop.times.append(dt)
        if i == 0:
            loop.first_output = summary
        problems = wl.check(inp, summary)
        if tr is not None:
            loop.walls.append(wall)
            tr.counters["report_to_dict.bytes"] += wl.output_bytes(traced)
            if not workloads.close(traced, summary, tol=0.0):
                problems.append("the traced request differs from the untraced one")
        if problems:
            loop.fail(requests, [f"input {i}: {p}" for p in problems])
        i += 1
    return loop


def _traced(tr, wl, inp):
    with tr.installed():
        return _timed(wl.run, inp)


def final_checks(wl, loop: Loop) -> None:
    """The first input again (same seed, same output, bit for bit), then the
    default-seed inputs against the stored reference outputs."""
    import workloads

    with open(workloads.reference_path(), encoding="utf-8") as fh:
        stored = json.load(fh)
    n_ref = len(wl.reference_inputs())
    loop.attempted += (1 + n_ref) * wl.requests_per_input
    try:
        again = wl.run(wl.inputs[0])
        if loop.first_output is None or not workloads.close(again, loop.first_output, tol=0.0):
            loop.fail(wl.requests_per_input, ["repeating input 0 gave a different output"])
        problems = workloads.check_reference(wl, stored)
    except Exception:  # counted and reported, not fatal
        loop.fail((1 + n_ref) * wl.requests_per_input, [f"final checks: {traceback.format_exc(limit=4)}"])
        return
    if problems:
        loop.fail(len(problems) * wl.requests_per_input, problems)


def _quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(wl, loop: Loop, setup_times: list[float], peak_rss_kb: int) -> dict:
    """The gated metrics: name -> (value, samples)."""
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (peak_rss_kb / 1024, 1),
    }
    for name, times in (
        ("pass_ms_p90", loop.times),
        ("light_ms_p90", wl.class_times[wl.light_class]),
        ("heavy_ms_p90", wl.class_times[wl.heavy_class]),
    ):
        if len(times) < MIN_P90_SAMPLES:
            loop.fail(1, [f"{name}: {len(times)} samples, fewer than {MIN_P90_SAMPLES}"])
        values[name] = (_quantile90([t * 1000 for t in times]), len(times))
    return values


def extra_metrics(wl, loop: Loop) -> dict:
    """Figures reported but not gated: name -> (value, samples, unit).

    Means and medians move with the share of a run the host spends in a
    slow phase (a busy sibling hyperthread halves the speed for seconds at
    a time), so their run-to-run spread exceeds any usable bound.
    """
    units = len(loop.times) * wl.units_per_input
    out = {
        "units_per_s": (units / sum(loop.times), units, "1/s"),
        "pass_ms_p50": (statistics.median(t * 1000 for t in loop.times), len(loop.times), "ms"),
    }
    out.update(wl.class_metrics())
    return out


def per_layer(wl, tr, loop: Loop) -> dict:
    import tracing

    units = len(loop.walls) * wl.units_per_input
    calls, self_s = tr.call_counts(), tr.self_times()
    values = {}
    for fn in tracing.LAYER_FUNCTIONS:
        values[f"{fn}.calls"] = (calls.get(fn, 0) / units, units)
        values[f"{fn}.self_ms"] = (self_s.get(fn, 0.0) * 1000 / units, units)
    c = tr.counters
    values["scenario.load_scenario.bytes"] = (c["load_scenario.bytes"] / units, units)
    values["harness.report_to_dict.bytes"] = (c["report_to_dict.bytes"] / units, units)
    values["harness.sample.bytes_per_shot"] = (getattr(wl, "bytes_per_shot", 0.0), 1)
    attempts = calls.get("retrodiction.restricted_metrics", 0)  # called by hofmann2 only
    values["retrodiction.restricted_metrics.useful_ratio"] = (
        c["restricted_metrics.useful"] / attempts if attempts else 0.0,
        attempts,
    )
    values["inequalities.evaluate.useful_ratio"] = (
        c["evaluate.useful"] / c["evaluate.attempts"] if c["evaluate.attempts"] else 0.0,
        c["evaluate.attempts"],
    )
    covered = sum(tr.covered_by_request().values())
    values["unexplained_ms"] = ((sum(loop.walls) - covered) * 1000 / units, units)
    values["trace_overhead_frac"] = (sum(loop.walls) / sum(loop.times) - 1, len(loop.walls))
    return values


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args, workdir: Path, stem: str) -> dict:
    """Run one workload; returns the full result document."""
    setup_times = [] if args.trace else probe_setup_times(args)
    wl = setup(args.workload, args.seed, workdir)
    spec = metric_spec()
    extras = {}
    if args.trace:
        import tracing
        import workloads

        tr = tracing.Tracer(extra_namespaces=[workloads])
        loop = timed_loop(wl, args.seconds, tr)
        values = per_layer(wl, tr, loop) if loop.walls else {}
        wanted = spec["per_layer"]
    else:
        wl.class_times.clear()
        loop = timed_loop(wl, args.seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = end_to_end(wl, loop, setup_times, peak_rss_kb) if loop.times else {}
        extras = extra_metrics(wl, loop) if loop.times else {}
        wanted = spec["end_to_end"]
    if loop.times:
        final_checks(wl, loop)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        loop.fail(1, [f"no value for metrics {missing}"])
    result = {
        "provenance": provenance(args),
        "unit": wl.unit,
        "units_per_input": wl.units_per_input,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failed_frac": loop.failed / loop.attempted if loop.attempted else 1.0,
        "problems": loop.problems,
        "metrics": {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"], "samples": values[m["name"]][1]}
            for m in wanted
            if m["name"] in values
        },
        "extra_metrics": {name: {"value": v, "unit": unit, "samples": n} for name, (v, n, unit) in extras.items()},
    }
    if args.trace:
        result["spans"] = len(tr.spans)
        tr.write(OUT_DIR / f"{stem}.spans.jsonl.gz")
    return result


def _stem(args) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"


def report(result: dict) -> None:
    p = result["provenance"]
    print(
        f"{p['workload']} seed={p['seed']} trace={p['trace']}: {result['attempted']} requests attempted, "
        f"{result['failed']} failed (failed_frac {result['failed_frac']:.4g}); unit = {result['unit']}"
    )
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']:8s} n={m['samples']}")
    for name, m in result["extra_metrics"].items():
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']:8s} n={m['samples']}  (not gated)")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = _stem(args)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            return 0
        result = measure(args, workdir, stem)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir)
    path = OUT_DIR / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    report(result)
    print(f"full result: {path.relative_to(ROOT)}")
    correct = result["failed"] == 0
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

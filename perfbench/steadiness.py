"""Steadiness report: two sets of runs of the same code, metric by metric.

    python3 perfbench/steadiness.py

Runs the benchmark command of BENCHMARK.json ten times per workload in
each of two sets, with a different seed every run, interleaving the
workloads so that drift of the machine falls on all of them.  For every
end-to-end metric on every workload it prints each set's median and
quartiles, the spread (interquartile distance over the median) and the
drift of the second median from the first in the metric's worse direction,
each against the metric's bound.  A second table gives the spread of the
figures that are reported but not gated, read from each run's full result
file under perfbench/out.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10
RUN_TIMEOUT_S = 180
RESULT_PREFIX = "full result: "


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    full = next(line[len(RESULT_PREFIX):] for line in lines if line.startswith(RESULT_PREFIX))
    with open(ROOT / full, encoding="utf-8") as fh:
        result["extra_metrics"] = json.load(fh)["extra_metrics"]
    return result


def collect(spec: dict) -> list[dict]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for set_no in (1, 2):
        for r in range(RUNS):
            seed = set_no * 100 + r
            for w in workloads:
                result = run_once(spec, w, seed)
                rows.append({"set": set_no, "workload": w, "seed": seed, **result})
                print(f"set {set_no} run {r + 1}/{RUNS} {w} seed {seed} done", file=sys.stderr)
    return rows


def _values(rows, workload, set_no, kind, name) -> list[float]:
    return [r[kind][name]["value"] for r in rows if r["workload"] == workload and r["set"] == set_no]


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def render(spec: dict, rows: list[dict]) -> str:
    out = [
        "| workload | metric | bound | set | median | q1 | q3 | spread | spread/bound | drift | drift/bound |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    failures = []
    workloads = list(dict.fromkeys(r["workload"] for r in rows))
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = {}
            for set_no in (1, 2):
                values = _values(rows, w, set_no, "metrics", name)
                q1, med, q3, spread = _spread(values)
                medians[set_no] = med
                drift = " | "
                if set_no == 2:
                    worse = (med - medians[1]) / medians[1] * (1 if m["better"] == "lower" else -1)
                    drift = f"{worse:+.4f} | {worse / bound:+.2f}"
                    if worse > bound:
                        failures.append(f"{w} {name}: drift {worse:+.4f} > bound {bound}")
                if spread > bound:
                    failures.append(f"{w} {name} set {set_no}: spread {spread:.4f} > bound {bound}")
                out.append(
                    f"| {w} | {name} | {bound} | {set_no} (n={len(values)}) | {med:.6g} | {q1:.6g} | {q3:.6g} "
                    f"| {spread:.4f} | {spread / bound:.2f} | {drift} |"
                )
    out += [
        "",
        "Spread: (q3 - q1) / median, Python's statistics.quantiles(values, n=4). Drift: set 2's median",
        "against set 1's, positive when worse.",
        "",
        "Result: " + ("every spread and drift within its bound." if not failures else "; ".join(failures)),
        "",
        "Reported but not gated:",
        "",
        "| workload | figure | unit | set 1 median | set 2 median | spread set 1 | spread set 2 |",
        "|---|---|---|---|---|---|---|",
    ]
    for w in workloads:
        first = next(r for r in rows if r["workload"] == w)
        for name, m in first["extra_metrics"].items():
            cells = [_spread(_values(rows, w, set_no, "extra_metrics", name)) for set_no in (1, 2)]
            out.append(
                f"| {w} | {name} | {m['unit']} | {cells[0][1]:.6g} | {cells[1][1]:.6g} | {cells[0][3]:.4f} | {cells[1][3]:.4f} |"
            )
    return "\n".join(out)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    print(render(spec, collect(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change pairs of the benchmark, summarised in a BENCH_*.json file.

    python3 tools/pairs.py --base REV --name NAME --workload W[:PAIRS] ... \\
        [--claim W:METRIC] [--note TEXT]

The parent side runs ``perfbench/run.py`` from an export of ``--base`` (``git
archive``, into a temporary directory that is removed afterwards); the change side
runs it from this checkout, working tree included.  Pair i (from 0) of a workload
uses seed 1 + i on both sides, the parent first in even pairs and the change first
in odd ones, one run at a time, each with ``--trace 0`` and the run length of
BENCHMARK.json.  A workload given as ``W:PAIRS`` runs that many pairs, otherwise ten.

The file ``BENCH_<UTC date>-<name>.json`` at the root of the checkout records per
workload every run (seed, order, exit code, correctness, attempted and failed
requests, the end-to-end metrics and the ungated per-class figures of its full
result), each side's median and quartiles (inclusive method) of every end-to-end
metric, and per metric the pairs the change won (by the metric's direction in
BENCHMARK.json; ties count for neither side) and its no-regression status against
the metric's bound in BENCHMARK.json (``no_regression``), which weighs both sides'
spreads.  With ``--claim``, it
prints and records the benchmark rule for a gain: every run correct, the change
fails no more requests than the parent, the change wins at least nine tenths of the
pairs, and its median beats the parent's by more than the parent's interquartile
distance.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_PAIRS = 10


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; returns the full commit id."""
    rev_parse = ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"]
    commit = subprocess.run(rev_parse, cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from ``tree``: its last output line and its full result's ungated figures."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    run = {"seed": seed, "exit": proc.returncode, "correct": False, "metrics": {}, "extra": {}}
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["error"] = (proc.stderr or proc.stdout).strip()[-2000:]
        return run
    run.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"])
    run["metrics"] = {name: m["value"] for name, m in last["metrics"].items()}
    full = [line.split(":", 1)[1].strip() for line in lines if line.startswith("full result:")]
    if full:
        with open(tree / full[0], encoding="utf-8") as fh:
            result = json.load(fh)
        run["extra"] = {name: m["value"] for name, m in result.get("extra_metrics", {}).items()}
        provenance = result.get("provenance", {})
        run["provenance"] = {k: provenance.get(k) for k in ("python", "numpy", "blas", "cpus_usable", "machine")}
    return run


def summary(values: list[float]) -> dict:
    """Median and inclusive quartiles of a side's runs."""
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "runs": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def compare(parent: list[dict], change: list[dict], metrics: dict[str, str]) -> dict:
    """Per end-to-end metric (name -> "lower" or "higher"): each side's runs by pair and
    summary, and the pairs the change won, lost and tied."""
    out = {}
    for name, better in metrics.items():
        p = [run["metrics"].get(name) for run in parent]
        c = [run["metrics"].get(name) for run in change]
        pairs = [(x, y) for x, y in zip(p, c) if x is not None and y is not None]
        sign = 1 if better == "lower" else -1
        out[name] = {
            "better": better,
            "parent": {"runs_by_pair": p, **summary([x for x in p if x is not None])},
            "change": {"runs_by_pair": c, **summary([y for y in c if y is not None])},
            "wins": sum(sign * (x - y) > 0 for x, y in pairs),
            "losses": sum(sign * (x - y) < 0 for x, y in pairs),
            "pairs": len(pairs),
        }
    return out


def verdict(entry: dict, all_correct: bool, failed: dict[str, int]) -> dict:
    """The gain rule on one metric's comparison: every run correct, the change's failed
    requests (``failed["change"]``, summed over its runs) no more than the parent's, wins
    >= 9/10 of the pairs, and a median gain larger than the parent's interquartile distance."""
    p, c = entry["parent"], entry["change"]
    if None in (p["median"], p["q1"], p["q3"], c["median"]):
        return {"wins": f"{entry['wins']}/{entry['pairs']}", "met": False}
    sign = 1 if entry["better"] == "lower" else -1
    gain = sign * (p["median"] - c["median"])
    iqr = p["q3"] - p["q1"]
    wins_ok = 10 * entry["wins"] >= 9 * entry["pairs"] > 0
    return {
        "wins": f"{entry['wins']}/{entry['pairs']}",
        "median_gain": gain,
        "ratio": c["median"] / p["median"],
        "parent_iqr": iqr,
        "met": bool(all_correct and failed["change"] <= failed["parent"] and wins_ok and gain > iqr),
    }


def no_regression(entry: dict, bound: float) -> dict:
    """The no-regression rule on one metric's comparison, against the metric's ``bound`` in
    BENCHMARK.json: the change/parent median ratio, the fraction by which the change's median
    reads worse (negative when better), and each side's interquartile distance over its median.
    The status is "unresolved" when either side's spread exceeds the bound, unless every
    change run beats every parent run; otherwise "worse" when the change reads worse by more
    than the bound; otherwise "held".  So a noisy side never reads "held", and a few slow runs
    on the change side read "unresolved", not "worse"."""
    p, c = entry["parent"], entry["change"]
    if None in (p["median"], p["q1"], p["q3"], c["median"], c["q1"], c["q3"]) or 0 in (p["median"], c["median"]):
        return {"bound": bound, "status": "unresolved"}
    sign = 1 if entry["better"] == "lower" else -1
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    spread, change_spread = ((side["q3"] - side["q1"]) / side["median"] for side in (p, c))
    parent_runs = [x for x in p["runs_by_pair"] if x is not None]
    change_runs = [y for y in c["runs_by_pair"] if y is not None]
    beats_all = all(sign * (x - y) > 0 for x in parent_runs for y in change_runs)
    noisy = max(spread, change_spread) > bound and not beats_all
    return {
        "ratio": c["median"] / p["median"],
        "worse_by": worse_by,
        "parent_spread": spread,
        "change_spread": change_spread,
        "bound": bound,
        "status": "unresolved" if noisy else "worse" if worse_by > bound else "held",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--name", required=True, help="the file name's suffix, BENCH_<date>-<name>.json")
    parser.add_argument("--workload", action="append", required=True, help="W or W:PAIRS; may repeat")
    parser.add_argument("--claim", help="W:METRIC whose gain to judge")
    parser.add_argument("--note", default="", help="what the change does, recorded in the file")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    plan = []
    for item in args.workload:
        name, _, count = item.partition(":")
        plan.append((name, int(count) if count else DEFAULT_PAIRS))

    doc = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "pairs": "alternating pairs, parent first in even pairs (from 0), one run at a time; every run made is listed",
        "change": args.note,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent_tree = Path(tmp)
        doc["parent_commit"] = export(args.base, parent_tree)
        for workload, count in plan:
            sides = {"parent": [], "change": []}
            for i in range(count):
                seed = 1 + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(parent_tree if side == "parent" else ROOT, workload, seed, seconds)
                    run["first"] = order[0] == side
                    sides[side].append(run)
                    shown = {k: run["metrics"].get(k) for k in metrics}
                    tag = f"{workload} pair {i + 1}/{count} seed {seed} {side}"
                    print(f"{tag}: exit {run['exit']} {shown}", file=sys.stderr)
            compared = compare(sides["parent"], sides["change"], metrics)
            for name, entry in compared.items():
                entry["no_regression"] = no_regression(entry, bounds[name])
            doc["workloads"][workload] = {
                "all_correct": all(run["correct"] for runs in sides.values() for run in runs),
                "failed": {side: sum(run.get("failed", 0) for run in runs) for side, runs in sides.items()},
                "metrics": compared,
                "runs": sides,
            }
    first = next((run for w in doc["workloads"].values() for run in w["runs"]["change"] if "provenance" in run), None)
    doc["machine"] = (first or {}).get("provenance", {"machine": platform.machine()})
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        entry = doc["workloads"][workload]
        judged = verdict(entry["metrics"][metric], entry["all_correct"], entry["failed"])
        doc["claim"] = {"workload": workload, "metric": metric, **judged}
        print(json.dumps(doc["claim"]))
    date = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d")
    path = ROOT / f"BENCH_{date}-{args.name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            p, c, status = m["parent"]["median"], m["change"]["median"], m["no_regression"]["status"]
            print(f"{workload:15s} {name:14s} {p} -> {c}  change won {m['wins']}/{m['pairs']}  {status}")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if args.claim is None or doc["claim"]["met"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 1 validation/parse error, 2 internal-consistency
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InternalNumericError, InvalidArgument, InvalidStrength, QMeasureError
from .harness import (
    analyze,
    report_to_dict,
    sample,
    weak_sweep,
    write_distribution_csv,
    write_sweep_csv,
)
from .inequalities import heisenberg_form_violation_search, random_sweep
from .scenario import generate_random, load_scenario, save_scenario, subseed
from .tolerances import SATISFACTION_TOL


def _print_report(report):
    print(f"scenario digest: {report.scenario_digest}")
    print(f"delta_A = {report.delta_A:+.9g}")
    e = report.epsilon
    print(
        f"epsilon^2 = {e.mean_squared:.9g}  "
        f"(first={e.components[0]:.9g} second={e.components[1]:.9g} cross={e.components[2]:.9g})"
    )
    if report.epsilon_joint is not None:
        print(f"epsilon^2 (joint picture) = {report.epsilon_joint:.9g}")
    print(f"unbiased estimation: {report.unbiased}")
    if report.delta_B is not None:
        print(f"delta_B = {report.delta_B:+.9g}")
        print(f"eta^2 = {report.eta.mean_squared:.9g}")
        if report.eta_joint is not None:
            print(f"eta^2 (joint picture) = {report.eta_joint:.9g}")
        print(f"eta^2 (Lindblad form) = {report.eta_lindblad:.9g}")
        print(f"QND with respect to B: {report.qnd}")
    print("per-outcome metrics:")
    for o in report.outcome_reports:
        line = f"  {o.label}: p={o.probability:.6g} eps_A,k={o.retrodictive_eps_A:.6g}"
        if o.interdictive_eta_B is not None:
            line += f" eps_B,k={o.retrodictive_eps_B:.6g} eta_B,k={o.interdictive_eta_B:.6g}"
        print(line)
    if report.inequalities:
        print("inequalities (lhs >= rhs, margin):")
        for rid, rec in sorted(report.inequalities.items()):
            flag = "ok" if rec.satisfied else "VIOLATED"
            print(f"  {rid:13s} {rec.lhs:12.6g} >= {rec.rhs:12.6g}  margin {rec.margin:+.3e}  {flag}")


def _at_least(args, **lowest: int) -> None:
    """Reject an integer argument below the smallest value its command accepts."""
    for name, low in lowest.items():
        value = getattr(args, name)
        if value < low:
            raise InvalidArgument(f"--{name} must be >= {low}, got {value}")


def _strengths(text: str) -> list[float]:
    """The probe strengths of ``--g``: a nonempty comma-separated list of numbers."""
    try:
        g_list = [float(x) for x in text.split(",") if x]
    except ValueError:
        raise InvalidStrength(f"--g must be comma-separated numbers, got {text!r}") from None
    if not g_list:
        raise InvalidStrength(f"--g names no probe strength: {text!r}")
    return g_list


def cmd_validate(args) -> int:
    load_scenario(args.file)
    print(f"{args.file}: valid scenario")
    return 0


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.file)
    report = analyze(scenario)
    _print_report(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
        write_distribution_csv(report.error_distribution, os.path.join(args.csv, "error_dist.csv"))
        if report.disturbance_distribution is not None:
            write_distribution_csv(
                report.disturbance_distribution, os.path.join(args.csv, "disturbance_dist.csv")
            )
    return 0


def cmd_sample(args) -> int:
    _at_least(args, shots=1, seed=0)
    scenario = load_scenario(args.file)
    run = sample(scenario, args.shots, args.seed)
    print(f"shots={run.shots} seed={run.seed}")
    for label in scenario.apparatus.labels:
        print(f"  count[{label}] = {run.counts[label]}")
    print(f"empirical mean = {run.empirical_mean:.9g} +- {run.empirical_mean_se:.3g}")
    if run.empirical_eps_sq is not None:
        print(f"empirical eps^2 = {run.empirical_eps_sq:.9g} +- {run.empirical_eps_sq_se:.3g}")
    if run.empirical_moments is not None:
        for n, value in sorted(run.empirical_moments.items()):
            print(f"empirical <A^{n}> = {value:.9g}")
    return 0


def cmd_sweep(args) -> int:
    g_list = _strengths(args.g)
    scenario = load_scenario(args.file)
    sweep = weak_sweep(scenario, g_list)
    for row in sweep.rows:
        extra = "" if row.disturbance_dist_maxnorm is None else f"  disturbance {row.disturbance_dist_maxnorm:.3e}"
        print(f"g={row.g:<6g} error-dist maxnorm {row.error_dist_maxnorm:.3e}{extra}")
    if sweep.error_slope is not None:
        print(f"log-log slope (error dist): {sweep.error_slope:.3f}")
    if sweep.disturbance_slope is not None:
        print(f"log-log slope (disturbance dist): {sweep.disturbance_slope:.3f}")
    if args.csv:
        write_sweep_csv(sweep, args.csv)
    return 0


def cmd_random(args) -> int:
    _at_least(args, dim=2, count=1, outcomes=1, seed=0)
    if args.search_heisenberg_violation:
        result = heisenberg_form_violation_search([args.dim], args.count, args.seed, args.outcomes)
        print(
            f"most negative naive-product margin: eps_A*eta_B - C_AB = {result.margin:+.6g}"
        )
        print(f"  eps_A*eta_B = {result.product:.6g}, C_AB = {result.bound:.6g}")
        print(f"  Ozawa margin for the same scenario: {result.ozawa_margin:+.6g}")
        if args.out:
            save_scenario(result.scenario, args.out)
            print(f"  scenario written to {args.out}")
        return 0
    sweep = random_sweep([args.dim], args.count, args.seed, n_outcomes=args.outcomes)
    print(f"evaluated {len(sweep.records)} relation records on {args.count} scenarios (d={args.dim})")
    violated = 0
    for rid, margin in sorted(sweep.min_margins.items()):
        ok = margin >= -SATISFACTION_TOL
        violated += not ok
        print(f"  {rid:13s} min margin {margin:+.3e}  {'ok' if ok else 'VIOLATED'}")
    if args.out:
        scenario = generate_random(args.dim, args.outcomes, subseed(args.seed, (args.dim, 0)))
        save_scenario(scenario, args.out)
        print(f"first scenario written to {args.out}")
    return 2 if violated else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="Estimation-error / disturbance analysis for finite-dimensional quantum instruments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full analysis report for a scenario")
    p.add_argument("file")
    p.add_argument("--json", help="write the JSON report to this path")
    p.add_argument("--csv", help="write distribution CSV tables into this directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sample", help="seeded Monte Carlo outcome sampling")
    p.add_argument("file")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="weak-probe convergence sweep")
    p.add_argument("file")
    p.add_argument("--g", required=True, help="comma-separated probe strengths in (0, 1]")
    p.add_argument("--csv", help="write the sweep table to this CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("random", help="random scenario sweep over all relations")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--outcomes", type=int, default=4)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write a generated scenario to this path")
    p.add_argument(
        "--search-heisenberg-violation",
        action="store_true",
        help="search for scenarios where eps_A * eta_B < C_AB",
    )
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalNumericError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except QMeasureError as exc:
        print(f"error ({getattr(exc, 'kind', type(exc).__name__)}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

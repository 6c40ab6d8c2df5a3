"""Print one SHA-256 over the numeric outputs of qmeasure.

A change that should not alter any printed number must leave this hash as it
is.  Run it on both sides of the change and compare:

    PYTHONPATH=src python tools/fingerprint.py

It covers the ``analyze`` JSON on every bundled scenario and on six random
d = 4 indirect scenarios, and on the same scenarios the single-outcome and
identity outputs that ``analyze`` does not print: ``lindblad_decomposition``
per outcome, ``three_state_cross_term``, ``unbiased_dispersion`` where the
estimation is unbiased, ``conditional_weak_value`` for every (outcome,
A-branch) pair, every field of ``restricted_metrics`` per live
outcome and posterior branch, and every cell of both weak-probe tables at
each of ``STRENGTHS``; ``random_sweep`` at d = 2 x 60, 3 x 30 and 8 x 6
(seed 777), with every record's lhs, rhs, digest and sub-records; ``sample``
at 1, 10^3 and 2 x 10^5 shots and ``weak_sweep`` on each bundled file; and
``heisenberg_form_violation_search([2], 50, 808)``.  Floats are written with
``repr``, so the hash changes when any bit of any value does.  It takes a
few seconds on one core.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np

from qmeasure import (
    Instrument,
    Scenario,
    analyze,
    heisenberg_form_violation_search,
    load_scenario,
    random_sweep,
    sample,
    weak_sweep,
)
from qmeasure import (
    conditional_weak_value,
    lindblad_decomposition,
    restricted_metrics,
    three_state_cross_term,
    unbiased_dispersion,
    weak_probe_disturbance_distribution,
    weak_probe_error_distribution,
)
from qmeasure.errors import BiasedInstrument, NotExpressible, ZeroPosterior, ZeroProbabilityConditioning
from qmeasure.harness import report_to_dict
from qmeasure.scenario import random_density, random_hermitian, random_indirect_model

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")
SHOTS = (1, 1_000, 200_000)
STRENGTHS = (0.4, 0.2, 0.1, 0.05)


def d4_indirect(index: int) -> Scenario:
    """Random d = 4 state and targets, measured through a random
    16-dimensional system-detector coupling (seed (0, index))."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((0, index))))
    state = random_density(4, rng)
    obs_a = random_hermitian(4, rng)
    obs_b = random_hermitian(4, rng)
    model = random_indirect_model(4, rng)
    inst = Instrument.from_indirect(model)

    def assignment(target):
        try:
            return inst.contextual_values(target)
        except NotExpressible:
            return {label: float(i) for i, label in enumerate(inst.labels)}

    return Scenario(
        dimension=4,
        state=state,
        observable_A=obs_a,
        observable_B=obs_b,
        apparatus=inst,
        indirect=model,
        values_m=assignment(obs_a),
        values_mB=assignment(obs_b),
        meta={"name": f"fingerprint-d4-indirect-{index}"},
    )


def _exact(x):
    """JSON-ready copy of ``x`` with every float as its repr."""
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, dict):
        return {str(k): _exact(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_exact(v) for v in x]
    return x


def _entries(m) -> list[float]:
    """Real and imaginary parts of every entry of a complex matrix, row-major."""
    return np.asarray(m, dtype=complex).view(float).ravel().tolist()


def single_outcome(s: Scenario) -> list:
    """The identity and single-outcome outputs of one scenario."""
    inst, a, b, rho = s.apparatus, s.observable_A, s.observable_B, s.state
    try:
        dispersion = unbiased_dispersion(inst, s.values_m, a, rho)
    except BiasedInstrument:
        dispersion = None
    out = [list(three_state_cross_term(inst, s.values_m, a, rho)), dispersion]
    for label, p_k in zip(inst.labels, inst.pom()):
        for pi in a.spectrum.projectors:
            try:
                out.append([label, conditional_weak_value(rho, pi, p_k)])
            except ZeroProbabilityConditioning:
                out.append([label, None])
    if b is None:
        return out
    for label in inst.labels:
        jordan_part, lind = lindblad_decomposition(inst, label, b)
        out.append([label, _entries(jordan_part), _entries(lind)])
    for label in inst.live_labels:
        for idx in range(len(b.spectrum.branches)):
            try:
                rm = restricted_metrics(inst, label, idx, a, b)
            except ZeroPosterior:
                out.append([label, idx, None])
                continue
            out.append([label, idx, [rm.p_posterior, rm.eps_A, rm.eps_B, rm.eta_B, rm.retro_mean_B]])
    return out


def weak_probe_tables(s: Scenario) -> list:
    """Every cell of the weak-probe error table, and of the disturbance table
    when the scenario has B, at each of ``STRENGTHS``."""
    out = []
    for g in STRENGTHS:
        err = weak_probe_error_distribution(s.state, s.observable_A, s.apparatus, s.values_m, g)
        out.append([g, err.table.tolist()])
        if s.observable_B is not None:
            dist = weak_probe_disturbance_distribution(s.state, s.observable_B, s.apparatus, g)
            out.append([g, dist.table.tolist()])
    return out


def outputs():
    """Yield (name, value) pairs in a fixed order."""
    files = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json")))
    bundled = [(os.path.basename(p), load_scenario(p)) for p in files]
    for name, s in bundled + [(f"d4-indirect-{i}", d4_indirect(i)) for i in range(6)]:
        yield f"analyze {name}", report_to_dict(analyze(s))
        yield f"single-outcome {name}", single_outcome(s)
        yield f"weak-probe tables {name}", weak_probe_tables(s)

    for dim, count in ((2, 60), (3, 30), (8, 6)):
        sweep = random_sweep([dim], count, 777)
        records = [
            [r.relation_id, r.lhs, r.rhs, r.inputs_digest, [[sr.outcome, sr.lhs, sr.rhs] for sr in r.sub_records]]
            for r in sweep.records
        ]
        yield f"random_sweep d={dim}", [records, sweep.min_margins]

    for name, s in bundled:
        for shots in SHOTS:
            run = sample(s, shots, 2024)
            pairs = None if run.pair_counts is None else {"|".join(k): n for k, n in run.pair_counts.items()}
            yield f"sample {name} {shots}", [
                run.counts,
                pairs,
                run.empirical_mean,
                run.empirical_mean_se,
                run.empirical_moments,
                run.empirical_eps_sq,
                run.empirical_eps_sq_se,
            ]
        sweep = weak_sweep(s, STRENGTHS)
        rows = [[r.g, r.error_dist_maxnorm, r.disturbance_dist_maxnorm] for r in sweep.rows]
        yield f"weak_sweep {name}", [rows, sweep.error_slope, sweep.disturbance_slope]

    found = heisenberg_form_violation_search([2], 50, 808)
    yield "violation_search", [found.product, found.bound, found.margin, found.ozawa_margin, found.scenario.digest()]


def main() -> None:
    digest = hashlib.sha256()
    for name, value in outputs():
        digest.update(json.dumps([name, _exact(value)], sort_keys=True).encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()

"""Print one SHA-256 over the numeric outputs of qmeasure.

A change that should not alter any printed number must leave this hash as it
is.  Run it on both sides of the change and compare:

    PYTHONPATH=src python tools/fingerprint.py

It covers the ``analyze`` JSON on every bundled scenario, on six random
d = 4 indirect scenarios and on three d = 3 scenarios that no bundled file
has (outcomes with 1, 2 and 3 Kraus operators, a null outcome, and a B with
a grouped eigenvalue), and on the same scenarios the single-outcome and
identity outputs that ``analyze`` does not print: ``lindblad_decomposition``
per outcome, ``three_state_cross_term``, ``unbiased_dispersion`` where the
estimation is unbiased, ``conditional_weak_value`` for every (outcome,
A-branch) pair, every field of ``restricted_metrics`` per live
outcome and posterior branch (read from the ``restricted`` rows of one
``outcome_kernels`` pass, which ``restricted_metrics`` returns), and every cell of both weak-probe tables at
each of ``STRENGTHS``; ``random_sweep`` at d = 2 x 60, 3 x 30, 8 x 6, 8 x 40 and
16 x 6 (seed 777), with every record's lhs, rhs, digest and sub-records; ``sample``
at 1, 3, 10^3, 2^16 + 1, 2 x 10^5, 300 001, 10^6 and 10^7 shots and ``weak_sweep``
on each bundled file; and
``heisenberg_form_violation_search([2], 50, 808)``.  Floats are written with
``repr``, so the hash changes when any bit of any value does.  A second line
extends that hash with every field of ``outcome_kernels`` (every T_k cell,
posterior weight and restricted field included) on the d = 8
``generate_window``s of 2, 5 and 32 members (seed 777).  The shot
counts on either side of 2^16 (one chunk of the sampled stream) and those
that are no multiple of it test where ``sample`` cuts its stream.  It takes
a few seconds, and ``tests/test_fingerprint.py`` pins both lines.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np

from qmeasure import (
    HermitianOperator,
    Instrument,
    KrausSet,
    Scenario,
    analyze,
    heisenberg_form_violation_search,
    load_scenario,
    outcome_kernels,
    random_sweep,
    sample,
    weak_sweep,
)
from qmeasure import (
    conditional_weak_value,
    lindblad_decomposition,
    three_state_cross_term,
    unbiased_dispersion,
    weak_probe_disturbance_distribution,
    weak_probe_error_distribution,
)
from qmeasure.errors import BiasedInstrument, NotExpressible, ZeroProbabilityConditioning
from qmeasure.harness import report_to_dict
from qmeasure.scenario import (
    generate_window,
    random_density,
    random_hermitian,
    random_indirect_model,
    random_unitary,
    subseed,
)

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")
KERNEL_WINDOWS = (2, 5, 32)
SHOTS = (1, 3, 1_000, 2**16 + 1, 200_000, 300_001, 10**6, 10**7)
STRENGTHS = (0.4, 0.2, 0.1, 0.05)


def _philox(key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _scenario(name: str, state, obs_a, obs_b, inst: Instrument, model=None) -> Scenario:
    """A scenario with contextual values for A and B where they exist, and the
    outcome indices where they do not."""

    def assignment(target):
        try:
            return inst.contextual_values(target)
        except NotExpressible:
            return {label: float(i) for i, label in enumerate(inst.labels)}

    return Scenario(
        dimension=inst.dim,
        state=state,
        observable_A=obs_a,
        observable_B=obs_b,
        apparatus=inst,
        indirect=model,
        values_m=assignment(obs_a),
        values_mB=assignment(obs_b),
        meta={"name": f"fingerprint-{name}"},
    )


def d4_indirect(index: int) -> Scenario:
    """Random d = 4 state and targets, measured through a random
    16-dimensional system-detector coupling (seed (0, index))."""
    rng = _philox((0, index))
    state = random_density(4, rng)
    obs_a = random_hermitian(4, rng)
    obs_b = random_hermitian(4, rng)
    model = random_indirect_model(4, rng)
    return _scenario(f"d4-indirect-{index}", state, obs_a, obs_b, Instrument.from_indirect(model), model)


def _isometry_blocks(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """The n 3 x 3 blocks of a Haar-random isometry from d = 3 into 3n dimensions;
    their M†M sum to the identity."""
    isometry = random_unitary(3 * n, rng)[:, :3]
    return [isometry[3 * i : 3 * i + 3] for i in range(n)]


def ragged_kraus() -> Scenario:
    """d = 3, three outcomes with 1, 2 and 3 Kraus operators (seed (1, 0))."""
    rng = _philox((1, 0))
    state, obs_a, obs_b = random_density(3, rng), random_hermitian(3, rng), random_hermitian(3, rng)
    m = _isometry_blocks(rng, 6)
    inst = Instrument.from_kraus([KrausSet("one", (m[0],)), KrausSet("two", tuple(m[1:3])), KrausSet("three", tuple(m[3:]))])
    return _scenario("ragged-kraus", state, obs_a, obs_b, inst)


def null_outcome() -> Scenario:
    """d = 3, three live outcomes and one between them whose single Kraus
    operator has norm ~1e-8, so Tr P_k <= ZERO_WEIGHT (seed (1, 1))."""
    rng = _philox((1, 1))
    state, obs_a, obs_b = random_density(3, rng), random_hermitian(3, rng), random_hermitian(3, rng)
    m = _isometry_blocks(rng, 3)
    tiny = 1e-8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    sets = [KrausSet("0", (m[0],)), KrausSet("null", (tiny,)), KrausSet("1", (m[1],)), KrausSet("2", (m[2],))]
    return _scenario("null-outcome", state, obs_a, obs_b, Instrument.from_kraus(sets))


def grouped_b() -> Scenario:
    """d = 3, B = U diag(1, 1, -1/2) U† with a Haar-random U, so two of its
    eigenvalues differ by round-off and form one branch (seed (1, 2))."""
    rng = _philox((1, 2))
    state, obs_a = random_density(3, rng), random_hermitian(3, rng)
    u = random_unitary(3, rng)
    obs_b = HermitianOperator(u @ np.diag([1.0, 1.0, -0.5]) @ u.conj().T)
    sets = [KrausSet(str(k), (mk,)) for k, mk in enumerate(_isometry_blocks(rng, 3))]
    return _scenario("grouped-b", state, obs_a, obs_b, Instrument.from_kraus(sets))


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
    ks = outcome_kernels([inst], [a], [b])
    for label, rows, posterior in zip(inst.live_labels, ks.restricted[0].tolist(), ks.posterior[0].tolist()):
        out.extend([label, idx, row if p else None] for idx, (row, p) in enumerate(zip(rows, posterior)))
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
    generated = [(f"d4-indirect-{i}", d4_indirect(i)) for i in range(6)]
    generated += [(f.__name__.replace("_", "-"), f()) for f in (ragged_kraus, null_outcome, grouped_b)]
    for name, s in bundled + generated:
        yield f"analyze {name}", report_to_dict(analyze(s))
        yield f"single-outcome {name}", single_outcome(s)
        yield f"weak-probe tables {name}", weak_probe_tables(s)

    for dim, count in ((2, 60), (3, 30), (8, 6), (8, 40), (16, 6)):
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


def kernel_outputs():
    """Yield (name, value) pairs of every ``outcome_kernels`` field on d = 8 windows,
    one row per member and live outcome."""
    for size in KERNEL_WINDOWS:
        window = generate_window(8, 4, [subseed(777, (8, i)) for i in range(size)])
        insts, a, b = zip(*[(s.apparatus, s.observable_A, s.observable_B) for s in window])
        ks = outcome_kernels(insts, a, b)
        fields = (ks.eps, ks.c_ab, ks.eta, ks.table, ks.weights, ks.restricted, ks.posterior)
        members = zip(*(f.tolist() for f in fields))
        yield f"outcome_kernels d=8 x {size}", [
            [
                [label, [*eps, c_ab, eta], table, weights, [r if p else None for r, p in zip(rs, ps)]]
                for label, eps, c_ab, eta, table, weights, rs, ps in zip(inst.live_labels, *member)
            ]
            for inst, member in zip(insts, members)
        ]


def _update(digest, pairs) -> None:
    for name, value in pairs:
        digest.update(json.dumps([name, _exact(value)], sort_keys=True).encode())


def lines() -> tuple[str, str]:
    """The hash of :func:`outputs`, and that hash extended with :func:`kernel_outputs`."""
    digest = hashlib.sha256()
    _update(digest, outputs())
    extended = digest.copy()
    _update(extended, kernel_outputs())
    return digest.hexdigest(), extended.hexdigest()


def main() -> None:
    print(*lines(), sep="\n")


if __name__ == "__main__":
    main()

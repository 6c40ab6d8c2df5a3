"""Full-analysis reports, seeded Monte Carlo sampling, and weak-probe sweeps.

Everything here is deterministic given its inputs: sampling uses the Philox
counter-based generator, so the i-th draw is a pure function of (seed, i)
and results are byte-identical across runs and independent of evaluation
order.  ``sample`` counts its stream in counter-advanced shards, one per
available CPU, on a thread pool and each in chunks; the counts depend on
neither the CPU count nor the chunk, and at most 2^16 uniforms are in
memory at once.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalNumericError, InvalidStrength, NotExpressible
from .inequalities import InequalityRecord, ScenarioContext, evaluate_all
from .instruments import value_row
from .metrics import (
    NoiseReport,
    epsilon_sq_joint,
    eta_sq_joint,
    eta_sq_lindblad,
    is_qnd,
)
from .operators import cross_check, expectation, max_norm, spectral_decompose, value_variance
from .quasiprob import (
    QuasiDistribution,
    quasi_mean_squared_difference,
    tmh_disturbance_distribution,
    tmh_error_distribution,
    weak_probe_disturbance_distribution,
    weak_probe_error_distribution,
)
from .scenario import Scenario
from .tolerances import POM_PSD_FLOOR, SLOPE_FLOOR

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class OutcomeReport:
    label: str
    probability: float
    pom_trace: float
    retrodictive_eps_A: float
    retrodictive_eps_B: float | None
    interdictive_eta_B: float | None


@dataclass(frozen=True)
class AnalysisReport:
    scenario_digest: str
    delta_A: float
    epsilon: NoiseReport
    epsilon_joint: float | None
    unbiased: bool
    dispersion_m2: dict[str, float] | None
    delta_B: float | None
    eta: NoiseReport | None
    eta_joint: float | None
    eta_lindblad: float | None
    qnd: bool | None
    error_distribution: QuasiDistribution
    disturbance_distribution: QuasiDistribution | None
    outcome_reports: tuple[OutcomeReport, ...]
    inequalities: dict[str, InequalityRecord]
    meta: dict = field(default_factory=dict)


def analyze(scenario: Scenario) -> AnalysisReport:
    """Compute every metric, distribution, and inequality for a scenario.

    The quasiprobability forms of epsilon^2 and eta^2 are recomputed from
    the TMH tables and compared with the direct forms; disagreement beyond
    CROSS_CHECK_TOL raises an internal-consistency error.
    """
    s = scenario
    inst, rho, obs_a = s.apparatus, s.state, s.observable_A
    ctx = ScenarioContext([s])

    eps = ctx.epsilon[0]
    err_dist = tmh_error_distribution(rho, obs_a, inst, s.values_m)
    eps_quasi = quasi_mean_squared_difference(err_dist)
    cross_check("epsilon^2", direct=eps.mean_squared, quasi=eps_quasi)
    eps_joint = None
    if s.indirect is not None:
        eps_joint = epsilon_sq_joint(s.indirect, s.values_m, obs_a, rho)
        cross_check("epsilon^2", system=eps.mean_squared, joint=eps_joint)

    dispersion_m2 = None
    try:
        dispersion_m2 = inst.moment_values(obs_a, 2)
    except NotExpressible:
        pass

    eta = eta_joint = eta_lind = qnd = None
    dist_dist = None
    obs_b = s.observable_B
    if obs_b is not None:
        eta = ctx.eta[0]
        dist_dist = tmh_disturbance_distribution(rho, obs_b, inst)
        eta_quasi = quasi_mean_squared_difference(dist_dist)
        cross_check("eta^2", direct=eta.mean_squared, quasi=eta_quasi)
        eta_lind = eta_sq_lindblad(inst, obs_b, rho)
        qnd = is_qnd(inst, obs_b)
        if s.indirect is not None:
            eta_joint = eta_sq_joint(s.indirect, obs_b, rho)
            cross_check("eta^2", system=eta.mean_squared, joint=eta_joint)

    # Per-outcome values exist for the live outcomes only.
    kern, live = ctx.kernels, inst.live_labels
    eta_k = [None] * len(live) if kern.eta is None else kern.eta[0].tolist()
    values = {label: (*e, None)[:2] + (h,) for label, e, h in zip(live, kern.eps[0].tolist(), eta_k)}
    outcome_reports = [
        OutcomeReport(label, float(prob), inst.pom_trace(label), *values.get(label, (float("nan"), None, None)))
        for label, prob in zip(inst.labels, ctx.outcome_probs[0])
    ]

    return AnalysisReport(
        scenario_digest=ctx.digest[0],
        delta_A=eps.delta,
        epsilon=eps,
        epsilon_joint=eps_joint,
        unbiased=ctx.unbiased[0],
        dispersion_m2=dispersion_m2,
        delta_B=None if eta is None else eta.delta,
        eta=eta,
        eta_joint=eta_joint,
        eta_lindblad=eta_lind,
        qnd=qnd,
        error_distribution=err_dist,
        disturbance_distribution=dist_dist,
        outcome_reports=tuple(outcome_reports),
        inequalities=evaluate_all(s, ctx),
        meta=dict(s.meta),
    )


def report_to_dict(report: AnalysisReport) -> dict:
    """JSON-serializable form of an analysis report (schema version 1)."""

    def noise(n: NoiseReport | None):
        if n is None:
            return None
        return {
            "delta": n.delta,
            "mean_squared": n.mean_squared,
            "picture": n.picture,
            "components": list(n.components),
        }

    def dist(d: QuasiDistribution | None):
        if d is None:
            return None
        return {
            "row_labels": list(d.row_labels),
            "col_labels": list(d.col_labels),
            "row_values": d.row_values.tolist(),
            "col_values": d.col_values.tolist(),
            "table": d.table.tolist(),
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_digest": report.scenario_digest,
        "delta_A": report.delta_A,
        "epsilon": noise(report.epsilon),
        "epsilon_joint": report.epsilon_joint,
        "unbiased": report.unbiased,
        "dispersion_m2": report.dispersion_m2,
        "delta_B": report.delta_B,
        "eta": noise(report.eta),
        "eta_joint": report.eta_joint,
        "eta_lindblad": report.eta_lindblad,
        "qnd": report.qnd,
        "error_distribution": dist(report.error_distribution),
        "disturbance_distribution": dist(report.disturbance_distribution),
        "outcomes": [
            {
                "label": o.label,
                "probability": o.probability,
                "pom_trace": o.pom_trace,
                "retrodictive_eps_A": o.retrodictive_eps_A,
                "retrodictive_eps_B": o.retrodictive_eps_B,
                "interdictive_eta_B": o.interdictive_eta_B,
            }
            for o in report.outcome_reports
        ],
        "inequalities": {
            rid: {
                "lhs": rec.lhs,
                "rhs": rec.rhs,
                "margin": rec.margin,
                "satisfied": rec.satisfied,
                "sub_records": [
                    {"outcome": sr.outcome, "lhs": sr.lhs, "rhs": sr.rhs, "margin": sr.margin}
                    for sr in rec.sub_records
                ],
            }
            for rid, rec in sorted(report.inequalities.items())
        },
        "meta": report.meta,
    }


def write_distribution_csv(dist: QuasiDistribution, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_label", "col_label", "row_value", "col_value", "weight"])
        for i, rl in enumerate(dist.row_labels):
            for j, cl in enumerate(dist.col_labels):
                writer.writerow(
                    [rl, cl, repr(dist.row_values[i]), repr(dist.col_values[j]), repr(dist.table[i, j])]
                )


# ---------------------------------------------------------------------------
# Monte Carlo sampling


# Uniforms drawn and counted per step of ``sample`` (512 KiB of float64).
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SampleRun:
    seed: int
    shots: int
    counts: dict[str, int]
    pair_counts: dict[tuple[str, str], int] | None
    empirical_mean: float
    empirical_mean_se: float
    empirical_moments: dict[int, float] | None
    empirical_eps_sq: float | None
    empirical_eps_sq_se: float | None


def sample(scenario: Scenario, shots: int, seed: int) -> SampleRun:
    """Draw i.i.d. outcomes from the scenario's outcome distribution.

    Uses the Philox counter-based generator keyed on ``seed``: the stream of
    uniforms is a pure function of (seed, draw index), so runs with the same
    seed are bitwise identical.  When observable_B is present the draws are
    (outcome, posterior-branch) pairs from p(k, b') = Tr[Π_b' A_k(rho)].
    A non-finite cell probability, or one below POM_PSD_FLOOR, raises
    InternalNumericError; round-off in [POM_PSD_FLOOR, 0) is set to 0 before
    renormalizing.  The stream is cut into contiguous shards, one per
    available CPU, each on its own generator advanced to its first draw;
    the shards are counted in chunks on a thread pool.  So memory is bounded by
    2^16 uniforms in total, not by ``shots``, and the counts equal those of
    one draw of all ``shots`` uniforms, whatever the CPU count.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise TypeError(f"shots must be an integer, got {shots!r}")
    shots = int(shots)  # numpy integers overflow in Philox.advance
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    s = scenario
    inst, rho = s.apparatus, s.state
    labels = inst.labels

    if s.observable_B is not None:
        spec_b = spectral_decompose(s.observable_B)
        cells = [(label, posterior) for label in labels for posterior in spec_b.labels("b'")]
        probs = expectation(spec_b.projector_stack, inst._channel(rho)[:, None]).ravel()
    else:
        probs = inst.outcome_probabilities(rho)
    if not (np.isfinite(probs).all() and probs.min() >= POM_PSD_FLOOR):
        raise InternalNumericError(f"cell probability {probs.min():.3e} not finite or below {POM_PSD_FLOOR}")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    binned = _cell_counts(int(seed), shots, probs)
    outcome_counts = dict(zip(labels, binned.reshape(len(labels), -1).sum(axis=1).tolist()))
    pair_counts = None if s.observable_B is None else dict(zip(cells, binned.tolist()))

    p_hat = np.array([outcome_counts[label] / shots for label in labels])
    m = np.array(value_row(inst, s.values_m))
    mean = float(m @ p_hat)
    mean_se = _stream_se(m, p_hat, shots)

    moments = None
    eps_sq = eps_sq_se = None
    try:
        m_n = {n: np.array(value_row(inst, inst.moment_values(s.observable_A, n))) for n in range(1, 5)}
        moments = {n: float(v @ p_hat) for n, v in m_n.items()}
        # eps^2 = sum_k (m_k^2 - m^(2)_k) p_k, with m^(2) the n = 2 moment values.
        v = m**2 - m_n[2]
        eps_sq = float(v @ p_hat)
        eps_sq_se = _stream_se(v, p_hat, shots)
    except NotExpressible:
        pass

    return SampleRun(
        seed=int(seed),
        shots=shots,
        counts=outcome_counts,
        pair_counts=pair_counts,
        empirical_mean=mean,
        empirical_mean_se=mean_se,
        empirical_moments=moments,
        empirical_eps_sq=eps_sq,
        empirical_eps_sq_se=eps_sq_se,
    )


def _cell_counts(
    seed: int, shots: int, probs: np.ndarray, chunk: int = _CHUNK, shards: int | None = None
) -> np.ndarray:
    """Count ``shots`` uniforms of the Philox stream of ``seed`` into the cells of ``probs``.

    Cell i (i < n - 1) takes the draws in [cumsum[i - 1], cumsum[i]); the
    last cell takes every draw at or above the last inner edge, so a
    cumulative total that rounds below 1 still places every draw.  The
    counts are those of ``bincount(minimum(searchsorted(cumsum, u, "right"),
    n - 1))`` on one draw of all the uniforms, whatever ``chunk`` and
    ``shards`` are.

    Shard w takes draws [b_w, b_{w+1}) with b_w = 4 floor(shots w / 4S) and
    b_S = ``shots``, so each starts on a Philox4x64 counter step (four
    doubles).  The caller counts shard 0 and a pool of S - 1 threads counts
    the others, each ``chunk // S`` uniforms at a time, so at most ``chunk``
    are in memory at once; every thread has joined before the counts, or a
    shard's exception, reach the caller.  S is the number of CPUs this process
    may run on, and no more than the number of ``_CHUNK``-sized pieces of the
    stream.
    """
    if shards is None:
        shards = min(_cpus(), -(-shots // _CHUNK))
    edges = np.cumsum(probs)[:-1]
    bounds = [4 * (shots * w // (4 * shards)) for w in range(shards)] + [shots]
    step = max(chunk // shards, 1)
    from concurrent.futures import ThreadPoolExecutor  # imports logging, which only sampling needs

    with ThreadPoolExecutor(max(shards - 1, 1)) as pool:
        futures = [pool.submit(_count_shard, seed, bounds[w], bounds[w + 1], edges, step) for w in range(1, shards)]
        below = _count_shard(seed, bounds[0], bounds[1], edges, step) + sum(f.result() for f in futures)
    return np.diff(below, prepend=0, append=shots)


def _count_shard(seed: int, start: int, stop: int, edges: np.ndarray, step: int) -> np.ndarray:
    """Per-edge counts of the draws [start, stop) that fall below each edge,
    ``step`` at a time into buffers allocated once."""
    bitgen = np.random.Philox(np.random.SeedSequence(seed))
    bitgen.advance(start // 4)
    rng = np.random.Generator(bitgen)
    below = np.zeros(len(edges), dtype=np.int64)
    buf = np.empty(min(step, stop - start))
    mask = np.empty(len(buf), dtype=bool)
    for lo in range(start, stop, step):
        n = min(step, stop - lo)
        u = rng.random(out=buf[:n])
        for i, e in enumerate(edges):
            below[i] += np.count_nonzero(np.less(u, e, out=mask[:n]))
    return below


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stream_se(values: np.ndarray, p_hat: np.ndarray, shots: int) -> float:
    return math.sqrt(value_variance(values, p_hat) / shots)


# ---------------------------------------------------------------------------
# Weak-probe convergence sweeps


@dataclass(frozen=True)
class SweepRow:
    g: float
    error_dist_maxnorm: float
    disturbance_dist_maxnorm: float | None


@dataclass(frozen=True)
class WeakSweep:
    rows: tuple[SweepRow, ...]
    error_slope: float | None
    disturbance_slope: float | None


def weak_sweep(scenario: Scenario, g_list) -> WeakSweep:
    """Max-norm distance between weak-probe and TMH distributions per strength.

    Fits a log-log slope over the provided strengths (skipped when every
    error is at round-off, e.g. commuting scenarios).
    """
    s = scenario
    g_values = [float(g) for g in g_list]
    for g in g_values:
        if not 0.0 < g <= 1.0:
            raise InvalidStrength(f"probe strength {g!r} outside (0, 1]")
    err_ref = tmh_error_distribution(s.state, s.observable_A, s.apparatus, s.values_m)
    dist_ref = (
        tmh_disturbance_distribution(s.state, s.observable_B, s.apparatus)
        if s.observable_B is not None
        else None
    )
    rows = []
    for g in g_values:
        approx = weak_probe_error_distribution(s.state, s.observable_A, s.apparatus, s.values_m, g)
        err = max_norm(approx.table - err_ref.table)
        dist_err = None
        if dist_ref is not None:
            approx_d = weak_probe_disturbance_distribution(s.state, s.observable_B, s.apparatus, g)
            dist_err = max_norm(approx_d.table - dist_ref.table)
        rows.append(SweepRow(g, err, dist_err))
    return WeakSweep(
        rows=tuple(rows),
        error_slope=_loglog_slope([r.g for r in rows], [r.error_dist_maxnorm for r in rows]),
        disturbance_slope=_loglog_slope(
            [r.g for r in rows],
            [r.disturbance_dist_maxnorm for r in rows if r.disturbance_dist_maxnorm is not None],
        ),
    )


def _loglog_slope(g_values, errors) -> float | None:
    if len(errors) != len(g_values) or len(errors) < 2:
        return None
    if any(e <= SLOPE_FLOOR for e in errors):
        return None
    slope, _ = np.polyfit(np.log(np.asarray(g_values)), np.log(np.asarray(errors)), 1)
    return float(slope)


def write_sweep_csv(sweep: WeakSweep, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g", "error_dist_maxnorm", "disturbance_dist_maxnorm"])
        for row in sweep.rows:
            writer.writerow(
                [
                    repr(row.g),
                    repr(row.error_dist_maxnorm),
                    "" if row.disturbance_dist_maxnorm is None else repr(row.disturbance_dist_maxnorm),
                ]
            )
        writer.writerow(
            [
                "slope-fit",
                "" if sweep.error_slope is None else repr(sweep.error_slope),
                "" if sweep.disturbance_slope is None else repr(sweep.disturbance_slope),
            ]
        )

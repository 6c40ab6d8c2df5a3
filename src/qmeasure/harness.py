"""Full-analysis reports, seeded Monte Carlo sampling, and weak-probe sweeps.

Everything here is deterministic given its inputs: sampling uses the Philox
counter-based generator, so the i-th draw is a pure function of (seed, i)
and results are byte-identical across runs and independent of evaluation
order.  ``sample`` counts its stream in counter-advanced shards, one per
available CPU, on a thread pool and each in chunks of 64-bit words; the
counts depend on neither the CPU count nor the chunk, and at most 2^16
words are in memory at once.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InternalNumericError
from .inequalities import InequalityRecord, ScenarioContext, evaluate_all
from .instruments import channel, contextual_value_rows, symmetrized_powers, value_row
from .metrics import NoiseReport, epsilon_sq_joint, eta_sq_joint
from .operators import cross_check, expectation, spectral_decompose, value_variance
from .quasiprob import (
    QuasiDistribution,
    quasi_mean_squared_difference,
    weak_probe_disturbance_stack,
    weak_probe_error_stack,
)
from .scenario import Scenario, checked_int
from .tolerances import CV_RESIDUAL_TOL, POM_PSD_FLOOR, SLOPE_FLOOR

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
    """Every number ``analyze`` computes for a scenario.

    ``report_to_dict`` writes the fields of this and of the report dataclasses it
    holds as JSON keys, with ``outcome_reports`` under ``"outcomes"`` and each
    inequality record as lhs, rhs, margin, satisfied and sub-records.  A new field
    is a new key, so it bumps ``SCHEMA_VERSION``.
    """

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


# The dataclasses that ``report_to_dict`` writes as dicts, with their field names.
_REPORT_FIELDS = {
    cls: tuple(f.name for f in fields(cls)) for cls in (AnalysisReport, NoiseReport, QuasiDistribution, OutcomeReport)
}


def analyze(scenario: Scenario) -> AnalysisReport:
    """Compute every metric, distribution, and inequality for a scenario.

    Every ingredient is read from the scenario's ``ScenarioContext``, a block of one;
    only the joint-picture cross-checks of an indirect scenario are computed here.  The
    quasiprobability forms of epsilon^2 and eta^2 are recomputed from the context's TMH
    tables and compared with the direct forms; disagreement beyond CROSS_CHECK_TOL
    raises an internal-consistency error.
    """
    s = scenario
    inst, rho = s.apparatus, s.state
    ctx = ScenarioContext([s])

    eps = ctx.epsilon[0]
    err_dist = ctx.error_distribution[0]
    cross_check("epsilon^2", direct=eps.mean_squared, quasi=quasi_mean_squared_difference(err_dist))
    eps_joint = None
    if s.indirect is not None:
        eps_joint = epsilon_sq_joint(s.indirect, s.values_m, s.observable_A, rho)
        cross_check("epsilon^2", system=eps.mean_squared, joint=eps_joint)

    eta = eta_joint = eta_lind = qnd = dist_dist = None
    if s.observable_B is not None:
        eta = ctx.eta[0]
        dist_dist = ctx.disturbance_distribution[0]
        cross_check("eta^2", direct=eta.mean_squared, quasi=quasi_mean_squared_difference(dist_dist))
        eta_lind, qnd = ctx.eta_lindblad[0], ctx.qnd[0]
        if s.indirect is not None:
            eta_joint = eta_sq_joint(s.indirect, s.observable_B, rho)
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
        scenario_digest=s.digest(),
        delta_A=eps.delta,
        epsilon=eps,
        epsilon_joint=eps_joint,
        unbiased=ctx.unbiased[0],
        dispersion_m2=ctx.dispersion_m2[0],
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
    """JSON-serializable form of an analysis report (schema version 1; its keys are
    described on :class:`AnalysisReport`)."""
    doc = {"schema_version": SCHEMA_VERSION, **_plain(report)}
    doc["outcomes"] = doc.pop("outcome_reports")
    doc["inequalities"] = {
        rid: {
            "lhs": rec.lhs,
            "rhs": rec.rhs,
            "margin": rec.margin,
            "satisfied": rec.satisfied,
            "sub_records": [
                {"outcome": sr.outcome, "lhs": sr.lhs, "rhs": sr.rhs, "margin": sr.margin} for sr in rec.sub_records
            ],
        }
        for rid, rec in sorted(report.inequalities.items())
    }
    return doc


def _plain(x):
    """A report dataclass as a dict of its fields, an array as nested lists, a tuple as
    a list (whose report dataclasses are walked too); anything else as it is."""
    names = _REPORT_FIELDS.get(type(x))
    if names is not None:
        return {name: _plain(getattr(x, name)) for name in names}
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, tuple):
        return [_plain(v) for v in x] if x and type(x[0]) in _REPORT_FIELDS else list(x)
    return x


def write_distribution_csv(dist: QuasiDistribution, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_label", "col_label", "row_value", "col_value", "weight"])
        cols = list(zip(dist.col_labels, dist.col_values.tolist()))
        for rl, rv, weights in zip(dist.row_labels, dist.row_values.tolist(), dist.table.tolist()):
            for (cl, cv), w in zip(cols, weights):
                writer.writerow([rl, cl, repr(rv), repr(cv), repr(w)])


# ---------------------------------------------------------------------------
# Monte Carlo sampling


# 64-bit words drawn and counted per step of ``sample`` (512 KiB).
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

    Uses the Philox counter-based generator keyed on ``seed``: the stream of 64-bit
    words is a pure function of (seed, draw index), so runs with the same seed are
    bitwise identical.  When observable_B is present the draws are (outcome,
    posterior-branch) pairs from p(k, b') = Tr[Π_b' A_k(rho)].  A non-finite cell
    probability, or one below POM_PSD_FLOOR, raises InternalNumericError; round-off
    in [POM_PSD_FLOOR, 0) is set to 0 before renormalizing.  The stream is cut into
    contiguous shards, one per available CPU, each on its own generator advanced to
    its first draw; a thread pool counts the shards in chunks, word x below cell
    edge e when x < ceil(e 2^53) 2^11, exactly when numpy's uniform of x is below e.
    So memory is bounded by 2^16 words, not by ``shots``, and the counts equal those
    of one draw of all ``shots`` uniforms, whatever the CPU count.
    """
    shots, seed = checked_int("shots", shots, 1), checked_int("seed", seed, 0)
    s = scenario
    inst, rho = s.apparatus, s.state
    labels = inst.labels

    if s.observable_B is not None:
        spec_b = spectral_decompose(s.observable_B)
        cells = [(label, posterior) for label in labels for posterior in spec_b.labels("b'")]
        after = channel(inst.kraus_stack[None], np.asarray(rho)[None])[0]
        probs = expectation(spec_b.projector_stack, after[:, None]).ravel()
    else:
        probs = inst.outcome_probabilities(rho)
    if not (np.isfinite(probs).all() and probs.min() >= POM_PSD_FLOOR):
        raise InternalNumericError(f"cell probability {probs.min():.3e} not finite or below {POM_PSD_FLOOR}")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    binned = _cell_counts(seed, shots, probs)
    outcome_counts = dict(zip(labels, binned.reshape(len(labels), -1).sum(axis=1).tolist()))
    pair_counts = None if s.observable_B is None else dict(zip(cells, binned.tolist()))

    p_hat = np.array([outcome_counts[label] / shots for label in labels])
    m = np.array(value_row(inst, s.values_m))
    mean = float(m @ p_hat)
    mean_se = _stream_se(m, p_hat, shots)

    moments = eps_sq = eps_sq_se = None
    powers = symmetrized_powers(np.asarray(s.observable_A)[None], range(1, 5))
    m_n, residual = contextual_value_rows(inst.pom_stack[None], powers)
    if not (residual > CV_RESIDUAL_TOL).any():
        moments = {n: float(v @ p_hat) for n, v in enumerate(m_n[0], 1)}
        # eps^2 = sum_k (m_k^2 - m^(2)_k) p_k, with m^(2) the n = 2 moment values.
        v = m**2 - m_n[0, 1]
        eps_sq = float(v @ p_hat)
        eps_sq_se = _stream_se(v, p_hat, shots)

    return SampleRun(
        seed=seed,
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
    """Count ``shots`` draws of the Philox stream of ``seed`` into the cells of ``probs``.

    Cell i (i < n - 1) takes the draws in [cumsum[i - 1], cumsum[i]); the
    last cell takes every draw at or above the last inner edge, so a
    cumulative total that rounds below 1 still places every draw.  The
    counts are those of ``bincount(minimum(searchsorted(cumsum, u, "right"),
    n - 1))`` on one draw of all the uniforms, whatever ``chunk`` and
    ``shards`` are.

    Shard w takes draws [b_w, b_{w+1}) with b_w = 4 floor(shots w / 4S) and
    b_S = ``shots``, so each starts on a Philox4x64 counter step (four words).
    The caller counts shard 0 and a pool of S - 1 threads counts the others, each
    ``chunk // S`` 64-bit words at a time, draw i below edge e when its word
    x < ceil(e 2^53) 2^11, so no word becomes a float and at most ``chunk`` are in
    memory at once; every thread has joined before the counts, or a shard's
    exception, reach the caller.  S is the number of CPUs this process may run on,
    and no more than the number of ``_CHUNK``-sized pieces of the stream.
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
    """Per-edge counts of the draws [start, stop) below each edge, ``step`` words at a
    time; a limit of 2^64 or more (an edge of 1 or above) takes every word."""
    bitgen = np.random.Philox(np.random.SeedSequence(seed))
    bitgen.advance(start // 4)
    limits = [None if k >> 64 else np.uint64(k) for k in (math.ceil(e * 2.0**53) << 11 for e in edges.tolist())]
    below = np.zeros(len(edges), dtype=np.int64)
    mask = np.empty(min(step, stop - start), dtype=bool)
    for lo in range(start, stop, step):
        n = min(step, stop - lo)
        x = bitgen.random_raw(n)
        for i, k in enumerate(limits):
            below[i] += n if k is None else np.count_nonzero(np.less(x, k, out=mask[:n]))
        del x  # the next step's words are drawn only once these are freed
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

    The TMH tables are read from the scenario's ``ScenarioContext``; the weak-probe
    tables of all strengths are one stacked pass per table, whose ``weak_probe`` gates
    every strength before any probe work.  Fits a log-log slope over the provided
    strengths (skipped when every error is at round-off, e.g. commuting scenarios).
    """
    s, g_values = scenario, [float(g) for g in g_list]
    ctx = ScenarioContext([s])
    approx = weak_probe_error_stack(s.state, s.observable_A, s.apparatus, g_values)
    errors = np.abs(approx - ctx.error_distribution[0].table).max(axis=(-2, -1)).tolist()
    dist_errors = []
    if s.observable_B is not None:
        approx_d = weak_probe_disturbance_stack(s.state, s.observable_B, s.apparatus, g_values)
        dist_errors = np.abs(approx_d - ctx.disturbance_distribution[0].table).max(axis=(-2, -1)).tolist()
    rows = tuple(map(SweepRow, g_values, errors, dist_errors or [None] * len(g_values)))
    return WeakSweep(rows, _loglog_slope(g_values, errors), _loglog_slope(g_values, dist_errors))


def _loglog_slope(g_values, errors) -> float | None:
    if len(errors) != len(g_values) or len(errors) < 2:
        return None
    if any(e <= SLOPE_FLOOR for e in errors):
        return None
    slope, _ = np.polyfit(np.log(np.asarray(g_values)), np.log(np.asarray(errors)), 1)
    return float(slope)


def write_sweep_csv(sweep: WeakSweep, path) -> None:
    def cells(values):
        return ["" if v is None else repr(v) for v in values]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = [f.name for f in fields(SweepRow)]
        writer.writerow(names)
        writer.writerows(cells(getattr(row, name) for name in names) for row in sweep.rows)
        writer.writerow(["slope-fit", *cells((sweep.error_slope, sweep.disturbance_slope))])

"""Evaluation of the ten uncertainty relations on a scenario.

Relation identifiers:

- ``heisenberg``     sigma_A sigma_B >= C_AB
- ``schrodinger``    sigma_A^2 sigma_B^2 >= covariance^2 + C_AB^2
- ``ozawa``          eps_A eta_B + eps_A sigma_B + sigma_A eta_B >= C_AB
- ``hall``           eps_A eps_B + eps_A sigma_B + sigma_A eps_B >= C_AB
- ``weston``         eps_A (sigma_B + sigma_B,est)/2 + eps_B (...) >= C_AB
- ``branciard_ee``   eps_A^2 sigma_B^2 + sigma_A^2 eps_B^2
                     + 2 eps_A eps_B sqrt(sigma_A^2 sigma_B^2 - C^2) >= C^2
- ``branciard_ed``   the same with eta_B substituted for eps_B
- ``hofmann1/2/3``   single-outcome relations, iterated over outcomes

The first six are preparation-dependent; the Hofmann family is intrinsic to
the instrument and carries per-outcome sub-records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MissingIngredient, NegativeRadicand
from .metrics import NoiseReport, epsilon_sq_system, eta_sq_system, is_unbiased
from .operators import (
    HermitianOperator,
    commutator_bound,
    expectation,
    expectation_and_variance,
    jordan_product,
    spectral_decompose,
    value_variance,
)
from .retrodiction import OutcomeKernel, outcome_kernels
from .scenario import Scenario, generate_random, subseed
from .tolerances import ROUNDOFF_FLOOR, SATISFACTION_TOL

RELATION_IDS = (
    "heisenberg",
    "schrodinger",
    "ozawa",
    "hall",
    "weston",
    "branciard_ee",
    "branciard_ed",
    "hofmann1",
    "hofmann2",
    "hofmann3",
)


@dataclass(frozen=True)
class SubRecord:
    """One outcome (or outcome-posterior pair) of a per-outcome relation."""

    outcome: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class InequalityRecord:
    relation_id: str
    lhs: float
    rhs: float
    inputs_digest: str
    sub_records: tuple[SubRecord, ...] = ()

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def satisfied(self) -> bool:
        return bool(self.margin >= -SATISFACTION_TOL)


class ScenarioContext:
    """The one owner of the per-scenario quantities that relations and ``analyze`` share."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    @cached_property
    def digest(self) -> str:
        return self.scenario.digest()

    @cached_property
    def sigma_A(self) -> float:
        _, var = expectation_and_variance(self.scenario.observable_A, self.scenario.state)
        return math.sqrt(var)

    @cached_property
    def sigma_B(self) -> float:
        _, var = expectation_and_variance(self._obs_b, self.scenario.state)
        return math.sqrt(var)

    @property
    def _obs_b(self):
        if self.scenario.observable_B is None:
            raise MissingIngredient("relation requires observable_B")
        return self.scenario.observable_B

    @cached_property
    def c_ab(self) -> float:
        return commutator_bound(self.scenario.observable_A, self._obs_b, self.scenario.state)

    @cached_property
    def covariance(self) -> float:
        s = self.scenario
        mean_a = expectation(s.observable_A, s.state)
        mean_b = expectation(self._obs_b, s.state)
        return expectation(jordan_product(s.observable_A, self._obs_b), s.state) - mean_a * mean_b

    @cached_property
    def effective_A(self) -> HermitianOperator:
        """A_e[m], built once for ε² and for the unbiasedness decision."""
        return self.scenario.apparatus.effective_observable(self.scenario.values_m)

    @cached_property
    def epsilon(self) -> NoiseReport:
        s = self.scenario
        return epsilon_sq_system(s.apparatus, s.values_m, s.observable_A, s.state, a_e=self.effective_A)

    @cached_property
    def unbiased(self) -> bool:
        return is_unbiased(self.effective_A, self.scenario.observable_A)

    @cached_property
    def eta(self) -> NoiseReport:
        s = self.scenario
        return eta_sq_system(s.apparatus, self._obs_b, s.state)

    @property
    def eps_A(self) -> float:
        return math.sqrt(self.epsilon.mean_squared)

    @cached_property
    def eps_B(self) -> float:
        s = self.scenario
        if s.values_mB is None:
            raise MissingIngredient("relation requires a second value assignment values_mB")
        return math.sqrt(epsilon_sq_system(s.apparatus, s.values_mB, self._obs_b, s.state).mean_squared)

    @property
    def eta_B(self) -> float:
        return math.sqrt(self.eta.mean_squared)

    @cached_property
    def outcome_probs(self) -> np.ndarray:
        return self.scenario.apparatus.outcome_probabilities(self.scenario.state)

    def sigma_est(self, values: dict[str, float]) -> float:
        """Spread of the assigned values in the recorded data stream."""
        m = np.array([values[label] for label in self.scenario.apparatus.labels])
        return math.sqrt(value_variance(m, self.outcome_probs))

    @cached_property
    def kernels(self) -> dict[str, OutcomeKernel]:
        """One single-outcome kernel per live outcome, for A and, if present, B:
        ε_A,k, ε_B,k, η_B,k, C_AB,k and the restricted (k, b') quantities."""
        s = self.scenario
        return outcome_kernels(s.apparatus, s.observable_A, s.observable_B)


def _branciard(eps_a: float, eps_b: float, ctx: ScenarioContext) -> tuple[float, float]:
    radicand = ctx.sigma_A**2 * ctx.sigma_B**2 - ctx.c_ab**2
    if radicand < ROUNDOFF_FLOOR:
        raise NegativeRadicand(f"sigma_A^2 sigma_B^2 - C^2 = {radicand:.3e}")
    root = math.sqrt(max(radicand, 0.0))
    lhs = eps_a**2 * ctx.sigma_B**2 + ctx.sigma_A**2 * eps_b**2 + 2 * eps_a * eps_b * root
    return lhs, ctx.c_ab**2


def evaluate(relation_id: str, scenario: Scenario, ctx: ScenarioContext | None = None) -> InequalityRecord:
    """Evaluate one relation on a scenario, returning lhs/rhs and margin."""
    if ctx is None:
        ctx = ScenarioContext(scenario)
    digest = ctx.digest
    s = scenario

    if relation_id == "heisenberg":
        return InequalityRecord("heisenberg", ctx.sigma_A * ctx.sigma_B, ctx.c_ab, digest)
    if relation_id == "schrodinger":
        lhs = ctx.sigma_A**2 * ctx.sigma_B**2
        rhs = ctx.covariance**2 + ctx.c_ab**2
        return InequalityRecord("schrodinger", lhs, rhs, digest)
    if relation_id == "ozawa":
        lhs = ctx.eps_A * ctx.eta_B + ctx.eps_A * ctx.sigma_B + ctx.sigma_A * ctx.eta_B
        return InequalityRecord("ozawa", lhs, ctx.c_ab, digest)
    if relation_id == "hall":
        lhs = ctx.eps_A * ctx.eps_B + ctx.eps_A * ctx.sigma_B + ctx.sigma_A * ctx.eps_B
        return InequalityRecord("hall", lhs, ctx.c_ab, digest)
    if relation_id == "weston":
        if s.values_mB is None:
            raise MissingIngredient("weston requires values_mB")
        est_a = ctx.sigma_est(dict(s.values_m))
        est_b = ctx.sigma_est(dict(s.values_mB))
        lhs = (
            ctx.eps_A * (ctx.sigma_B + est_b) / 2
            + ctx.eps_B * (ctx.sigma_A + est_a) / 2
        )
        return InequalityRecord("weston", lhs, ctx.c_ab, digest)
    if relation_id == "branciard_ee":
        lhs, rhs = _branciard(ctx.eps_A, ctx.eps_B, ctx)
        return InequalityRecord("branciard_ee", lhs, rhs, digest)
    if relation_id == "branciard_ed":
        lhs, rhs = _branciard(ctx.eps_A, ctx.eta_B, ctx)
        return InequalityRecord("branciard_ed", lhs, rhs, digest)
    if relation_id in ("hofmann1", "hofmann2", "hofmann3"):
        return _evaluate_hofmann(relation_id, ctx)
    raise ValueError(f"unknown relation {relation_id!r}")


def _evaluate_hofmann(relation_id: str, ctx: ScenarioContext) -> InequalityRecord:
    posteriors = spectral_decompose(ctx._obs_b).labels("b'")
    subs: list[SubRecord] = []
    for label, kern in ctx.kernels.items():
        if relation_id == "hofmann2":
            for posterior, rm in zip(posteriors, kern.restricted):
                if rm is not None:
                    subs.append(SubRecord(f"{label}|{posterior}", rm.eps_A * rm.eta_B, rm.eps_A * rm.eps_B))
        else:
            b_k = kern.eps_B if relation_id == "hofmann1" else kern.eta_B
            subs.append(SubRecord(label, kern.eps_A * b_k, kern.c_ab))
    if not subs:
        raise MissingIngredient(f"{relation_id}: no live outcomes to evaluate")
    worst = min(subs, key=lambda r: r.margin)
    return InequalityRecord(relation_id, worst.lhs, worst.rhs, ctx.digest, tuple(subs))


def evaluate_all(scenario: Scenario, ctx: ScenarioContext | None = None) -> dict[str, InequalityRecord]:
    """Evaluate every applicable relation; relations lacking ingredients are skipped."""
    if ctx is None:
        ctx = ScenarioContext(scenario)
    records = {}
    for rid in RELATION_IDS:
        try:
            records[rid] = evaluate(rid, scenario, ctx)
        except MissingIngredient:
            continue
    return records


@dataclass(frozen=True)
class SweepResult:
    records: tuple[InequalityRecord, ...]
    min_margins: dict[str, float] = field(default_factory=dict)


def random_sweep(dims, count: int, seed: int, n_outcomes: int = 4) -> SweepResult:
    """Evaluate all relations on ``count`` random scenarios per dimension.

    Deterministic for a fixed seed; scenario i in dimension d uses the
    derived seed ``subseed(seed, (d, i))``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    records: list[InequalityRecord] = []
    min_margins: dict[str, float] = {}
    for dim in dims:
        for i in range(count):
            scenario = generate_random(dim, n_outcomes, subseed(seed, (dim, i)))
            for rid, rec in evaluate_all(scenario).items():
                records.append(rec)
                cur = min_margins.get(rid)
                if cur is None or rec.margin < cur:
                    min_margins[rid] = rec.margin
    return SweepResult(tuple(records), min_margins)


@dataclass(frozen=True)
class ViolationSearchResult:
    """Best (most negative) naive-product margin eps_A * eta_B - C_AB found."""

    product: float
    bound: float
    margin: float
    scenario: Scenario
    ozawa_margin: float


def heisenberg_form_violation_search(dims, count: int, seed: int, n_outcomes: int = 4) -> ViolationSearchResult:
    """Search for scenarios where the naive product eps_A eta_B falls below C_AB.

    Always includes the analytic qubit construction (projective measurement
    of one Pauli axis, disturbance probed along another), which violates the
    naive form by construction while the Ozawa relation still holds.
    """
    candidates: list[Scenario] = []
    if 2 in list(dims):
        candidates.append(_projective_violation_scenario())
    for dim in dims:
        for i in range(count):
            candidates.append(generate_random(dim, n_outcomes, subseed(seed, (dim, i))))

    best: ViolationSearchResult | None = None
    for scenario in candidates:
        if scenario.observable_B is None:
            continue
        ctx = ScenarioContext(scenario)
        product = ctx.eps_A * ctx.eta_B
        margin = product - ctx.c_ab
        if best is None or margin < best.margin:
            ozawa = evaluate("ozawa", scenario, ctx)
            best = ViolationSearchResult(product, ctx.c_ab, margin, scenario, ozawa.margin)
    if best is None:
        raise MissingIngredient("no candidate scenario had observable_B")
    return best


def _projective_violation_scenario() -> Scenario:
    from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z, DensityOperator
    from .scenario import projective_instrument

    obs_a = HermitianOperator(SIGMA_Z)
    inst = projective_instrument(obs_a)
    state = DensityOperator((np.eye(2) + 0.8 * SIGMA_Y) / 2)
    return Scenario(
        dimension=2,
        state=state,
        observable_A=obs_a,
        observable_B=HermitianOperator(SIGMA_X),
        apparatus=inst,
        values_m={"0": 1.0, "1": -1.0},
        meta={"name": "projective-z-vs-x"},
    )

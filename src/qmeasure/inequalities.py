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
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import MissingIngredient, NegativeRadicand, NotExpressible
from .instruments import value_row
from .metrics import NoiseReport, eta_sq_lindblad_stack, is_qnd_stack, is_unbiased, noise_stack
from .operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityOperator,
    HermitianOperator,
    commutator_bound,
    expectation,
    expectation_and_variance,
    jordan_product,
    spectra,
    value_variance,
)
from .quasiprob import QuasiDistribution, tmh_disturbance_stack, tmh_error_stack
from .retrodiction import _BLOCK_ENTRIES, OutcomeKernels, outcome_kernels
from .scenario import Scenario, generate_random, generate_window, projective_instrument, subseed
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


class _Digest:
    """A scenario's digest, computed on first read and kept; the records of one member
    share it.  Its source is the scenario, or, for a sweep member, the
    ``(dim, n_outcomes, seed)`` that :func:`generate_random` regenerates it from bit for
    bit, so that a finished sweep keeps none of its scenarios alive."""

    __slots__ = ("_source", "_value")

    def __init__(self, source: Scenario | tuple[int, int, int]):
        self._source, self._value = source, None

    def __str__(self) -> str:
        source = self._source
        if source is not None:
            scenario = source if isinstance(source, Scenario) else generate_random(*source)
            # The value is set before the source is dropped, so a reader that finds no source finds the value.
            self._value, self._source = scenario.digest(), None
        return self._value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Digest) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))


@dataclass(frozen=True)
class InequalityRecord:
    relation_id: str
    lhs: float
    rhs: float
    _digest: _Digest = field(repr=False)
    sub_records: tuple[SubRecord, ...] = ()

    @property
    def inputs_digest(self) -> str:
        """The digest of the evaluated scenario, computed the first time it is read."""
        return str(self._digest)

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def satisfied(self) -> bool:
        return bool(self.margin >= -SATISFACTION_TOL)


def _signature(s: Scenario) -> tuple:
    """What the members of one block share: the dimension, the Kraus slot count L,
    the live mask, the branch count of B (None without B), and whether values_mB is
    absent.  B's spectrum must already be known to be cheap here."""
    inst, b = s.apparatus, s.observable_B
    branches = None if b is None else len(b.spectrum.eigenvalues)
    return s.dimension, inst.kraus_stack.shape[1], tuple(inst.live_mask.tolist()), branches, s.values_mB is None


class ScenarioContext:
    """The one owner of the per-scenario quantities that relations and ``analyze`` share,
    over a block of N scenarios of one signature (a single scenario is a block of one).
    Each quantity is computed once for all members by stacked code, except m^(2), which
    ``Instrument.moment_values`` solves per member, and is read per member: a list of N
    values in member order, indexed by :meth:`position`.  A_e[m], ε_A, ε_B and η_B come
    from one noise pass, which builds what the block has of them.  ``sources`` are the
    members' digest sources (see :class:`_Digest`), by default the members.
    """

    def __init__(self, scenarios: Sequence[Scenario], sources: Sequence | None = None):
        ss = self.scenarios = tuple(scenarios)
        if len({_signature(s) for s in ss}) != 1:
            raise ValueError("a context needs one or more scenarios of one signature")
        self._positions = {id(s): i for i, s in enumerate(ss)}
        self._rho = np.stack([s.state.matrix for s in ss])
        self._a = np.stack([s.observable_A.matrix for s in ss])
        self._pom = np.stack([s.apparatus.pom_stack for s in ss])
        self._values_m = [value_row(s.apparatus, s.values_m) for s in ss]
        self.digests = [_Digest(source) for source in (ss if sources is None else sources)]

    def position(self, scenario: Scenario) -> int:
        """The member index of ``scenario``, which must be one of the block's objects."""
        try:
            return self._positions[id(scenario)]
        except KeyError:
            raise ValueError("scenario is not a member of this context") from None

    @cached_property
    def _b(self) -> np.ndarray:
        if self.scenarios[0].observable_B is None:
            raise MissingIngredient("relation requires observable_B")
        return np.stack([s.observable_B.matrix for s in self.scenarios])

    @cached_property
    def _values_mB(self) -> list[list[float]]:
        if self.scenarios[0].values_mB is None:
            raise MissingIngredient("relation requires a second value assignment values_mB")
        return [value_row(s.apparatus, s.values_mB) for s in self.scenarios]

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Means and variances of A and B, ``(N, 2)`` each."""
        return expectation_and_variance(np.stack([self._a, self._b], axis=1), self._rho[:, None])

    @cached_property
    def sigma(self) -> list[list[float]]:
        """(σ_A, σ_B) of every member."""
        return np.sqrt(self._moments[1]).tolist()

    @cached_property
    def c_ab(self) -> list[float]:
        return commutator_bound(self._a, self._b, self._rho).tolist()

    @cached_property
    def covariance(self) -> list[float]:
        mean = self._moments[0]
        return (expectation(jordan_product(self._a, self._b), self._rho) - mean[:, 0] * mean[:, 1]).tolist()

    @cached_property
    def _noise(self) -> tuple[np.ndarray, list[list[NoiseReport]]]:
        """:func:`metrics.noise_stack` of the value rows m and, where the block has B and values_mB,
        m_B: A_e of the rows, then of their squares, and each member's reports: ε² of A, of B, then η² of B."""
        s, rows = self.scenarios[0], [self._values_m]
        if s.observable_B is not None and s.values_mB is not None:
            rows.append(self._values_mB)
        if s.observable_B is None:
            return noise_stack(self._pom, zip(*rows), self._a[:, None], self._rho)
        return noise_stack(self._pom, zip(*rows), np.stack([self._a, self._b], axis=1), self._rho, self._kraus)

    @cached_property
    def epsilon(self) -> list[NoiseReport]:
        return [reports[0] for reports in self._noise[1]]

    @cached_property
    def unbiased(self) -> list[bool]:
        return is_unbiased(self._noise[0][:, 0], self._a)

    @cached_property
    def _kraus(self) -> np.ndarray:
        return np.stack([s.apparatus.kraus_stack for s in self.scenarios])

    @cached_property
    def eta(self) -> list[NoiseReport]:
        self._b  # raises MissingIngredient without B
        return [reports[-1] for reports in self._noise[1]]

    @cached_property
    def eta_lindblad(self) -> list[float]:
        """η² of every member recomputed from its Lindblad perturbations, the independent
        form ``analyze`` reports beside η²."""
        return eta_sq_lindblad_stack(self._kraus, self._b, self._rho)

    @cached_property
    def qnd(self) -> list[bool]:
        """Whether every Kraus operator of a member commutes with its B."""
        return is_qnd_stack(self._kraus, self._b)

    @cached_property
    def dispersion_m2(self) -> list[dict[str, float] | None]:
        """The contextual values m^(2) of A^2 of every member, read through
        ``Instrument.moment_values``; None where A^2 lies outside the POM span."""
        m2 = []
        for s in self.scenarios:
            try:
                m2.append(s.apparatus.moment_values(s.observable_A, 2))
            except NotExpressible:
                m2.append(None)
        return m2

    @cached_property
    def error_distribution(self) -> list[QuasiDistribution]:
        """The TMH error table p~(a, k) of every member.  The block needs one branch
        count of A, which its signature does not key on: otherwise, DimensionMismatch."""
        ss = self.scenarios
        return tmh_error_stack(self._rho, [s.observable_A for s in ss], [s.apparatus for s in ss], self._values_m)

    @cached_property
    def disturbance_distribution(self) -> list[QuasiDistribution]:
        """The TMH disturbance table p~(b', b) of every member."""
        self._b  # raises MissingIngredient without B
        return tmh_disturbance_stack(self._rho, [s.observable_B for s in self.scenarios], self._kraus)

    @cached_property
    def eps_A(self) -> list[float]:
        return [math.sqrt(r.mean_squared) for r in self.epsilon]

    @cached_property
    def eps_B(self) -> list[float]:
        self._values_mB, self._b  # raise MissingIngredient without values_mB, then without B
        return [math.sqrt(reports[1].mean_squared) for reports in self._noise[1]]

    @cached_property
    def eta_B(self) -> list[float]:
        return [math.sqrt(r.mean_squared) for r in self.eta]

    @cached_property
    def outcome_probs(self) -> np.ndarray:
        """Tr(P_k rho) of every member, ``(N, n_outcomes)`` in declared outcome order."""
        return expectation(self._pom, self._rho[:, None])

    @cached_property
    def sigma_est(self) -> list[list[float]]:
        """Spread of the values m_k and of m_k^B in the recorded data stream, per member."""
        values = np.stack([self._values_m, self._values_mB], axis=1)
        return np.sqrt(value_variance(values, self.outcome_probs[:, None])).tolist()

    @cached_property
    def kernels(self) -> OutcomeKernels:
        """The single-outcome quantities of every live outcome of every member, stacked
        over (member, outcome), for A and, if present, B: ε_A,k, ε_B,k, η_B,k, C_AB,k and
        the restricted (k, b') quantities."""
        ss = self.scenarios
        b = None if ss[0].observable_B is None else [s.observable_B for s in ss]
        return outcome_kernels([s.apparatus for s in ss], [s.observable_A for s in ss], b)

    @cached_property
    def hofmann(self) -> dict[str, tuple[list, list]]:
        """lhs and rhs of the sub-records of each Hofmann relation, as nested lists over
        (member, live outcome k): ε_A,k ε_B,k (hofmann1) and ε_A,k η_B,k (hofmann3)
        against C_AB,k; and over (member, k, posterior branch b') the restricted ε_A η_B
        against ε_A ε_B (hofmann2), NaN where p(b'|k) <= ZERO_WEIGHT."""
        ks = self.kernels
        eps_a, eps_b = np.moveaxis(ks.eps, -1, 0)
        _, r_eps_a, r_eps_b, r_eta_b, _ = np.moveaxis(ks.restricted, -1, 0)
        terms = {
            "hofmann1": (eps_a * eps_b, ks.c_ab),
            "hofmann2": (r_eps_a * r_eta_b, r_eps_a * r_eps_b),
            "hofmann3": (eps_a * ks.eta, ks.c_ab),
        }
        return {rid: (lhs.tolist(), rhs.tolist()) for rid, (lhs, rhs) in terms.items()}


def _branciard(eps_a: float, eps_b: float, sigma_a: float, sigma_b: float, c_ab: float) -> tuple[float, float]:
    radicand = sigma_a**2 * sigma_b**2 - c_ab**2
    if radicand < ROUNDOFF_FLOOR:
        raise NegativeRadicand(f"sigma_A^2 sigma_B^2 - C^2 = {radicand:.3e}")
    root = math.sqrt(max(radicand, 0.0))
    lhs = eps_a**2 * sigma_b**2 + sigma_a**2 * eps_b**2 + 2 * eps_a * eps_b * root
    return lhs, c_ab**2


def evaluate(relation_id: str, scenario: Scenario, ctx: ScenarioContext | None = None) -> InequalityRecord:
    """Evaluate one relation on a scenario, returning lhs/rhs and margin.  ``ctx`` is
    the context of a block that holds ``scenario``; without it, a block of one."""
    if relation_id not in RELATION_IDS:
        raise ValueError(f"unknown relation {relation_id!r}")
    if ctx is None:
        ctx = ScenarioContext([scenario])
    i = ctx.position(scenario)
    if relation_id.startswith("hofmann"):
        return _evaluate_hofmann(relation_id, scenario, ctx, i)
    (sigma_a, sigma_b), c_ab = ctx.sigma[i], ctx.c_ab[i]
    if relation_id == "heisenberg":
        lhs, rhs = sigma_a * sigma_b, c_ab
    elif relation_id == "schrodinger":
        lhs, rhs = sigma_a**2 * sigma_b**2, ctx.covariance[i] ** 2 + c_ab**2
    elif relation_id == "ozawa":
        eps_a, eta_b = ctx.eps_A[i], ctx.eta_B[i]
        lhs, rhs = eps_a * eta_b + eps_a * sigma_b + sigma_a * eta_b, c_ab
    elif relation_id == "hall":
        eps_a, eps_b = ctx.eps_A[i], ctx.eps_B[i]
        lhs, rhs = eps_a * eps_b + eps_a * sigma_b + sigma_a * eps_b, c_ab
    elif relation_id == "weston":
        (est_a, est_b), eps_a, eps_b = ctx.sigma_est[i], ctx.eps_A[i], ctx.eps_B[i]
        lhs, rhs = eps_a * (sigma_b + est_b) / 2 + eps_b * (sigma_a + est_a) / 2, c_ab
    else:
        eps_b = ctx.eps_B[i] if relation_id == "branciard_ee" else ctx.eta_B[i]
        lhs, rhs = _branciard(ctx.eps_A[i], eps_b, sigma_a, sigma_b, c_ab)
    return InequalityRecord(relation_id, lhs, rhs, ctx.digests[i])


def _evaluate_hofmann(relation_id: str, scenario: Scenario, ctx: ScenarioContext, i: int) -> InequalityRecord:
    if scenario.observable_B is None:
        raise MissingIngredient("relation requires observable_B")
    labels, (lhs, rhs) = scenario.apparatus.live_labels, ctx.hofmann[relation_id]
    if relation_id == "hofmann2":
        rows = zip(labels, lhs[i], rhs[i], ctx.kernels.posterior[i].tolist())
        subs = [SubRecord(f"{k}|b'{j}", x, y) for k, *row in rows for j, (x, y, p) in enumerate(zip(*row)) if p]
    else:
        subs = [SubRecord(*sub) for sub in zip(labels, lhs[i], rhs[i])]
    if not subs:
        raise MissingIngredient(f"{relation_id}: no live outcomes to evaluate")
    worst = min(subs, key=lambda r: r.margin)
    return InequalityRecord(relation_id, worst.lhs, worst.rhs, ctx.digests[i], tuple(subs))


def evaluate_all(scenario: Scenario, ctx: ScenarioContext | None = None) -> dict[str, InequalityRecord]:
    """Evaluate every applicable relation; relations lacking ingredients are skipped."""
    if ctx is None:
        ctx = ScenarioContext([scenario])
    records = {}
    for rid in RELATION_IDS:
        try:
            records[rid] = evaluate(rid, scenario, ctx)
        except MissingIngredient:
            continue
    return records


def _blocks_of(window: list[Scenario], sources: Sequence | None = None) -> list[tuple[Scenario, ScenarioContext]]:
    """The members of a window with their contexts: those that share a signature form one
    block.  ``sources`` are the members' digest sources, by default the members."""
    spectra([s.observable_B for s in window if s.observable_B is not None])
    blocks: dict[tuple, list[tuple]] = {}
    for s, source in zip(window, window if sources is None else sources):
        blocks.setdefault(_signature(s), []).append((s, source))
    contexts = [ScenarioContext(*zip(*block)) for block in blocks.values()]
    context_of = {id(s): ctx for ctx in contexts for s in ctx.scenarios}
    return [(s, context_of[id(s)]) for s in window]


def _members(dims: Iterable[int], count: int, seed: int, n_outcomes: int) -> Iterator[tuple[Scenario, ScenarioContext]]:
    """The members of a sweep in order, each with the context of its block; scenario i in
    dimension d comes from the subseed ``subseed(seed, (d, i))``.  Members are generated
    window by window, one dimension and at most ``_BLOCK_ENTRIES`` entries a window, a
    member counting n_outcomes * d^3 (one Kraus operator per outcome, at most d branches
    of B), and only the current window is held.  A window splits into blocks by
    :func:`_blocks_of`, with the members' ``(d, n_outcomes, subseed)`` as digest sources."""
    for dim in dims:
        size = max(1, _BLOCK_ENTRIES // (n_outcomes * dim**3))
        for start in range(0, count, size):
            keys = [(dim, n_outcomes, subseed(seed, (dim, i))) for i in range(start, min(start + size, count))]
            yield from _blocks_of(generate_window(dim, n_outcomes, [key[2] for key in keys]), keys)


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
    records = tuple(rec for s, ctx in _members(dims, count, seed, n_outcomes) for rec in evaluate_all(s, ctx).values())
    margins = {rid: [rec.margin for rec in records if rec.relation_id == rid] for rid in RELATION_IDS}
    return SweepResult(records, {rid: min(ms) for rid, ms in margins.items() if ms})


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
    dims = list(dims)
    analytic = [_projective_violation_scenario()] if 2 in dims else []

    def naive(member: tuple[Scenario, ScenarioContext]) -> tuple[float, float, float]:
        """ε_A η_B, C_AB and the naive margin ε_A η_B - C_AB of a member."""
        scenario, ctx = member
        i = ctx.position(scenario)
        product, bound = ctx.eps_A[i] * ctx.eta_B[i], ctx.c_ab[i]
        return product, bound, product - bound

    members = chain(_blocks_of(analytic), _members(dims, count, seed, n_outcomes))
    winner = min(members, key=lambda member: naive(member)[2], default=None)
    if winner is None:
        raise MissingIngredient("no candidate scenario to search")
    return ViolationSearchResult(*naive(winner), winner[0], evaluate("ozawa", *winner).margin)


def _projective_violation_scenario() -> Scenario:
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

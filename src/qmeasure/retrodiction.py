"""Single-outcome error and disturbance via retrodictive and interdictive states.

These quantities are intrinsic to an instrument outcome: no preparation
state enters any signature.  Degenerate observables are handled at the
eigen-branch level, with squared deviations taken between branch
eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NullOutcome, ZeroPosterior
from .instruments import Instrument
from .operators import (
    DensityOperator,
    HermitianOperator,
    expectation_and_variance,
    spectral_decompose,
)
from .quasiprob import QuasiDistribution
from .tolerances import ZERO_WEIGHT


@dataclass(frozen=True)
class RetrodictiveState:
    """Normalized POM element P_k / Tr(P_k): the state inferred backward
    from outcome k under a uniform prior."""

    state: DensityOperator
    source_trace: float


@dataclass(frozen=True)
class InterdictiveState:
    """Trace-normalized single-outcome operation X -> A_k(X) / Tr(P_k)."""

    outcome: str
    instrument: Instrument
    normalizer: float

    def apply(self, x: HermitianOperator) -> HermitianOperator:
        out = self.instrument.apply_selective(self.outcome, x)
        return HermitianOperator(out.matrix / self.normalizer)

    def adjoint_apply(self, x: HermitianOperator) -> HermitianOperator:
        out = self.instrument.adjoint_apply(self.outcome, x)
        return HermitianOperator(out.matrix / self.normalizer)


def _outcome_trace(inst: Instrument, label: str) -> float:
    tr = float(np.real(np.trace(inst.pom_element(label).matrix)))
    if tr <= ZERO_WEIGHT:
        raise NullOutcome(f"outcome {label!r} has POM trace {tr!r}")
    return tr


def retrodictive_state(inst: Instrument, label: str) -> RetrodictiveState:
    tr = _outcome_trace(inst, label)
    p_k = inst.pom_element(label)
    state = DensityOperator(HermitianOperator(p_k.matrix / tr))
    return RetrodictiveState(state=state, source_trace=tr)


def interdictive_state(inst: Instrument, label: str) -> InterdictiveState:
    tr = _outcome_trace(inst, label)
    return InterdictiveState(outcome=label, instrument=inst, normalizer=tr)


def retrodictive_error(inst: Instrument, label: str, a: HermitianOperator) -> float:
    """Standard deviation of A under the retrodictive state for one outcome.

    This is the resolution of the outcome: it depends only on P_k and A,
    never on a preparation.
    """
    retro = retrodictive_state(inst, label)
    _, var = expectation_and_variance(a, retro.state)
    return float(np.sqrt(var))


def interdictive_joint_distribution(
    inst: Instrument, label: str, b: HermitianOperator
) -> QuasiDistribution:
    """True probability table p(b, b' | k) = Tr[Π_b' A_k(Π_b)] / Tr(P_k).

    Rows index the preparation branch b, columns the posterior branch b'.
    """
    tr = _outcome_trace(inst, label)
    spec = spectral_decompose(b)
    table = np.empty((len(spec.branches), len(spec.branches)))
    for i, proj_b in enumerate(spec.projectors):
        after = inst.apply_selective(label, proj_b).matrix
        for j, proj_bp in enumerate(spec.projectors):
            table[i, j] = float(np.real(np.trace(np.asarray(proj_bp) @ after))) / tr
    n = len(spec.branches)
    return QuasiDistribution(
        row_labels=tuple(f"b{i}" for i in range(n)),
        col_labels=tuple(f"b'{j}" for j in range(n)),
        table=table,
        row_values=spec.eigenvalues,
        col_values=spec.eigenvalues,
    )


def interdictive_disturbance(inst: Instrument, label: str, b: HermitianOperator) -> float:
    """Root-mean-squared deviation between preparations and post-selections
    bracketing outcome k: sqrt(sum (B_b - B_b')^2 p(b, b' | k))."""
    dist = interdictive_joint_distribution(inst, label, b)
    diff = dist.row_values[:, None] - dist.col_values[None, :]
    return float(np.sqrt(max(np.sum(diff**2 * dist.table), 0.0)))


@dataclass(frozen=True)
class RestrictedMetrics:
    """Per-posterior quantities under the doubly conditioned retrodictive state."""

    p_posterior: float
    eps_A: float
    eps_B: float
    eta_B: float
    retro_mean_B: float


def restricted_metrics(
    inst: Instrument,
    label: str,
    posterior_index: int,
    a: HermitianOperator,
    b: HermitianOperator,
) -> RestrictedMetrics:
    """Restricted error/disturbance for one (outcome, posterior-branch) pair.

    The conditioned state is rho_{k,b'} = A*_k(Π_b') / (Tr(P_k) p(b'|k)).
    The disturbance obeys eta^2 = eps_B^2 + (B_b' - <B>)^2 exactly.
    """
    tr = _outcome_trace(inst, label)
    spec = spectral_decompose(b)
    if not 0 <= posterior_index < len(spec.branches):
        raise ZeroPosterior(f"no eigen-branch with index {posterior_index}")
    b_val, proj_bp = spec.branches[posterior_index]
    back = inst.adjoint_apply(label, proj_bp).matrix / tr
    p_post = float(np.real(np.trace(back)))
    if p_post <= ZERO_WEIGHT:
        raise ZeroPosterior(f"posterior branch {posterior_index} has probability {p_post!r}")
    state = DensityOperator(HermitianOperator(back / p_post))
    mean_b, var_b = expectation_and_variance(b, state)
    _, var_a = expectation_and_variance(a, state)
    eta_sq = var_b + (b_val - mean_b) ** 2
    return RestrictedMetrics(
        p_posterior=p_post,
        eps_A=float(np.sqrt(var_a)),
        eps_B=float(np.sqrt(var_b)),
        eta_B=float(np.sqrt(eta_sq)),
        retro_mean_B=mean_b,
    )

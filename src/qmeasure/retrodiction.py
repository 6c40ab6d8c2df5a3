"""Single-outcome error and disturbance via retrodictive and interdictive states.

These quantities are intrinsic to an instrument outcome: no preparation
state enters any signature.  Degenerate observables are handled at the
eigen-branch level, with squared deviations taken between branch
eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroPosterior
from .instruments import Instrument
from .operators import (
    DensityOperator,
    HermitianOperator,
    clip_at_floor,
    expectation_and_variance,
    spectral_decompose,
)
from .quasiprob import QuasiDistribution, quasi_mean_squared_difference
from .tolerances import SECOND_MOMENT_FLOOR, ZERO_WEIGHT


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


def interdictive_state(inst: Instrument, label: str) -> InterdictiveState:
    return InterdictiveState(outcome=label, instrument=inst, normalizer=inst.live_trace(label))


def retrodictive_error(inst: Instrument, label: str, a: HermitianOperator) -> float:
    """Standard deviation of A under the retrodictive state for one outcome.

    This is the resolution of the outcome: it depends only on P_k and A,
    never on a preparation.
    """
    _, var = expectation_and_variance(a, inst.retrodicted_state(label))
    return float(np.sqrt(var))


def interdictive_joint_distribution(
    inst: Instrument, label: str, b: HermitianOperator
) -> QuasiDistribution:
    """True probability table p(b, b' | k) = Tr[Π_b' A_k(Π_b)] / Tr(P_k).

    Rows index the preparation branch b, columns the posterior branch b'.
    """
    # Each trace is divided by the normalizer, not A_k(Π_b) before the trace
    # as InterdictiveState.apply does: the two orders round differently.
    tr = interdictive_state(inst, label).normalizer
    spec = spectral_decompose(b)
    table = np.empty((len(spec.branches), len(spec.branches)))
    for i, proj_b in enumerate(spec.projectors):
        after = inst.apply_selective(label, proj_b).matrix
        for j, proj_bp in enumerate(spec.projectors):
            table[i, j] = float(np.real(np.trace(np.asarray(proj_bp) @ after))) / tr
    return QuasiDistribution(
        row_labels=spec.labels("b"),
        col_labels=spec.labels("b'"),
        table=table,
        row_values=spec.eigenvalues,
        col_values=spec.eigenvalues,
    )


def interdictive_disturbance(inst: Instrument, label: str, b: HermitianOperator) -> float:
    """Root-mean-squared deviation between preparations and post-selections
    bracketing outcome k: sqrt(sum (B_b - B_b')^2 p(b, b' | k))."""
    dist = interdictive_joint_distribution(inst, label, b)
    eta_sq = clip_at_floor(quasi_mean_squared_difference(dist), SECOND_MOMENT_FLOOR, "second moment")
    return float(np.sqrt(eta_sq))


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
    inter = interdictive_state(inst, label)
    spec = spectral_decompose(b)
    if not 0 <= posterior_index < len(spec.branches):
        raise ZeroPosterior(f"no eigen-branch with index {posterior_index}")
    b_val, proj_bp = spec.branches[posterior_index]
    back = inter.adjoint_apply(proj_bp).matrix
    p_post = float(np.real(np.trace(back)))
    if p_post <= ZERO_WEIGHT:
        raise ZeroPosterior(f"posterior branch {posterior_index} has probability {p_post!r}")
    state = DensityOperator(back / p_post)
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

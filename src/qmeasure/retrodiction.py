"""Single-outcome error and disturbance via retrodictive and interdictive states.

These quantities are intrinsic to an instrument outcome: no preparation
state enters any signature.  Degenerate observables are handled at the
eigen-branch level, with squared deviations taken between branch
eigenvalues.  One kernel per live outcome, :func:`outcome_kernel`, computes
them all from the outcome's map A_k and its dual A*_k, each applied by the
instrument in one call to the stacked spectral projectors of B; the four
single-outcome functions read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroPosterior
from .instruments import Instrument
from .operators import (
    HermitianOperator,
    clip_at_floor,
    commutator_bound,
    spectral_decompose,
    validated_states,
)
from .quasiprob import QuasiDistribution, quasi_mean_squared_difference
from .tolerances import ROUNDOFF_FLOOR, SECOND_MOMENT_FLOOR, ZERO_WEIGHT


@dataclass(frozen=True)
class RestrictedMetrics:
    """Per-posterior quantities under the doubly conditioned retrodictive state."""

    p_posterior: float
    eps_A: float
    eps_B: float
    eta_B: float
    retro_mean_B: float


@dataclass(frozen=True)
class OutcomeKernel:
    """The single-outcome quantities of one live outcome k.

    ``eps_A`` and ``eps_B`` are the spreads of A and B in the retrodictive
    state P_k / Tr P_k, and ``c_ab`` is C_AB in it.  ``table`` is the
    interdictive table T_k[b, b'] = Tr[Π_b' A_k(Π_b)] / Tr P_k,
    ``posterior_weights`` are p(b'|k) = Tr A*_k(Π_b') / Tr P_k, and
    ``restricted`` has one entry per posterior branch b', None where
    p(b'|k) <= ZERO_WEIGHT.  Without B only ``eps_A`` is set.
    """

    eps_A: float
    eps_B: float | None = None
    c_ab: float | None = None
    table: QuasiDistribution | None = None
    posterior_weights: tuple[float, ...] = ()
    restricted: tuple[RestrictedMetrics | None, ...] = ()

    @cached_property
    def eta_B(self) -> float | None:
        """sqrt(sum (B_b - B_b')^2 T_k[b, b']); None without B."""
        if self.table is None:
            return None
        msd = quasi_mean_squared_difference(self.table)
        return math.sqrt(clip_at_floor(msd, SECOND_MOMENT_FLOOR, "second moment"))


def outcome_kernel(
    inst: Instrument, label: str, a: HermitianOperator, b: HermitianOperator | None = None
) -> OutcomeKernel:
    """The single-outcome quantities of one live outcome, for A and, if given, B.

    Every product is a stacked ``matmul``, so every value has the bits of the
    per-matrix computation.  Each gate runs once on a stacked output: the
    instrument's Hermiticity gate on A_k(Π_b) and A*_k(Π_b'), the state gate
    on the conditioned states A*_k(Π_b') / (Tr P_k p(b'|k)), and
    ``clip_at_floor`` on every variance.
    """
    tr, retro = inst.live_trace(label), inst.retrodicted_state(label)
    obs = np.array([a.matrix] if b is None else [a.matrix, b.matrix])
    states = retro.matrix[None]
    if b is not None:
        spec = spectral_decompose(b)
        proj = spec.projector_stack
        # T_k divides each trace by Tr P_k; the conditioned states divide
        # A*_k(Π_b') before the trace.  The two orders round differently.
        forward = inst.apply_selective(label, proj)
        table = np.real(np.trace(proj[None, :] @ forward[:, None], axis1=-2, axis2=-1)) / tr
        backward = inst.adjoint_apply(label, proj) / tr
        weights = np.real(np.trace(backward, axis1=-2, axis2=-1))
        live = weights > ZERO_WEIGHT
        states = np.concatenate([states, validated_states(backward[live] / weights[live][:, None, None])])
    # Row 0: the retrodictive state; rows 1...: the live conditioned states.
    mean = np.real(np.trace(obs @ states[:, None], axis1=-2, axis2=-1))
    second = np.real(np.trace(obs @ obs @ states[:, None], axis1=-2, axis2=-1))
    var = [[clip_at_floor(v, ROUNDOFF_FLOOR, "variance") for v in row] for row in (second - mean * mean).tolist()]
    eps = [math.sqrt(v) for v in var[0]]
    if b is None:
        return OutcomeKernel(eps[0])
    restricted: list[RestrictedMetrics | None] = [None] * len(weights)
    for idx, (_, mean_b), (var_a, var_b) in zip(np.flatnonzero(live).tolist(), mean[1:].tolist(), var[1:]):
        eta_sq = var_b + (spec.branches[idx][0] - mean_b) ** 2
        restricted[idx] = RestrictedMetrics(
            float(weights[idx]), math.sqrt(var_a), math.sqrt(var_b), math.sqrt(eta_sq), mean_b
        )
    return OutcomeKernel(
        *eps,
        c_ab=commutator_bound(a, b, retro),
        table=QuasiDistribution.on_branches(spec, "b", "b'", table),
        posterior_weights=tuple(weights.tolist()),
        restricted=tuple(restricted),
    )


def retrodictive_error(inst: Instrument, label: str, a: HermitianOperator) -> float:
    """Standard deviation of A under the retrodictive state for one outcome.

    This is the resolution of the outcome: it depends only on P_k and A,
    never on a preparation.
    """
    return outcome_kernel(inst, label, a).eps_A


def interdictive_joint_distribution(inst: Instrument, label: str, b: HermitianOperator) -> QuasiDistribution:
    """True probability table p(b, b' | k) = Tr[Π_b' A_k(Π_b)] / Tr(P_k).

    Rows index the preparation branch b, columns the posterior branch b'.
    """
    return outcome_kernel(inst, label, b, b).table


def interdictive_disturbance(inst: Instrument, label: str, b: HermitianOperator) -> float:
    """Root-mean-squared deviation between preparations and post-selections
    bracketing outcome k: sqrt(sum (B_b - B_b')^2 p(b, b' | k))."""
    return outcome_kernel(inst, label, b, b).eta_B


def restricted_metrics(
    inst: Instrument, label: str, posterior_index: int, a: HermitianOperator, b: HermitianOperator
) -> RestrictedMetrics:
    """Restricted error/disturbance for one (outcome, posterior-branch) pair.

    The conditioned state is rho_{k,b'} = A*_k(Π_b') / (Tr(P_k) p(b'|k)).
    The disturbance obeys eta^2 = eps_B^2 + (B_b' - <B>)^2 exactly.
    """
    kernel = outcome_kernel(inst, label, a, b)
    if not 0 <= posterior_index < len(kernel.restricted):
        raise ZeroPosterior(f"no eigen-branch with index {posterior_index}")
    if kernel.restricted[posterior_index] is None:
        p_post = kernel.posterior_weights[posterior_index]
        raise ZeroPosterior(f"posterior branch {posterior_index} has probability {p_post!r}")
    return kernel.restricted[posterior_index]

"""Single-outcome error and disturbance via retrodictive and interdictive states.

These quantities are intrinsic to an instrument outcome: no preparation
state enters any signature.  Degenerate observables are handled at the
eigen-branch level, with squared deviations taken between branch
eigenvalues.  :func:`outcome_kernels` computes them all for every live
outcome in one pass, from the instrument's stacked maps A_k and A*_k on the
stacked spectral projectors of B; the four single-outcome functions read
one outcome's row.
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
    expectation,
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


def outcome_kernels(
    inst: Instrument, a: HermitianOperator, b: HermitianOperator | None = None
) -> dict[str, OutcomeKernel]:
    """The single-outcome quantities of every live outcome, for A and, if given, B,
    keyed by label in ``live_labels`` order.  The outcome axis is a stack axis and
    every product a stacked ``matmul``, so every value has the bits of its
    per-matrix computation; each gate runs once, on a stacked output.
    """
    live, labels, n = inst.live_mask, inst.live_labels, len(inst.live_labels)
    tr, states = inst.pom_traces[live], inst.retrodicted_stack
    obs = np.array([a.matrix] if b is None else [a.matrix, b.matrix])
    if b is not None:
        spec = spectral_decompose(b)
        proj = spec.projector_stack
        # T_k divides each trace by Tr P_k; the conditioned states divide
        # A*_k(Π_b') before the trace.  The two orders round differently.
        forward = inst._channel(proj)[live]
        table = expectation(proj[None, None], forward[:, :, None]) / tr[:, None, None]
        backward = inst._channel(proj, dual=True)[live] / tr[:, None, None, None]
        weights = np.real(np.trace(backward, axis1=-2, axis2=-1))
        posterior = weights > ZERO_WEIGHT
        states = np.concatenate([states, validated_states(backward[posterior] / weights[posterior][:, None, None])])
    # Rows: the retrodictive states, then the live conditioned states outcome by
    # outcome.  The moments keep their own traces, outside ``expectation``: an
    # overflowed A^2 must reach ``clip_at_floor`` and raise InternalNumericError.
    mean = np.real(np.trace(obs @ states[:, None], axis1=-2, axis2=-1))
    second = np.real(np.trace(obs @ obs @ states[:, None], axis1=-2, axis2=-1))
    var = clip_at_floor(second - mean * mean, ROUNDOFF_FLOOR, "variance")
    sd = np.sqrt(var).tolist()
    if b is None:
        return {label: OutcomeKernel(*eps) for label, eps in zip(labels, sd)}
    restricted: list[list[RestrictedMetrics | None]] = [[None] * len(spec.branches) for _ in labels]
    conditioned = zip(mean[n:, 1].tolist(), var[n:, 1].tolist(), sd[n:])
    for (k, idx), (mean_b, var_b, (eps_a, eps_b)) in zip(np.argwhere(posterior).tolist(), conditioned):
        eta_b = math.sqrt(var_b + (spec.branches[idx][0] - mean_b) ** 2)
        restricted[k][idx] = RestrictedMetrics(float(weights[k, idx]), eps_a, eps_b, eta_b, mean_b)
    c_ab = commutator_bound(a, b, states[:n]).tolist()
    tables = [QuasiDistribution.on_branches(spec, "b", "b'", t) for t in table]
    return {
        label: OutcomeKernel(*sd[k], c_ab[k], tables[k], tuple(weights[k].tolist()), tuple(restricted[k]))
        for k, label in enumerate(labels)
    }


def outcome_kernel(
    inst: Instrument, label: str, a: HermitianOperator, b: HermitianOperator | None = None
) -> OutcomeKernel:
    """The row of :func:`outcome_kernels` of one outcome; a null one raises NullOutcome."""
    inst.live_index(label)
    return outcome_kernels(inst, a, b)[label]


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

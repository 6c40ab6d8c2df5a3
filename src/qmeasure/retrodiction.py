"""Single-outcome error and disturbance via retrodictive and interdictive states.

These quantities are intrinsic to an instrument outcome: no preparation
state enters any signature.  Degenerate observables are handled at the
eigen-branch level, with squared deviations taken between branch
eigenvalues.  :func:`outcome_kernels` computes them all for every live
outcome of N instruments in one pass, from their stacked maps A_k and A*_k
on the stacked spectral projectors of B; the four single-outcome functions
read one outcome's row of a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ZeroPosterior
from .instruments import Instrument, channel, retrodicted_states
from .operators import (
    HermitianOperator,
    clip_at_floor,
    commutator_bound,
    expectation,
    spectra,
    validated_states,
)
from .quasiprob import QuasiDistribution
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
    interdictive table T_k[b, b'] = Tr[Π_b' A_k(Π_b)] / Tr P_k, ``eta_B`` is
    sqrt(sum (B_b - B_b')^2 T_k[b, b']), ``posterior_weights`` are
    p(b'|k) = Tr A*_k(Π_b') / Tr P_k, and ``restricted`` has one entry per
    posterior branch b', None where p(b'|k) <= ZERO_WEIGHT.  Without B only
    ``eps_A`` is set.
    """

    eps_A: float
    eps_B: float | None = None
    c_ab: float | None = None
    table: QuasiDistribution | None = None
    posterior_weights: tuple[float, ...] = ()
    restricted: tuple[RestrictedMetrics | None, ...] = ()
    eta_B: float | None = None


def outcome_kernels(
    insts: Sequence[Instrument], a: Sequence[HermitianOperator], b: Sequence[HermitianOperator] | None = None
) -> list[dict[str, OutcomeKernel]]:
    """The single-outcome quantities of every live outcome of N instruments of one
    Kraus layout and live mask, each with its A and, if given, its B: one dict per
    instrument, keyed by label in ``live_labels`` order.  The instrument and outcome
    axes are stack axes, ``(N, n_live, n_b, d, d)``, and every product a stacked
    ``matmul``, so every value has the bits of its per-matrix computation; each gate
    runs once, on a stacked output.
    """
    live, present = insts[0].live_mask, insts[0].kraus_present
    if len({(inst.kraus_present.tobytes(), inst.live_mask.tobytes()) for inst in insts}) > 1:
        raise DimensionMismatch("outcome_kernels needs instruments of one Kraus layout and live mask")
    n_inst, n = len(insts), int(live.sum())
    traces = np.stack([inst.pom_traces for inst in insts])
    tr = traces[:, live]
    states = retrodicted_states(np.stack([inst.pom_stack for inst in insts]), traces, live)
    states = states.reshape((-1,) + states.shape[-2:])
    member = np.repeat(np.arange(n_inst), n)
    am = np.stack([np.asarray(x) for x in a])
    obs = am[:, None]
    if b is not None:
        bm = np.stack([np.asarray(x) for x in b])
        obs = np.stack([am, bm], axis=1)
        specs = spectra(b)
        proj = np.stack([spec.projector_stack for spec in specs])
        kraus = np.stack([inst.kraus_stack for inst in insts])
        # T_k divides each trace by Tr P_k; the conditioned states divide
        # A*_k(Π_b') before the trace.  The two orders round differently.
        forward = channel(kraus, present, proj)[:, live]
        # One posterior branch b' at a time bounds the product at (N, n_live, n_b, d, d).
        table = np.stack([expectation(p[:, None, None], forward) for p in proj.swapaxes(0, 1)], axis=-1)
        table /= tr[:, :, None, None]
        backward = channel(kraus, present, proj, dual=True)[:, live] / tr[:, :, None, None, None]
        weights = np.real(np.trace(backward, axis1=-2, axis2=-1))
        posterior = weights > ZERO_WEIGHT
        conditioned = validated_states(backward[posterior] / weights[posterior][:, None, None])
        states = np.concatenate([states, conditioned])
        member = np.concatenate([member, np.nonzero(posterior)[0]])
    # Rows: the retrodictive states of every instrument, then its live conditioned
    # states, instrument by instrument and outcome by outcome.  The moments keep their
    # own traces, outside ``expectation``: an overflowed A^2 must reach ``clip_at_floor``
    # and raise InternalNumericError.
    squares = obs @ obs
    mean = np.real(np.trace(obs[member] @ states[:, None], axis1=-2, axis2=-1))
    second = np.real(np.trace(squares[member] @ states[:, None], axis1=-2, axis2=-1))
    var = clip_at_floor(second - mean * mean, ROUNDOFF_FLOOR, "variance")
    sd = np.sqrt(var).tolist()
    labels = [inst.live_labels for inst in insts]
    if b is None:
        return [{label: OutcomeKernel(*sd[i * n + k]) for k, label in enumerate(labels[i])} for i in range(n_inst)]
    values = np.stack([spec.eigenvalues for spec in specs])
    diff = values[:, :, None] - values[:, None, :]
    msd = clip_at_floor(np.sum(diff[:, None] ** 2 * table, axis=(-2, -1)), SECOND_MOMENT_FLOOR, "second moment")
    eta = np.sqrt(msd).tolist()
    restricted: list = [[[None] * len(spec.eigenvalues) for _ in range(n)] for spec in specs]
    rows = zip(mean[n_inst * n :, 1].tolist(), var[n_inst * n :, 1].tolist(), sd[n_inst * n :])
    weight_rows, branch_values = weights.tolist(), values.tolist()
    for (i, k, idx), (mean_b, var_b, (eps_a, eps_b)) in zip(np.argwhere(posterior).tolist(), rows):
        eta_b = math.sqrt(var_b + (branch_values[i][idx] - mean_b) ** 2)
        restricted[i][k][idx] = RestrictedMetrics(weight_rows[i][k][idx], eps_a, eps_b, eta_b, mean_b)
    c_ab = commutator_bound(am[:, None], bm[:, None], states[: n_inst * n].reshape(tr.shape + am.shape[-2:])).tolist()
    return [
        {
            label: OutcomeKernel(
                *sd[i * n + k],
                c_ab[i][k],
                QuasiDistribution.on_branches(specs[i], "b", "b'", table[i, k]),
                tuple(weight_rows[i][k]),
                tuple(restricted[i][k]),
                eta[i][k],
            )
            for k, label in enumerate(labels[i])
        }
        for i in range(n_inst)
    ]


def outcome_kernel(
    inst: Instrument, label: str, a: HermitianOperator, b: HermitianOperator | None = None
) -> OutcomeKernel:
    """The row of :func:`outcome_kernels` of one outcome; a null one raises NullOutcome."""
    inst.live_index(label)
    return outcome_kernels([inst], [a], None if b is None else [b])[0][label]


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

"""Single-outcome error and disturbance via retrodictive and interdictive states.

These quantities are intrinsic to an instrument outcome: no preparation
state enters any signature.  Degenerate observables are handled at the
eigen-branch level, with squared deviations taken between branch
eigenvalues.  :func:`outcome_kernels` computes them in one stacked pass over
the live outcomes of N instruments, from their stacked maps A_k and A*_k on
the stacked spectral projectors of B, and returns them as the stacks over
(member, outcome) of an :class:`OutcomeKernels`.  The four single-outcome
functions run that pass over their one instrument and read the row k of their
outcome; a null outcome raises NullOutcome before the pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ZeroPosterior
from .instruments import Instrument, channel
from .operators import (
    HermitianOperator,
    clip_at_floor,
    commutator_bound,
    expectation,
    expectation_and_variance,
    hermitian_part,
    spectra,
    validated_states,
)
from .quasiprob import QuasiDistribution, unit_mass
from .tolerances import SECOND_MOMENT_FLOOR, ZERO_WEIGHT


@dataclass(frozen=True)
class RestrictedMetrics:
    """Per-posterior quantities under the doubly conditioned retrodictive state."""

    p_posterior: float
    eps_A: float
    eps_B: float
    eta_B: float
    retro_mean_B: float


# A stack that grows with the block, the kernel's T_k product (N, n_live, n_b, k, d, d)
# or a sweep window's Kraus stacks (N, n_outcomes, L, d, d), holds at most this
# many complex entries.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True, eq=False)
class OutcomeKernels:
    """The single-outcome quantities of the live outcomes of N instruments, stacked
    over (member, outcome) with the outcomes in declared order.  ``eps`` ``(N, n, 1)``
    holds ε_A,k and, with B, ``(N, n, 2)`` ε_A,k and ε_B,k: the spreads of A and B in
    the retrodictive state P_k / Tr P_k.  With B, ``c_ab`` is C_AB,k in that state and
    ``eta`` η_B,k = sqrt(Σ (B_b - B_b')² T_k[b, b']), both ``(N, n)``; ``table`` is the
    interdictive table T_k[b, b'] = Tr[Π_b' A_k(Π_b)] / Tr P_k ``(N, n, n_b, n_b)``,
    ``weights`` the posterior weights p(b'|k) = Tr A*_k(Π_b') / Tr P_k ``(N, n, n_b)``,
    ``posterior`` marks the weights above ZERO_WEIGHT, and ``restricted``
    ``(N, n, n_b, 5)`` holds the fields of :class:`RestrictedMetrics` in order, NaN off
    ``posterior``."""

    eps: np.ndarray
    c_ab: np.ndarray | None = None
    eta: np.ndarray | None = None
    table: np.ndarray | None = None
    weights: np.ndarray | None = None
    posterior: np.ndarray | None = None
    restricted: np.ndarray | None = None


def outcome_kernels(
    insts: Sequence[Instrument],
    a: Sequence[HermitianOperator],
    b: Sequence[HermitianOperator] | None = None,
) -> OutcomeKernels:
    """The single-outcome quantities of the live outcomes of N ≥ 1 instruments of one
    Kraus stack shape and live mask, each with its own A and, if given, its own B.  Their
    states form one grid ``(N, n_live, 1 + n_b, d, d)``, and every product is a stacked
    ``matmul``, so every value has the bits of its per-matrix computation, whatever the
    block; A and B are squared once per member.  Each gate runs once, on a stacked
    output, and names the first failing (member, outcome), or (member, outcome, column)
    on the grid.  A block that is empty, or whose counts of instruments, A and B differ,
    raises DimensionMismatch before any stacking.
    """
    counts = (len(insts), len(a)) + (() if b is None else (len(b),))
    if not insts or len(set(counts)) > 1:
        raise DimensionMismatch(f"outcome_kernels needs one A (and B) per instrument, at least one; got {counts}")
    live = insts[0].live_mask
    if len({(inst.kraus_stack.shape, inst.live_mask.tobytes()) for inst in insts}) > 1:
        raise DimensionMismatch("outcome_kernels needs instruments of one Kraus stack shape and live mask")
    tr = np.stack([inst.pom_traces for inst in insts])[:, live]
    # The state grid (N, n_live, 1 + n_b, d, d): column 0 holds the retrodictive state P_k / Tr P_k.
    states = hermitian_part(np.stack([inst.pom_stack for inst in insts])[:, live] / tr[:, :, None, None])[:, :, None]
    obs = np.stack([np.stack([np.asarray(x) for x in ops]) for ops in ([a] if b is None else [a, b])], axis=1)
    if b is not None:
        specs = spectra(b)
        values = np.stack([spec.eigenvalues for spec in specs])
        proj = np.stack([spec.projector_stack for spec in specs])
        kraus = np.stack([inst.kraus_stack for inst in insts])[:, live]
        # T_k divides each trace by Tr P_k; the conditioned states divide
        # A*_k(Π_b') before the trace.  The two orders round differently.
        forward = channel(kraus, proj)[..., None, :, :]
        # A chunk of posterior branches b' at a time keeps the product within _BLOCK_ENTRIES.
        step = max(1, _BLOCK_ENTRIES // forward.size)
        chunks = [expectation(proj[:, None, None, j : j + step], forward) for j in range(0, proj.shape[1], step)]
        table = np.concatenate(chunks, axis=-1) / tr[:, :, None, None]
        backward = channel(kraus, proj, dual=True) / tr[:, :, None, None, None]
        weights = np.real(np.trace(backward, axis1=-2, axis2=-1))
        posterior = weights > ZERO_WEIGHT
        # Columns 1 + b' hold the conditioned states, and the state 1/d where p(b'|k) is
        # zero: that filler passes the gate like any state, and its results are masked out.
        divisor = np.where(posterior, weights, 1.0)[..., None, None]
        conditioned = np.where(posterior[..., None, None], backward / divisor, np.eye(insts[0].dim) / insts[0].dim)
        states = np.concatenate([states, conditioned], axis=2)
    states = validated_states(states)
    mean, var = expectation_and_variance(obs[:, None, None], states[..., None, :, :])
    sd = np.sqrt(var)
    eps = sd[:, :, 0]
    if b is None:
        return OutcomeKernels(eps)
    diff = values[:, :, None] - values[:, None, :]
    msd = clip_at_floor(np.sum(diff[:, None] ** 2 * table, axis=(-2, -1)), SECOND_MOMENT_FLOOR, "second moment")
    unit_mass(table)
    # η_B,k,b' in Python floats: (B_b' - mean)**2 is a libm power, which rounds unlike an array square.
    mean_b, var_b = mean[:, :, 1:, 1], var[:, :, 1:, 1]
    branch = np.broadcast_to(values[:, None], posterior.shape)
    eta_b = [math.sqrt(v + (x - m) ** 2) for v, x, m in zip(*(y.ravel().tolist() for y in (var_b, branch, mean_b)))]
    fields = np.stack([weights, sd[:, :, 1:, 0], sd[:, :, 1:, 1], np.reshape(eta_b, posterior.shape), mean_b], axis=-1)
    restricted = np.where(posterior[..., None], fields, np.nan)
    c_ab = commutator_bound(obs[:, None, 0], obs[:, None, 1], states[:, :, 0])
    return OutcomeKernels(eps, c_ab, np.sqrt(msd), table, weights, posterior, restricted)


def retrodictive_error(inst: Instrument, label: str, a: HermitianOperator) -> float:
    """Standard deviation of A under the retrodictive state for one outcome.

    This is the resolution of the outcome: it depends only on P_k and A,
    never on a preparation.
    """
    k = inst.live_index(label)
    return float(outcome_kernels([inst], [a]).eps[0, k, 0])


def interdictive_joint_distribution(inst: Instrument, label: str, b: HermitianOperator) -> QuasiDistribution:
    """True probability table p(b, b' | k) = Tr[Π_b' A_k(Π_b)] / Tr(P_k).

    Rows index the preparation branch b, columns the posterior branch b'.
    """
    k = inst.live_index(label)
    return QuasiDistribution.on_branches(b.spectrum, "b", "b'", outcome_kernels([inst], [b], [b]).table[0, k])


def interdictive_disturbance(inst: Instrument, label: str, b: HermitianOperator) -> float:
    """Root-mean-squared deviation between preparations and post-selections
    bracketing outcome k: sqrt(sum (B_b - B_b')^2 p(b, b' | k))."""
    k = inst.live_index(label)
    return float(outcome_kernels([inst], [b], [b]).eta[0, k])


def restricted_metrics(
    inst: Instrument, label: str, posterior_index: int, a: HermitianOperator, b: HermitianOperator
) -> RestrictedMetrics:
    """Restricted error/disturbance for one (outcome, posterior-branch) pair.

    The conditioned state is rho_{k,b'} = A*_k(Π_b') / (Tr(P_k) p(b'|k)).
    The disturbance obeys eta^2 = eps_B^2 + (B_b' - <B>)^2 exactly.
    """
    k = inst.live_index(label)
    ks = outcome_kernels([inst], [a], [b])
    weights = ks.weights[0, k].tolist()
    if not 0 <= posterior_index < len(weights):
        raise ZeroPosterior(f"no eigen-branch with index {posterior_index}")
    if not ks.posterior[0, k, posterior_index]:
        raise ZeroPosterior(f"posterior branch {posterior_index} has probability {weights[posterior_index]!r}")
    return RestrictedMetrics(*ks.restricted[0, k, posterior_index].tolist())

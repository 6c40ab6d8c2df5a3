"""Single-outcome error and disturbance via retrodictive and interdictive states.

These quantities are intrinsic to an instrument outcome: no preparation
state enters any signature.  Degenerate observables are handled at the
eigen-branch level, with squared deviations taken between branch
eigenvalues.  :func:`outcome_kernels` computes them in one stacked pass over
the live outcomes of N instruments, from their stacked maps A_k and A*_k on
the stacked spectral projectors of B, and returns them as the stacks over
(member, outcome) of an :class:`OutcomeKernels`.  The four single-outcome
functions run that pass over their one outcome and read its row, which has
the bits of that outcome's row of the full call.
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
from .quasiprob import QuasiDistribution, unit_mass
from .tolerances import ROUNDOFF_FLOOR, SECOND_MOMENT_FLOOR, ZERO_WEIGHT


@dataclass(frozen=True)
class RestrictedMetrics:
    """Per-posterior quantities under the doubly conditioned retrodictive state."""

    p_posterior: float
    eps_A: float
    eps_B: float
    eta_B: float
    retro_mean_B: float


# A stack that grows with the block, the kernel's T_k product (N, n_live, n_b, k, d, d)
# or a sweep window's Kraus stacks (N, n_outcomes, L_max, d, d), holds at most this
# many complex entries.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True, eq=False)
class OutcomeKernels:
    """The single-outcome quantities of the selected outcomes of N instruments, stacked
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
    select: np.ndarray | None = None,
) -> OutcomeKernels:
    """The single-outcome quantities of N ≥ 1 instruments of one Kraus layout and live
    mask, each with its own A and, if given, its own B, for the live outcomes that the
    mask ``select`` over the declared outcomes picks (all of them by default).  The
    instrument and outcome axes are stack axes, ``(N, n, n_b, d, d)``, and every product
    a stacked ``matmul``, so every value has the bits of its per-matrix computation,
    whatever the block and the selection; each gate runs once, on a stacked output, and
    names the first failing (member, outcome).  A block that is empty, or whose counts
    of instruments, A and B differ, raises DimensionMismatch before any stacking.
    """
    counts = (len(insts), len(a)) + (() if b is None else (len(b),))
    if not insts or len(set(counts)) > 1:
        raise DimensionMismatch(f"outcome_kernels needs one A (and B) per instrument, at least one; got {counts}")
    live, present = insts[0].live_mask, insts[0].kraus_present
    if len({(inst.kraus_present.tobytes(), inst.live_mask.tobytes()) for inst in insts}) > 1:
        raise DimensionMismatch("outcome_kernels needs instruments of one Kraus layout and live mask")
    select = live if select is None else select
    n_inst, n = len(insts), int(select.sum())
    traces = np.stack([inst.pom_traces for inst in insts])
    tr = traces[:, select]
    states = retrodicted_states(np.stack([inst.pom_stack for inst in insts]), traces, select)
    states = states.reshape((-1,) + states.shape[-2:])
    member = np.repeat(np.arange(n_inst), n)
    am = np.stack([np.asarray(x) for x in a])
    obs = am[:, None]
    if b is not None:
        bm = np.stack([np.asarray(x) for x in b])
        obs = np.stack([am, bm], axis=1)
        specs = spectra(b)
        values = np.stack([spec.eigenvalues for spec in specs])
        proj = np.stack([spec.projector_stack for spec in specs])
        kraus, present = np.stack([inst.kraus_stack for inst in insts])[:, select], present[select]
        # T_k divides each trace by Tr P_k; the conditioned states divide
        # A*_k(Π_b') before the trace.  The two orders round differently.
        forward = channel(kraus, present, proj)[..., None, :, :]
        # A chunk of posterior branches b' at a time keeps the product within _BLOCK_ENTRIES.
        step = max(1, _BLOCK_ENTRIES // forward.size)
        chunks = [expectation(proj[:, None, None, j : j + step], forward) for j in range(0, proj.shape[1], step)]
        table = np.concatenate(chunks, axis=-1) / tr[:, :, None, None]
        backward = channel(kraus, present, proj, dual=True) / tr[:, :, None, None, None]
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
    sd = np.sqrt(var)
    eps = sd[: n_inst * n].reshape(n_inst, n, -1)
    if b is None:
        return OutcomeKernels(eps)
    diff = values[:, :, None] - values[:, None, :]
    msd = clip_at_floor(np.sum(diff[:, None] ** 2 * table, axis=(-2, -1)), SECOND_MOMENT_FLOOR, "second moment")
    unit_mass(table)
    # η_B,k,b' in Python floats: (B_b' - mean)**2 is a libm power, which rounds unlike an array square.
    mean_b, var_b = mean[n_inst * n :, 1], var[n_inst * n :, 1]
    branch = np.broadcast_to(values[:, None], posterior.shape)[posterior]
    eta_b = [math.sqrt(v + (x - m) ** 2) for v, x, m in zip(var_b.tolist(), branch.tolist(), mean_b.tolist())]
    restricted = np.full(posterior.shape + (5,), np.nan)
    restricted[posterior] = np.column_stack([weights[posterior], sd[n_inst * n :], eta_b, mean_b])
    c_ab = commutator_bound(am[:, None], bm[:, None], states[: n_inst * n].reshape(tr.shape + am.shape[-2:]))
    return OutcomeKernels(eps, c_ab, np.sqrt(msd), table, weights, posterior, restricted)


def _outcome(inst: Instrument, label: str, a: HermitianOperator, b: HermitianOperator | None = None) -> OutcomeKernels:
    """The pass over outcome ``label`` alone, in row ``[0, 0]``; a null one raises NullOutcome."""
    inst.live_index(label)
    return outcome_kernels([inst], [a], None if b is None else [b], np.array(inst.labels) == label)


def retrodictive_error(inst: Instrument, label: str, a: HermitianOperator) -> float:
    """Standard deviation of A under the retrodictive state for one outcome.

    This is the resolution of the outcome: it depends only on P_k and A,
    never on a preparation.
    """
    return float(_outcome(inst, label, a).eps[0, 0, 0])


def interdictive_joint_distribution(inst: Instrument, label: str, b: HermitianOperator) -> QuasiDistribution:
    """True probability table p(b, b' | k) = Tr[Π_b' A_k(Π_b)] / Tr(P_k).

    Rows index the preparation branch b, columns the posterior branch b'.
    """
    return QuasiDistribution.on_branches(b.spectrum, "b", "b'", _outcome(inst, label, b, b).table[0, 0])


def interdictive_disturbance(inst: Instrument, label: str, b: HermitianOperator) -> float:
    """Root-mean-squared deviation between preparations and post-selections
    bracketing outcome k: sqrt(sum (B_b - B_b')^2 p(b, b' | k))."""
    return float(_outcome(inst, label, b, b).eta[0, 0])


def restricted_metrics(
    inst: Instrument, label: str, posterior_index: int, a: HermitianOperator, b: HermitianOperator
) -> RestrictedMetrics:
    """Restricted error/disturbance for one (outcome, posterior-branch) pair.

    The conditioned state is rho_{k,b'} = A*_k(Π_b') / (Tr(P_k) p(b'|k)).
    The disturbance obeys eta^2 = eps_B^2 + (B_b' - <B>)^2 exactly.
    """
    ks = _outcome(inst, label, a, b)
    weights = ks.weights[0, 0].tolist()
    if not 0 <= posterior_index < len(weights):
        raise ZeroPosterior(f"no eigen-branch with index {posterior_index}")
    if not ks.posterior[0, 0, posterior_index]:
        raise ZeroPosterior(f"posterior branch {posterior_index} has probability {weights[posterior_index]!r}")
    return RestrictedMetrics(*ks.restricted[0, 0, posterior_index].tolist())

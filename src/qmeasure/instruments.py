"""Quantum instruments: outcome-indexed Kraus families and contextual values.

An :class:`Instrument` is the mathematical stand-in for a laboratory
apparatus: each outcome carries a set of Kraus operators, the induced POM
elements give outcome probabilities, and a value assignment over outcome
labels turns the apparatus into an effective observable on the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CompletenessViolation,
    DimensionMismatch,
    DuplicateLabel,
    MissingLabel,
    NotExpressible,
    NullOutcome,
    StateValidationError,
    UnknownLabel,
)
from .operators import (
    DensityOperator,
    HermitianOperator,
    as_complex_matrix,
    at_index,
    expectation,
    hermitian_part,
    max_norm,
    prebuilt,
    validated_states,
)
from .tolerances import CV_RESIDUAL_TOL, IDENTITY_TOL, POM_PSD_FLOOR, ZERO_WEIGHT

# Value assignments are plain mappings from outcome label to real value.
ValueAssignment = Mapping[str, float]


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators belonging to one outcome label: finite, square and of one
    dimension.  The :class:`Instrument` that holds them runs :func:`kraus_gate`."""

    label: str
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_complex_matrix(m, square=True) for m in self.operators)
        if not ops:
            raise DimensionMismatch(f"outcome {self.label!r} has no Kraus operators")
        dims = {m.shape[0] for m in ops}
        if len(dims) != 1:
            raise DimensionMismatch(f"outcome {self.label!r} mixes dimensions {sorted(dims)}")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True, eq=False)
class IndirectModel:
    """Explicit system-detector model: U acting on rho_S ⊗ rho_D, read in a basis."""

    system_dim: int
    detector_state: DensityOperator
    unitary: np.ndarray
    readout_basis: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        d_s = self.system_dim
        d_d = self.detector_state.dim
        u = as_complex_matrix(self.unitary, square=True)
        if u.shape[0] != d_s * d_d:
            raise DimensionMismatch(
                f"unitary dimension {u.shape[0]} != system * detector = {d_s * d_d}"
            )
        if max_norm(u.conj().T @ u - np.eye(d_s * d_d)) > IDENTITY_TOL:
            raise CompletenessViolation(f"coupling matrix is not unitary to {IDENTITY_TOL}")
        vectors = [np.asarray(v, dtype=complex) for v in self.readout_basis]
        wrong = [v.shape for v in vectors if v.size != d_d]
        if wrong:
            raise DimensionMismatch(f"readout vectors of shape {wrong}, need {d_d} entries each")
        basis = tuple(v.reshape(d_d) for v in vectors)
        if len(basis) != d_d:
            raise DimensionMismatch(f"readout basis has {len(basis)} vectors, need {d_d}")
        gram = np.array([[vi.conj() @ vj for vj in basis] for vi in basis])
        if max_norm(gram - np.eye(d_d)) > IDENTITY_TOL:
            raise CompletenessViolation(f"readout basis is not orthonormal to {IDENTITY_TOL}")
        labels = tuple(self.labels)
        if len(labels) != d_d:
            raise DimensionMismatch(f"{len(labels)} labels for {d_d} readout vectors")
        if len(set(labels)) != len(labels):
            raise DuplicateLabel("readout labels must be unique")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "readout_basis", basis)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True, eq=False)
class Instrument:
    """Validated family of Kraus sets, one per outcome label.

    Build through :meth:`from_kraus` or :meth:`from_indirect`, or many at once
    through :func:`instruments_of`.  The constructor checks the declared dimension,
    stacks the Kraus operators ``(n_outcomes, L, d, d)``, L the largest Kraus count,
    with zeros in an outcome's spare slots (they add nothing to a Kraus sum), and
    passes them, as a block of one, through the gates of :func:`instruments_of`,
    which give the POM stack with its traces Tr P_k; ``outcomes`` keeps each
    outcome's own operators.  An outcome is null when its trace is at most ``ZERO_WEIGHT``.
    """

    outcomes: tuple[KrausSet, ...]
    dim: int
    kraus_stack: np.ndarray = field(init=False, repr=False, compare=False)
    pom_stack: np.ndarray = field(init=False, repr=False, compare=False)
    pom_traces: np.ndarray = field(init=False, repr=False, compare=False)
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = {ks.dim for ks in self.outcomes}
        if dims != {self.dim}:
            raise DimensionMismatch(f"Kraus dimensions {sorted(dims)} != declared {self.dim}")
        slots = max(len(ks.operators) for ks in self.outcomes)
        kraus = np.zeros((1, len(self.outcomes), slots, self.dim, self.dim), dtype=complex)
        for k, ks in enumerate(self.outcomes):
            kraus[0, k, : len(ks.operators)] = ks.operators
        pom, traces, shared = _gated(kraus, [ks.label for ks in self.outcomes])
        for name, value in dict(shared, kraus_stack=kraus[0], pom_stack=pom[0], pom_traces=traces[0]).items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_kraus(cls, sets: Sequence[KrausSet]) -> "Instrument":
        sets = tuple(sets)
        if not sets:
            raise DimensionMismatch("instrument needs at least one outcome")
        return cls(sets, sets[0].dim)

    @classmethod
    def from_indirect(cls, model: IndirectModel) -> "Instrument":
        """Kraus operators M_{k,l} = sqrt(p_l) <k|U|l> over detector eigenbranches.

        Eigenbranches with weight at or below ``ZERO_WEIGHT`` are dropped; every outcome
        keeps the same count, so the stack is gated as a block of one.
        """
        d_s, d_d = model.system_dim, model.detector_state.dim
        p_l, vecs = np.linalg.eigh(model.detector_state.matrix)
        u4 = model.unitary.reshape(d_s, d_d, d_s, d_d)
        blocks = np.einsum("kb,ibjd,dl->klij", np.array(model.readout_basis).conj(), u4, vecs)
        keep = p_l > ZERO_WEIGHT
        kraus = np.sqrt(p_l[keep])[:, None, None] * blocks[:, keep]
        return instruments_of(kraus[None], model.labels)[0]

    def _position(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"no outcome labelled {label!r}") from None

    def outcome(self, label: str) -> KrausSet:
        return self.outcomes[self._position(label)]

    def pom(self) -> tuple[HermitianOperator, ...]:
        """POM elements P_k = sum_l M†_{k,l} M_{k,l}, in declared outcome order."""
        return self._pom

    @cached_property
    def _pom(self) -> tuple[HermitianOperator, ...]:
        return tuple(HermitianOperator(p) for p in self.pom_stack)

    def pom_element(self, label: str) -> HermitianOperator:
        return self._pom[self._position(label)]

    def pom_trace(self, label: str) -> float:
        """Tr P_k of one outcome."""
        return float(self.pom_traces[self._position(label)])

    @cached_property
    def live_mask(self) -> np.ndarray:
        """Tr P_k > ZERO_WEIGHT per outcome, in declared order."""
        return self.pom_traces > ZERO_WEIGHT

    @cached_property
    def live_labels(self) -> tuple[str, ...]:
        """Labels of the outcomes that are not null, in declared order."""
        return tuple(label for label, live in zip(self.labels, self.live_mask) if live)

    def live_index(self, label: str) -> int:
        """Position of a live outcome in ``live_labels``; a null outcome raises NullOutcome."""
        if label not in self.live_labels:
            raise NullOutcome(f"outcome {label!r} has POM trace {self.pom_trace(label)!r}")
        return self.live_labels.index(label)

    def outcome_probabilities(self, rho) -> np.ndarray:
        """Tr(P_k rho) per outcome, in declared order on the last axis; ``rho`` may be
        unnormalized, and a stack ``(..., d, d)`` of them gives ``(..., n_outcomes)``."""
        rm = np.asarray(rho)
        return expectation(self.pom_stack, rm[..., None, :, :] if rm.ndim > 2 else rm)

    def apply_nonselective(self, rho) -> np.ndarray:
        """Post-measurement operator with the outcome record discarded: :func:`nonselective`
        of this instrument.  ``rho`` may be unnormalized."""
        return nonselective(self.kraus_stack[None], np.asarray(rho)[None])[0]

    def effective_observable(self, values: ValueAssignment) -> HermitianOperator:
        """Observable sum_k m_k P_k actually estimated by the apparatus."""
        return HermitianOperator(effective_observables(self.pom_stack[None], [[value_row(self, values)]])[0, 0])

    def contextual_values(self, target: HermitianOperator) -> dict[str, float]:
        """Minimum-norm values solving sum_k m_k P_k = target, keyed by label."""
        m = solve_contextual_values(self.pom_stack, target)
        return {label: float(v) for label, v in zip(self.labels, m)}

    def moment_values(self, a: HermitianOperator, n: int) -> dict[str, float]:
        """Contextual values m^(n) of the n-th moment, the symmetrized power
        (A^n + A^n†)/2; only that power is solved.  Raises NotExpressible if
        it lies outside the POM span."""
        if n < 1:
            raise ValueError(f"moment order must be >= 1, got {n}")
        am = np.asarray(a)
        power = am
        for _ in range(n - 1):
            power = power @ am
        return self.contextual_values(HermitianOperator((power + power.conj().T) / 2))


def value_row(inst: Instrument | IndirectModel, values: ValueAssignment) -> list[float]:
    """The values m_k of an assignment as floats, in the outcome order of an instrument
    or the readout order of an indirect model; a missing label raises MissingLabel."""
    missing = [label for label in inst.labels if label not in values]
    if missing:
        raise MissingLabel(f"no value assigned to outcome {missing[0]!r}")
    return [float(values[label]) for label in inst.labels]


def kraus_gate(kraus: np.ndarray, labels: Sequence[str]) -> None:
    """The Kraus-operator gates on the stacks ``(N, n_outcomes, L, d, d)`` of N
    instruments with one label per outcome: every entry must be finite
    (StateValidationError), and every outcome needs an operator that is not zero
    (CompletenessViolation).  The error names the first failing member."""
    norms = np.abs(kraus).max(axis=(-2, -1))
    if not np.isfinite(norms).all():
        raise StateValidationError(f"matrix entries must be finite{at_index(~np.isfinite(norms).all(axis=(-2, -1)))}")
    zero = ~(norms > 0).any(axis=-1)
    if zero.any():
        member = zero.any(axis=-1)
        label = labels[np.argmax(zero[np.argmax(member)])]
        raise CompletenessViolation(f"outcome {label!r} has only zero operators{at_index(member)}")


def pom_gate(kraus: np.ndarray, labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """POM stacks ``(N, n_outcomes, d, d)`` of the Kraus stacks of N instruments, as in
    :func:`kraus_gate`, with their traces ``(N, n_outcomes)``.  Each POM must sum to the
    identity within IDENTITY_TOL and each element have no eigenvalue below
    POM_PSD_FLOOR (CompletenessViolation, naming the first failing member); it is then
    symmetrized by ``hermitian_part``."""
    pom = kraus_sum(kraus, lambda m, mh: mh @ m)
    defect = np.abs(pom.sum(axis=-3) - np.eye(kraus.shape[-1])).max(axis=(-2, -1))
    incomplete = defect > IDENTITY_TOL
    if incomplete.any():
        raise CompletenessViolation(
            f"sum of M†M deviates from identity by {defect[incomplete][0]:.3e}{at_index(incomplete)} > {IDENTITY_TOL}"
        )
    not_psd = np.linalg.eigvalsh(pom).min(axis=-1) < POM_PSD_FLOOR
    if not_psd.any():
        member = not_psd.any(axis=-1)
        label = labels[np.argmax(not_psd[np.argmax(member)])]
        raise CompletenessViolation(f"POM element {label!r}{at_index(member)} is not PSD")
    pom = hermitian_part(pom)
    return pom, pom.trace(axis1=-2, axis2=-1).real


def _gated(kraus: np.ndarray, labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray, dict]:
    """POM stacks, traces and shared fields of Kraus stacks ``(N, n_outcomes, L, d, d)``
    past the label check, :func:`kraus_gate` and :func:`pom_gate`; all arrays read-only."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"duplicate outcome labels in {list(labels)}")
    kraus_gate(kraus, labels)
    pom, traces = pom_gate(kraus, labels)
    for value in (kraus, pom, traces):
        value.setflags(write=False)
    return pom, traces, {"labels": labels, "_index": {l: i for i, l in enumerate(labels)}}


def instruments_of(kraus: np.ndarray, labels: Sequence[str]) -> list[Instrument]:
    """N instruments of Kraus stacks ``(N, n_outcomes, L, d, d)`` that share the labels,
    every slot an operator of its outcome: the gates of :func:`kraus_gate` and
    :func:`pom_gate` run once on the stacks, and each instrument keeps its rows."""
    pom, traces, shared = _gated(kraus, labels)
    return [
        prebuilt(
            Instrument,
            outcomes=tuple(prebuilt(KrausSet, label=l, operators=tuple(ops)) for l, ops in zip(labels, k)),
            dim=kraus.shape[-1],
            kraus_stack=k,
            pom_stack=p,
            pom_traces=t,
            **shared,
        )
        for k, p, t in zip(kraus, pom, traces)
    ]


def kraus_sum(kraus: np.ndarray, term, ndim: int = 2) -> np.ndarray:
    """sum_l term(M, M†) over the Kraus stacks ``(..., n_outcomes, L, d, d)``, in l
    order; M broadcasts against ``ndim``-axis operands."""
    adjoint = kraus.conj().swapaxes(-1, -2)
    expand = kraus.shape[:-3] + (1,) * (ndim - 2) + kraus.shape[-2:]
    total = 0
    for l in range(kraus.shape[-3]):
        total = total + term(kraus[..., l, :, :].reshape(expand), adjoint[..., l, :, :].reshape(expand))
    return total


def channel(kraus: np.ndarray, x, dual: bool = False) -> np.ndarray:
    """A_k(x) = sum_l M x M† (``dual``: A*_k(x) = sum_l M† x M) of every outcome of N
    instruments ``(N, n_outcomes, L, d, d)``, one per operand ``(N, ..., d, d)``."""
    xm = np.asarray(x)
    d = kraus.shape[-1]
    if xm.shape[-2:] != (d, d):
        raise DimensionMismatch(f"operand shape {xm.shape[1:]} does not end in ({d}, {d})")
    xo = xm[:, None]
    sandwich = (lambda m, mh: (mh @ xo) @ m) if dual else (lambda m, mh: (m @ xo) @ mh)
    return hermitian_part(kraus_sum(kraus, sandwich, xm.ndim - 1))


def nonselective(kraus: np.ndarray, x, dual: bool = False) -> np.ndarray:
    """sum_k A_k(x) (``dual``: sum_k A*_k(x)) of N instruments ``(N, n_outcomes, L, d, d)``,
    one per operand ``(N, ..., d, d)``: the :func:`channel` rows summed in declared
    outcome order, then gated by ``hermitian_part``."""
    return hermitian_part(sum(channel(kraus, x, dual).swapaxes(0, 1)))


def effective_observables(pom: np.ndarray, values) -> np.ndarray:
    """sum_k m_k P_k in declared outcome order of N POM stacks ``(N, n_outcomes, d, d)``,
    each with its R rows of ``values`` ``(N, R, n_outcomes)``, R possibly 0, as ``(N, R, d, d)``."""
    m = np.asarray(values, dtype=float).reshape(len(pom), -1, pom.shape[1])
    return hermitian_part(sum(m[..., k, None, None] * pom[:, k, None] for k in range(pom.shape[1])))


def retrodicted_states(pom: np.ndarray, traces: np.ndarray, live: np.ndarray) -> np.ndarray:
    """P_k / Tr P_k of the live outcomes of POM stacks ``(..., n_outcomes, d, d)``."""
    return validated_states(hermitian_part(pom[..., live, :, :] / traces[..., live, None, None]))


def solve_contextual_values(pom, target: HermitianOperator) -> np.ndarray:
    """Minimum-Euclidean-norm solution of sum_k m_k P_k = target.

    ``pom`` is a stack ``(n, d, d)`` or a sequence of POM elements.  The solve
    is :func:`contextual_value_rows` of one member and one target.  Raises
    :class:`NotExpressible` if the residual exceeds ``CV_RESIDUAL_TOL`` in
    max-norm.
    """
    stack, tm = np.asarray(pom, dtype=complex), np.asarray(target)
    if len(stack) == 0 or stack.shape[1:] != tm.shape:
        raise DimensionMismatch(f"POM elements {stack.shape} and target {tm.shape} must share one dimension")
    m_vals, residual = contextual_value_rows(stack[None], tm[None, None])
    if residual[0, 0] > CV_RESIDUAL_TOL:
        raise NotExpressible(
            f"target outside POM span (residual {residual[0, 0]:.3e} > {CV_RESIDUAL_TOL})"
        )
    return m_vals[0, 0]


def contextual_value_rows(pom: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-Euclidean-norm values m of sum_k m_k P_k = X for each target X of
    ``targets`` ``(N, T, d, d)`` on the POM stack ``(N, n, d, d)`` of its member: the
    values ``(N, T, n)`` and the max-norm residual of each ``(N, T)``.

    POM elements and targets are vectorized over the real vector space of
    Hermitian matrices, and each (member, target) pair is one least-squares
    solve by pseudoinverse: a solve of several targets at once rounds otherwise.
    """
    n_members, n_targets, n = len(pom), targets.shape[1], pom.shape[1]
    design = np.concatenate([pom.real, pom.imag], axis=-2).reshape(n_members, n, -1).swapaxes(-1, -2)
    rhs = np.concatenate([targets.real, targets.imag], axis=-2).reshape(n_members, n_targets, -1)
    m = np.array([[np.linalg.lstsq(a, b, rcond=None)[0] for b in bs] for a, bs in zip(design, rhs)])
    fit = sum(m[..., k, None, None] * pom[:, None, k] for k in range(n))
    return m, np.abs(fit - targets).max(axis=(-2, -1))

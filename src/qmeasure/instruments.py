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
    UnknownLabel,
)
from .operators import (
    DensityOperator,
    HermitianOperator,
    as_complex_matrix,
    hermitian_part,
    max_norm,
)
from .tolerances import CV_RESIDUAL_TOL, IDENTITY_TOL, POM_PSD_FLOOR, ZERO_WEIGHT

# Value assignments are plain mappings from outcome label to real value.
ValueAssignment = Mapping[str, float]


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators belonging to one outcome label."""

    label: str
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_complex_matrix(m, square=True) for m in self.operators)
        if not ops:
            raise DimensionMismatch(f"outcome {self.label!r} has no Kraus operators")
        dims = {m.shape[0] for m in ops}
        if len(dims) != 1:
            raise DimensionMismatch(f"outcome {self.label!r} mixes dimensions {sorted(dims)}")
        if all(max_norm(m) == 0.0 for m in ops):
            raise CompletenessViolation(f"outcome {self.label!r} has only zero operators")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True)
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
        basis = tuple(np.asarray(v, dtype=complex).reshape(d_d) for v in self.readout_basis)
        if len(basis) != d_d:
            raise DimensionMismatch(f"readout basis has {len(basis)} vectors, need {d_d}")
        gram = np.array([[vi.conj() @ vj for vj in basis] for vi in basis])
        if max_norm(gram - np.eye(d_d)) > IDENTITY_TOL:
            raise CompletenessViolation(f"readout basis is not orthonormal to {IDENTITY_TOL}")
        labels = tuple(str(l) for l in self.labels)
        if len(labels) != d_d:
            raise DimensionMismatch(f"{len(labels)} labels for {d_d} readout vectors")
        if len(set(labels)) != len(labels):
            raise DuplicateLabel("readout labels must be unique")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "readout_basis", basis)
        object.__setattr__(self, "labels", labels)

    def readout_observable(self, values: ValueAssignment) -> np.ndarray:
        """Detector-space observable sum_k m_k |k><k| for the given values."""
        d_d = self.detector_state.dim
        m = np.zeros((d_d, d_d), dtype=complex)
        for label, vec in zip(self.labels, self.readout_basis):
            if label not in values:
                raise MissingLabel(f"no value assigned to readout label {label!r}")
            m += float(values[label]) * np.outer(vec, vec.conj())
        return m


@dataclass(frozen=True)
class Instrument:
    """Validated family of Kraus sets, one per outcome label.

    Build through :meth:`from_kraus` or :meth:`from_indirect`; the constructor
    enforces completeness and positivity of the induced POM, and keeps it
    with the trace Tr P_k of each element.  An outcome is null when its
    trace is at most ``ZERO_WEIGHT``; every other outcome is live.
    """

    outcomes: tuple[KrausSet, ...]
    dim: int
    _pom: tuple[HermitianOperator, ...] = field(init=False, repr=False, compare=False)
    _traces: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _retrodicted: dict[str, DensityOperator] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = [ks.label for ks in self.outcomes]
        if len(set(labels)) != len(labels):
            raise DuplicateLabel(f"duplicate outcome labels in {labels}")
        dims = {ks.dim for ks in self.outcomes}
        if dims != {self.dim}:
            raise DimensionMismatch(f"Kraus dimensions {sorted(dims)} != declared {self.dim}")
        pom = [sum(m.conj().T @ m for m in ks.operators) for ks in self.outcomes]
        defect = max_norm(sum(pom) - np.eye(self.dim))
        if defect > IDENTITY_TOL:
            raise CompletenessViolation(
                f"sum of M†M deviates from identity by {defect:.3e} > {IDENTITY_TOL}"
            )
        for label, p in zip(labels, pom):
            if np.linalg.eigvalsh(p).min() < POM_PSD_FLOOR:
                raise CompletenessViolation(f"POM element {label!r} is not PSD")
        pom = tuple(HermitianOperator(p) for p in pom)
        object.__setattr__(self, "_pom", pom)
        object.__setattr__(self, "_traces", tuple(float(np.real(np.trace(p.matrix))) for p in pom))
        object.__setattr__(self, "_index", {label: i for i, label in enumerate(labels)})
        object.__setattr__(self, "_retrodicted", {})

    @classmethod
    def from_kraus(cls, sets: Sequence[KrausSet]) -> "Instrument":
        sets = tuple(sets)
        if not sets:
            raise DimensionMismatch("instrument needs at least one outcome")
        return cls(sets, sets[0].dim)

    @classmethod
    def from_indirect(cls, model: IndirectModel) -> "Instrument":
        """Kraus operators M_{k,l} = sqrt(p_l) <k|U|l> over detector eigenbranches.

        Eigenbranches with weight at or below ``ZERO_WEIGHT`` are dropped.
        """
        d_s, d_d = model.system_dim, model.detector_state.dim
        p_l, vecs = np.linalg.eigh(model.detector_state.matrix)
        u4 = model.unitary.reshape(d_s, d_d, d_s, d_d)
        sets = []
        for label, k_vec in zip(model.labels, model.readout_basis):
            ops = []
            for l in range(d_d):
                if p_l[l] <= ZERO_WEIGHT:
                    continue
                l_vec = vecs[:, l]
                block = np.einsum("b,ibjd,d->ij", k_vec.conj(), u4, l_vec)
                ops.append(np.sqrt(p_l[l]) * block)
            sets.append(KrausSet(label, tuple(ops)))
        return cls(tuple(sets), d_s)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(ks.label for ks in self.outcomes)

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

    def pom_element(self, label: str) -> HermitianOperator:
        return self._pom[self._position(label)]

    def pom_trace(self, label: str) -> float:
        """Tr P_k of one outcome."""
        return self._traces[self._position(label)]

    @cached_property
    def live_labels(self) -> tuple[str, ...]:
        """Labels of the live outcomes, Tr P_k > ZERO_WEIGHT, in declared order."""
        return tuple(label for label, tr in zip(self.labels, self._traces) if tr > ZERO_WEIGHT)

    def live_trace(self, label: str) -> float:
        """Tr P_k of a live outcome; a null outcome raises NullOutcome."""
        tr = self.pom_trace(label)
        if label not in self.live_labels:
            raise NullOutcome(f"outcome {label!r} has POM trace {tr!r}")
        return tr

    def retrodicted_state(self, label: str) -> DensityOperator:
        """P_k / Tr P_k: the state inferred backward from a live outcome under
        a uniform prior.  Built on first use and kept."""
        if label not in self._retrodicted:
            tr = self.live_trace(label)
            state = DensityOperator(self.pom_element(label).matrix / tr)
            self._retrodicted[label] = state
        return self._retrodicted[label]

    def outcome_probabilities(self, rho) -> np.ndarray:
        """Tr(P_k rho) per outcome, in declared order; ``rho`` may be unnormalized."""
        rm = np.asarray(rho)
        if rm.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"state shape {rm.shape} != ({self.dim}, {self.dim})")
        return np.array([float(np.real(np.trace(p.matrix @ rm))) for p in self._pom])

    def _kraus_sum(self, label: str, x, dual: bool) -> np.ndarray:
        """sum_l M x M† (``dual``: sum_l M† x M) over one outcome's Kraus operators
        in l order, gated by ``hermitian_part``; ``x`` is a matrix or a stack
        ``(..., d, d)``, and each matrix of a stack gets the bits of its own call."""
        ops = self.outcome(label).operators
        xm = np.asarray(x)
        if xm.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(f"operand shape {xm.shape} does not end in ({self.dim}, {self.dim})")
        total = 0
        for m in ops:
            mh = m.conj().T
            total = total + ((mh @ xm) @ m if dual else (m @ xm) @ mh)
        return hermitian_part(total)

    def apply_selective(self, label: str, rho) -> np.ndarray:
        """Unnormalized post-measurement operator A_k(rho) = sum_l M rho M† of one outcome."""
        return self._kraus_sum(label, rho, dual=False)

    def apply_nonselective(self, rho) -> np.ndarray:
        """Post-measurement operator with the outcome record discarded: the sum
        of A_k(rho) over all outcomes.  ``rho`` may be unnormalized."""
        return hermitian_part(sum(self.apply_selective(ks.label, rho) for ks in self.outcomes))

    def adjoint_apply(self, label: str, x) -> np.ndarray:
        """Heisenberg-picture dual A*_k(X) = sum_l M† X M of one outcome."""
        return self._kraus_sum(label, x, dual=True)

    def adjoint_nonselective(self, x) -> np.ndarray:
        """Dual of the nonselective channel: the sum of A*_k(X) over all outcomes."""
        return hermitian_part(sum(self.adjoint_apply(ks.label, x) for ks in self.outcomes))

    def effective_observable(self, values: ValueAssignment) -> HermitianOperator:
        """Observable sum_k m_k P_k actually estimated by the apparatus."""
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for ks, p in zip(self.outcomes, self._pom):
            if ks.label not in values:
                raise MissingLabel(f"no value assigned to outcome {ks.label!r}")
            total += float(values[ks.label]) * p.matrix
        return HermitianOperator(total)

    def contextual_values(self, target: HermitianOperator) -> dict[str, float]:
        """Minimum-norm values solving sum_k m_k P_k = target, keyed by label."""
        m = solve_contextual_values(self.pom(), target)
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


def squared_values(values: ValueAssignment) -> dict[str, float]:
    """The pointwise-squared spectrum {label: m_k^2}."""
    return {label: float(v) ** 2 for label, v in values.items()}


def solve_contextual_values(
    pom: Sequence[HermitianOperator], target: HermitianOperator
) -> np.ndarray:
    """Minimum-Euclidean-norm solution of sum_k m_k P_k = target.

    The POM elements are vectorized over the real vector space of Hermitian
    matrices and the system is solved by pseudoinverse.  Raises
    :class:`NotExpressible` if the residual exceeds ``CV_RESIDUAL_TOL`` in
    max-norm.
    """
    if not pom:
        raise DimensionMismatch("empty POM")
    mats = [np.asarray(p) for p in pom]
    tm = np.asarray(target)
    if any(m.shape != tm.shape for m in mats):
        raise DimensionMismatch("POM elements and target must share dimension")

    def vec(h: np.ndarray) -> np.ndarray:
        return np.concatenate([h.real.ravel(), h.imag.ravel()])

    design = np.column_stack([vec(m) for m in mats])
    m_vals, *_ = np.linalg.lstsq(design, vec(tm), rcond=None)
    residual = max_norm(sum(v * m for v, m in zip(m_vals, mats)) - tm)
    if residual > CV_RESIDUAL_TOL:
        raise NotExpressible(
            f"target outside POM span (residual {residual:.3e} > {CV_RESIDUAL_TOL})"
        )
    return m_vals

"""Terletsky-Margenau-Hill quasiprobabilities and their weak-probe estimation.

The joint tables built here may carry negative entries; negativity is the
point, so it is preserved and never clipped.  A tunable-strength two-outcome
probe reproduces each table operationally with an O(g^2) deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalNumericError,
    InvalidStrength,
    ZeroProbabilityConditioning,
)
from .instruments import (
    HermitianOperator,
    Instrument,
    ValueAssignment,
    solve_contextual_values,
)
from .operators import (
    DensityOperator,
    SpectralDecomposition,
    expectation,
    hermitian_part,
    jordan_product,
    max_norm,
    spectral_decompose,
)
from .tolerances import CV_RESIDUAL_TOL, IDENTITY_TOL, MASS_TOL, ZERO_WEIGHT


@dataclass(frozen=True)
class QuasiDistribution:
    """Real (possibly negative) table over two labelled index sets.

    ``row_values`` / ``col_values`` attach the physical values (eigenvalues
    or assigned outcome values) used in mean-squared differences.  Total
    mass must be 1 to MASS_TOL.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    table: np.ndarray
    row_values: np.ndarray
    col_values: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.shape != (len(self.row_labels), len(self.col_labels)):
            raise InternalNumericError(
                f"table shape {table.shape} does not match labels "
                f"({len(self.row_labels)}, {len(self.col_labels)})"
            )
        mass = float(table.sum())
        if abs(mass - 1.0) > MASS_TOL:
            raise InternalNumericError(f"total mass {mass!r} deviates from 1 beyond {MASS_TOL}")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "row_values", np.asarray(self.row_values, dtype=float))
        object.__setattr__(self, "col_values", np.asarray(self.col_values, dtype=float))

    @classmethod
    def on_branches(cls, spec: SpectralDecomposition, rows: str, cols: str, table) -> "QuasiDistribution":
        """A table over the eigen-branches of one operator, labelled ``rows``0, ...
        and ``cols``0, ..., with the branch eigenvalues as values on both sides."""
        return cls(spec.labels(rows), spec.labels(cols), table, spec.eigenvalues, spec.eigenvalues)

    @property
    def row_marginals(self) -> np.ndarray:
        return self.table.sum(axis=1)

    @property
    def col_marginals(self) -> np.ndarray:
        return self.table.sum(axis=0)


@dataclass(frozen=True)
class WeakProbe:
    """Two-outcome probe of strength g targeting a spectral projector.

    Kraus pair M_± = sqrt((1±g)/2) Π + sqrt((1∓g)/2) (1-Π); calibration
    values n_± = (1 ± 1/g)/2 invert the probe POM back onto Π.  The
    calibration is obtained from the contextual-value solver and verified
    against the closed form.
    """

    projector: HermitianOperator
    strength: float
    kraus_plus: np.ndarray
    kraus_minus: np.ndarray
    value_plus: float
    value_minus: float

    @classmethod
    def build(cls, projector: HermitianOperator, g: float) -> "WeakProbe":
        if not 0.0 < g <= 1.0:
            raise InvalidStrength(f"probe strength {g!r} outside (0, 1]")
        pm = np.asarray(projector)
        if max_norm(pm @ pm - pm) > IDENTITY_TOL:
            raise InternalNumericError("probe target is not idempotent")
        ident = np.eye(pm.shape[0])
        comp = ident - pm
        m_plus = np.sqrt((1 + g) / 2) * pm + np.sqrt((1 - g) / 2) * comp
        m_minus = np.sqrt((1 - g) / 2) * pm + np.sqrt((1 + g) / 2) * comp
        pom = [HermitianOperator(m_plus.conj().T @ m_plus), HermitianOperator(m_minus.conj().T @ m_minus)]
        n = solve_contextual_values(pom, projector)
        closed = np.array([(1 + 1 / g) / 2, (1 - 1 / g) / 2])
        if max_norm(n - closed) > CV_RESIDUAL_TOL * (1 + 1 / g):
            raise InternalNumericError("probe calibration disagrees with closed form")
        return cls(projector, float(g), m_plus, m_minus, float(closed[0]), float(closed[1]))

    def kraus(self) -> tuple[np.ndarray, np.ndarray]:
        return self.kraus_plus, self.kraus_minus

    def calibration(self) -> tuple[float, float]:
        return self.value_plus, self.value_minus


def _error_table(spec: SpectralDecomposition, inst: Instrument, values: ValueAssignment, table):
    """A table over the eigen-branches a of A (rows) and the outcomes k, valued m_k (columns)."""
    values_k = np.array([float(values[label]) for label in inst.labels])
    return QuasiDistribution(spec.labels("a"), inst.labels, table, spec.eigenvalues, values_k)


def tmh_error_distribution(
    rho: DensityOperator,
    a: HermitianOperator,
    inst: Instrument,
    values: ValueAssignment,
) -> QuasiDistribution:
    """Joint table p~(a, k) = <Π_a * P_k> over eigenbranches of A and outcomes."""
    spec = spectral_decompose(a)
    pom = inst.pom()
    table = np.array(
        [[expectation(jordan_product(proj, p_k), rho) for p_k in pom] for proj in spec.projectors]
    )
    return _error_table(spec, inst, values, table)


def tmh_disturbance_distribution(
    rho: DensityOperator, b: HermitianOperator, inst: Instrument
) -> QuasiDistribution:
    """Joint table p~(b', b) = <Q_b' * Π_b> with Q_b' the back-propagated projector."""
    spec = spectral_decompose(b)
    q = inst.adjoint_nonselective(spec.projector_stack)
    table = np.array(
        [[expectation(jordan_product(q_bp, proj_b), rho) for proj_b in spec.projectors] for q_bp in q]
    )
    return QuasiDistribution.on_branches(spec, "b'", "b", table)


def quasi_mean_squared_difference(dist: QuasiDistribution) -> float:
    """sum over cells of (row_value - col_value)^2 * weight."""
    diff = dist.row_values[:, None] - dist.col_values[None, :]
    return float(np.sum(diff**2 * dist.table))


def conditional_weak_value(
    rho: DensityOperator, projector: HermitianOperator, pom_element: HermitianOperator
) -> float:
    """Generalized weak value Re Tr(P_k Π rho) / Tr(P_k rho); may leave [0, 1]."""
    p_k, pi, rm = np.asarray(pom_element), np.asarray(projector), np.asarray(rho)
    denom = float(np.real(np.trace(p_k @ rm)))
    if denom <= ZERO_WEIGHT:
        raise ZeroProbabilityConditioning(f"outcome probability {denom!r} too small")
    return float(np.real(np.trace(p_k @ pi @ rm))) / denom


def weak_probe_error_distribution(
    rho: DensityOperator,
    a: HermitianOperator,
    inst: Instrument,
    values: ValueAssignment,
    g: float,
) -> QuasiDistribution:
    """Operational estimate of the error quasidistribution at probe strength g.

    For each eigenbranch Π_a, probe first, then run the instrument; the
    calibrated sum over probe outcomes approximates p~(a, k) with an error
    that scales as (1 - sqrt(1 - g^2)) times the coherence cross term.
    """
    spec = spectral_decompose(a)
    rm = np.asarray(rho)
    rows = []
    for proj in spec.projectors:
        probe = WeakProbe.build(proj, g)
        row = np.zeros(len(inst.labels))
        for m_l, n_l in zip(probe.kraus(), probe.calibration()):
            row += n_l * inst.outcome_probabilities(m_l @ rm @ m_l.conj().T)
        rows.append(row)
    return _error_table(spec, inst, values, np.array(rows))


def weak_probe_disturbance_distribution(
    rho: DensityOperator, b: HermitianOperator, inst: Instrument, g: float
) -> QuasiDistribution:
    """Operational estimate of the disturbance quasidistribution at strength g.

    Probe an eigenbranch of B, apply the instrument nonselectively, then
    measure the eigenbranches of B again; calibrated sums over probe
    outcomes approximate p~(b', b).
    """
    spec = spectral_decompose(b)
    rm = np.asarray(rho)
    table = np.zeros((len(spec.branches), len(spec.branches)))
    for j, proj_b in enumerate(spec.projectors):
        probe = WeakProbe.build(proj_b, g)
        for m_l, n_l in zip(probe.kraus(), probe.calibration()):
            after = inst.apply_nonselective(hermitian_part(m_l @ rm @ m_l.conj().T))
            table[:, j] += n_l * np.real(np.trace(spec.projector_stack @ after, axis1=-2, axis2=-1))
    return QuasiDistribution.on_branches(spec, "b'", "b", table)

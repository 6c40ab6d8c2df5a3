"""Terletsky-Margenau-Hill quasiprobabilities and their weak-probe estimation.

The joint tables built here may carry negative entries; negativity is the
point, so it is preserved and never clipped.  Each TMH table is one stacked
Jordan product of two projector or POM stacks, read by one stacked
``expectation``, over a block of N scenarios; the per-scenario functions are
blocks of one, and ``ScenarioContext`` holds the tables of its block.  A two-outcome
probe reproduces each table with an O(g^2) deviation, at G strengths in one stacked pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalNumericError,
    InvalidStrength,
    ZeroProbabilityConditioning,
)
from .instruments import HermitianOperator, Instrument, ValueAssignment, nonselective, value_row
from .operators import (
    DensityOperator,
    SpectralDecomposition,
    at_index,
    expectation,
    hermitian_part,
    jordan_product,
    max_norm,
    spectra,
    spectral_decompose,
)
from .tolerances import CV_RESIDUAL_TOL, IDENTITY_TOL, MASS_TOL, ZERO_WEIGHT


@dataclass(frozen=True, eq=False)
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
        unit_mass(table)
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


def unit_mass(tables: np.ndarray) -> np.ndarray:
    """A table or a stack ``(..., rows, cols)`` of tables, returned after the mass gate: a
    total mass off 1 by more than MASS_TOL, or NaN, raises InternalNumericError naming the
    first failing table of a stack."""
    mass = tables.sum(axis=(-2, -1))
    off = ~(np.abs(mass - 1.0) <= MASS_TOL)
    if off.any():
        raise InternalNumericError(f"total mass {float(mass[off][0])!r}{at_index(off)} deviates from 1 beyond {MASS_TOL}")
    return tables


def weak_probe(projectors, g) -> tuple[np.ndarray, np.ndarray]:
    """Two-outcome probes of strength g, one per projector Π of a stack ``(n, d, d)``.

    Returns the Kraus stack ``(n, 2, d, d)`` of M_± = sqrt((1±g)/2) Π +
    sqrt((1∓g)/2) (1-Π), and the calibration values n_± = (1 ± 1/g)/2 that
    invert each probe POM back onto its Π: n_+ M_+†M_+ + n_- M_-†M_- = Π is
    checked for every strength and projector to ``CV_RESIDUAL_TOL``.  For a vector
    of G strengths, both gain a leading axis of G rows, each with the bits of its own
    call; a strength outside (0, 1] raises InvalidStrength naming the first.
    """
    gv = np.asarray(g, dtype=float)
    if bad := [x for x in gv.ravel().tolist() if not 0.0 < x <= 1.0]:
        raise InvalidStrength(f"probe strength {bad[0]!r} outside (0, 1]")
    pm = np.asarray(projectors, dtype=complex)
    if max_norm(pm @ pm - pm) > IDENTITY_TOL:
        raise InternalNumericError("probe target is not idempotent")
    comp = np.eye(pm.shape[-1]) - pm
    strong, weak = np.sqrt((1 + gv) / 2)[..., None, None, None], np.sqrt((1 - gv) / 2)[..., None, None, None]
    kraus = np.stack([strong * pm + weak * comp, weak * pm + strong * comp], axis=-3)
    calibration = np.stack([(1 + 1 / gv) / 2, (1 - 1 / gv) / 2], axis=-1)
    pom = kraus.conj().swapaxes(-1, -2) @ kraus
    residual = max_norm((calibration[..., None, :, None, None] * pom).sum(axis=-3) - pm)
    if residual > CV_RESIDUAL_TOL:
        raise InternalNumericError(f"probe calibration residual {residual:.3e} > {CV_RESIDUAL_TOL}")
    return kraus, calibration


def _error_table(spec: SpectralDecomposition, inst: Instrument, row, table):
    """A table over the eigen-branches a of A (rows) and the outcomes k, valued by ``row`` (columns)."""
    return QuasiDistribution(spec.labels("a"), inst.labels, table, spec.eigenvalues, np.array(row))


def tmh_error_stack(rho, a, insts, values) -> list[QuasiDistribution]:
    """Joint tables p~(a, k) = <Π_a * P_k> over the eigen-branches of A and the outcomes
    of N members: states ``(N, d, d)``, N observables A of one branch count (else
    DimensionMismatch, before any stacking), and the instruments with their value rows."""
    specs = spectra(a)
    counts = sorted({len(spec.eigenvalues) for spec in specs})
    if len(counts) > 1:
        raise DimensionMismatch(f"a block's error tables need one branch count of A, got {counts}")
    proj = np.stack([spec.projector_stack for spec in specs])
    pom = np.stack([inst.pom_stack for inst in insts])
    tables = expectation(jordan_product(proj[:, :, None], pom[:, None]), rho[:, None, None])
    return [_error_table(*member) for member in zip(specs, insts, values, tables)]


def tmh_error_distribution(
    rho: DensityOperator, a: HermitianOperator, inst: Instrument, values: ValueAssignment
) -> QuasiDistribution:
    """Joint table p~(a, k) of one estimation: :func:`tmh_error_stack` on a stack of one."""
    return tmh_error_stack(np.asarray(rho)[None], [a], [inst], [value_row(inst, values)])[0]


def tmh_disturbance_stack(rho, b, kraus) -> list[QuasiDistribution]:
    """Joint tables p~(b', b) = <Q_b' * Π_b> of N members, with Q_b' = Σ_k A*_k(Π_b') the
    back-propagated projector: states ``(N, d, d)``, N observables B of one branch
    count, and the Kraus stacks ``(N, n_outcomes, L, d, d)``."""
    specs = spectra(b)
    proj = np.stack([spec.projector_stack for spec in specs])
    q = nonselective(kraus, proj, dual=True)
    tables = expectation(jordan_product(q[:, :, None], proj[:, None]), rho[:, None, None])
    return [QuasiDistribution.on_branches(spec, "b'", "b", table) for spec, table in zip(specs, tables)]


def tmh_disturbance_distribution(rho: DensityOperator, b: HermitianOperator, inst: Instrument) -> QuasiDistribution:
    """Joint table p~(b', b) of one instrument: :func:`tmh_disturbance_stack` on a stack of one."""
    return tmh_disturbance_stack(np.asarray(rho)[None], [b], inst.kraus_stack[None])[0]


def quasi_mean_squared_difference(dist: QuasiDistribution) -> float:
    """sum over cells of (row_value - col_value)^2 * weight."""
    diff = dist.row_values[:, None] - dist.col_values[None, :]
    return float(np.sum(diff**2 * dist.table))


def conditional_weak_value(
    rho: DensityOperator, projector: HermitianOperator, pom_element: HermitianOperator
) -> float:
    """Generalized weak value Re Tr(P_k Π rho) / Tr(P_k rho); may leave [0, 1]."""
    p_k = np.asarray(pom_element)
    denom, numer = expectation(np.array([p_k, p_k @ np.asarray(projector)]), rho).tolist()
    if denom <= ZERO_WEIGHT:
        raise ZeroProbabilityConditioning(f"outcome probability {denom!r} too small")
    return numer / denom


def weak_probe_error_stack(rho: DensityOperator, a: HermitianOperator, inst: Instrument, g_values) -> np.ndarray:
    """Weak-probe estimates of p~(a, k) at G strengths, tables ``(G, n_branches, n_outcomes)``:
    for each eigenbranch Π_a, probe first, then run the instrument; the calibrated sum over
    probe outcomes approximates p~(a, k) with an error that scales as (1 - sqrt(1 - g^2))
    times the coherence cross term."""
    kraus, calibration = weak_probe(spectral_decompose(a).projector_stack, g_values)
    probs = inst.outcome_probabilities((kraus @ np.asarray(rho)) @ kraus.conj().swapaxes(-1, -2))
    n_plus, n_minus = calibration.T[..., None, None]
    return unit_mass(n_plus * probs[:, :, 0] + n_minus * probs[:, :, 1])


def weak_probe_error_distribution(
    rho: DensityOperator, a: HermitianOperator, inst: Instrument, values: ValueAssignment, g: float
) -> QuasiDistribution:
    """Weak-probe error table at one strength: :func:`weak_probe_error_stack` on a block of one."""
    table = weak_probe_error_stack(rho, a, inst, [g])[0]
    return _error_table(spectral_decompose(a), inst, value_row(inst, values), table)


def weak_probe_disturbance_stack(rho: DensityOperator, b: HermitianOperator, inst: Instrument, g_values) -> np.ndarray:
    """Weak-probe estimates of p~(b', b) at G strengths, tables ``(G, n_branches, n_branches)``:
    probe an eigenbranch of B, apply the instrument nonselectively, then measure the
    eigenbranches of B again; calibrated sums over probe outcomes approximate p~(b', b)."""
    spec = spectral_decompose(b)
    kraus, calibration = weak_probe(spec.projector_stack, g_values)
    after = inst.apply_nonselective(hermitian_part((kraus @ np.asarray(rho)) @ kraus.conj().swapaxes(-1, -2)))
    reads = expectation(spec.projector_stack[:, None, None], after[:, None])
    n_plus, n_minus = calibration.T[..., None, None]
    return unit_mass(n_plus * reads[..., 0] + n_minus * reads[..., 1])


def weak_probe_disturbance_distribution(
    rho: DensityOperator, b: HermitianOperator, inst: Instrument, g: float
) -> QuasiDistribution:
    """Weak-probe disturbance table at one strength: :func:`weak_probe_disturbance_stack` on a block of one."""
    table = weak_probe_disturbance_stack(rho, b, inst, [g])[0]
    return QuasiDistribution.on_branches(spectral_decompose(b), "b'", "b", table)

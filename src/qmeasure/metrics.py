"""Mean bias, mean-squared noise and disturbance, and related identities.

The same quantities are computable in the joint system-detector picture
(from an explicit unitary model) and in the reduced system picture (from
the instrument alone); the two must agree to ``CROSS_CHECK_TOL``, which the
test suite exercises as a cross-picture oracle.  In the system picture, ε²
and η² are one formula, <X_sq + A^2 - 2 X * A> with X = A_e[m] or B', and
every trace is ``operators.expectation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BiasedInstrument
from .instruments import IndirectModel, Instrument, ValueAssignment, squared_values
from .operators import (
    DensityOperator,
    HermitianOperator,
    clip_at_floor,
    cross_check,
    expectation,
    hermitian_part,
    jordan_product,
    max_norm,
    spectral_decompose,
    tensor_product,
)
from .tolerances import CV_RESIDUAL_TOL, IDENTITY_TOL, SECOND_MOMENT_FLOOR


@dataclass(frozen=True)
class NoiseReport:
    """Second-moment noise or disturbance with its three components.

    ``components`` is (first_term, second_term, cross_term) and the value is
    first + second - cross.  The cross term is reported separately because
    it is the piece with no direct single-experiment meaning.
    """

    delta: float
    mean_squared: float
    picture: str
    components: tuple[float, float, float]


def delta_A(
    inst: Instrument, values: ValueAssignment, a: HermitianOperator, rho: DensityOperator
) -> float:
    """Mean bias Tr[(A_e[m] - A) rho] of the estimation."""
    return expectation(inst.effective_observable(values).matrix - a.matrix, rho)


def _noise_report(delta: float, x, x_sq, a, a_sq, rho) -> NoiseReport:
    """<X_sq + A^2 - 2 X * A> with its three components, in the system picture:
    the squared noise with X = A_e[m], the squared disturbance with X = B'."""
    first, second, half_cross = expectation(np.array([x_sq, a_sq, jordan_product(x, a)]), rho).tolist()
    cross = 2 * half_cross
    value = clip_at_floor(first + second - cross, SECOND_MOMENT_FLOOR, "second moment")
    return NoiseReport(delta=delta, mean_squared=value, picture="system", components=(first, second, cross))


def epsilon_sq_system(
    inst: Instrument,
    values: ValueAssignment,
    a: HermitianOperator,
    rho: DensityOperator,
    a_e: HermitianOperator | None = None,
) -> NoiseReport:
    """Squared noise <A_e[m^2] + A^2 - 2 A_e[m] * A> in the system picture.

    The first term uses the squared spectrum per outcome, which differs
    from A_e[m]^2 whenever the POM is not projective.  ``a_e`` is A_e[m]
    when the caller has already built it.
    """
    am = np.asarray(a)
    a_e = np.asarray(inst.effective_observable(values) if a_e is None else a_e)
    a_e_sq = inst.effective_observable(squared_values(values)).matrix
    return _noise_report(expectation(a_e - am, rho), a_e, a_e_sq, am, hermitian_part(am @ am), rho)


def epsilon_sq_joint(
    model: IndirectModel,
    values: ValueAssignment,
    a: HermitianOperator,
    rho_s: DensityOperator,
) -> float:
    """Squared noise <N^2> with N = U†(1 ⊗ M[m])U - A ⊗ 1, under rho_S ⊗ rho_D."""
    u = model.unitary
    m_obs = model.readout_observable(values)
    d_d = model.detector_state.dim
    joint_m = tensor_product(np.eye(model.system_dim), m_obs)
    noise_op = u.conj().T @ joint_m @ u - tensor_product(a, np.eye(d_d))
    value = expectation(noise_op @ noise_op, tensor_product(rho_s, model.detector_state))
    return clip_at_floor(value, SECOND_MOMENT_FLOOR, "second moment")


def three_state_cross_term(
    inst: Instrument, values: ValueAssignment, a: HermitianOperator, rho: DensityOperator
) -> tuple[float, float]:
    """Both sides of the three-preparation identity for the cross term.

    The left side is 2<A_e[m] * A>; the right side expresses it through the
    (unnormalized) preparations (1+A) rho (1+A) and A rho A.
    """
    a_e = inst.effective_observable(values)
    am, rm = np.asarray(a), np.asarray(rho)
    lhs = 2 * expectation(jordan_product(a_e, a), rho)
    one_plus_a = np.eye(inst.dim) + am
    plus, plain, sandwich = expectation(a_e, np.array([one_plus_a @ rm @ one_plus_a, rm, am @ rm @ am])).tolist()
    return lhs, plus - plain - sandwich


def delta_B(inst: Instrument, b: HermitianOperator, rho: DensityOperator) -> float:
    """Mean shift Tr[B (rho' - rho)] caused by the nonselective measurement."""
    rho_after = DensityOperator(inst.apply_nonselective(rho))
    return expectation(b, rho_after.matrix - rho.matrix)


def eta_sq_system(inst: Instrument, b: HermitianOperator, rho: DensityOperator) -> NoiseReport:
    """Squared disturbance <(B^2)' + B^2 - 2 B' * B> in the system picture."""
    bm = np.asarray(b)
    b_sq = hermitian_part(bm @ bm)
    b_prime, b_sq_prime = inst.adjoint_nonselective(np.array([bm, b_sq]))
    return _noise_report(delta_B(inst, b, rho), b_prime, b_sq_prime, bm, b_sq, rho)


def eta_sq_joint(model: IndirectModel, b: HermitianOperator, rho_s: DensityOperator) -> float:
    """Squared disturbance <D^2> with D = U†(B ⊗ 1)U - B ⊗ 1."""
    u = model.unitary
    d_d = model.detector_state.dim
    joint_b = tensor_product(b, np.eye(d_d))
    diff_op = u.conj().T @ joint_b @ u - joint_b
    value = expectation(diff_op @ diff_op, tensor_product(rho_s, model.detector_state))
    return clip_at_floor(value, SECOND_MOMENT_FLOOR, "second moment")


def lindblad_perturbation(inst: Instrument, b: np.ndarray) -> np.ndarray:
    """Perturbation L_k(B) = -sum_l (M† [M, B] - [M†, B] M)/2 of every outcome,
    ``(n_outcomes, ..., d, d)``; ``b`` may be a stack.  This Lindblad form stays apart
    from the instrument's channel maps: it is the independent form eta^2 is checked against."""
    return inst.kraus_sum(lambda m, md: -(md @ (m @ b - b @ m) - (md @ b - b @ md) @ m) / 2, b.ndim)


def lindblad_decomposition(inst: Instrument, label: str, b: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Split sum_l M† B M into the Jordan part P_k * B and the Lindblad remainder,
    each gated by ``hermitian_part``."""
    jordan = jordan_product(inst.pom_element(label), b)
    return jordan, hermitian_part(lindblad_perturbation(inst, np.asarray(b))[inst.labels.index(label)])


def eta_sq_lindblad(inst: Instrument, b: HermitianOperator, rho: DensityOperator) -> float:
    """Disturbance recomputed from Lindblad perturbations only:
    sum_k <L_k(B^2) - 2 B * L_k(B)>."""
    bm = np.asarray(b)
    per_outcome = lindblad_perturbation(inst, np.array([bm, bm @ bm]))
    l_b, l_b2 = per_outcome[:, 0], per_outcome[:, 1]
    total = sum(expectation(l_b2 - (bm @ l_b + l_b @ bm), rho).tolist())
    return clip_at_floor(total, SECOND_MOMENT_FLOOR, "second moment")


def is_unbiased(a_e: HermitianOperator, a: HermitianOperator) -> bool:
    """True iff the estimated observable A_e[m] equals A as operators (to CV_RESIDUAL_TOL)."""
    return max_norm(np.asarray(a_e) - np.asarray(a)) <= CV_RESIDUAL_TOL


def is_qnd(inst: Instrument, b: HermitianOperator) -> bool:
    """True iff every Kraus operator commutes with B (to IDENTITY_TOL)."""
    bm, kraus = np.asarray(b), inst.kraus_stack
    return max_norm((kraus @ bm - bm @ kraus)[inst.kraus_present]) <= IDENTITY_TOL


def unbiased_dispersion(
    inst: Instrument, values: ValueAssignment, a: HermitianOperator, rho: DensityOperator
) -> float:
    """Dispersion of the mean for an unbiased estimation.

    Computed two independent ways and cross-checked to CROSS_CHECK_TOL:
    - eigen side: sum_k m_k^2 p_k - sum_a A_a^2 p_a;
    - contextual side: sum_k [m_k^2 - m^(2)_k] p_k with m^(2) solved
      against A^2 by the contextual-value solver.
    """
    if not is_unbiased(inst.effective_observable(values), a):
        raise BiasedInstrument("dispersion is defined only for unbiased estimations")
    p_k = inst.outcome_probabilities(rho)
    m_k = np.array([float(values[label]) for label in inst.labels])
    spec = spectral_decompose(a)
    p_a = expectation(spec.projector_stack, rho)
    eigen_side = float(m_k**2 @ p_k - spec.eigenvalues**2 @ p_a)

    m2 = inst.moment_values(a, 2)
    m2_k = np.array([m2[label] for label in inst.labels])
    contextual_side = float((m_k**2 - m2_k) @ p_k)
    cross_check("dispersion", eigen=eigen_side, contextual=contextual_side)
    return clip_at_floor(eigen_side, SECOND_MOMENT_FLOOR, "second moment")

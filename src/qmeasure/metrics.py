"""Mean bias, mean-squared noise and disturbance, and related identities.

The same quantities are computable in the joint system-detector picture
(from an explicit unitary model) and in the reduced system picture (from
the instrument alone); the two must agree to ``CROSS_CHECK_TOL``, which the
test suite exercises as a cross-picture oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BiasedInstrument
from .instruments import IndirectModel, Instrument, KrausSet, ValueAssignment, squared_values
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
    a_e = inst.effective_observable(values)
    return expectation(HermitianOperator(a_e.matrix - a.matrix), rho)


def epsilon_sq_system(
    inst: Instrument, values: ValueAssignment, a: HermitianOperator, rho: DensityOperator
) -> NoiseReport:
    """Squared noise <A_e[m^2] + A^2 - 2 A_e[m] * A> in the system picture.

    The first term uses the squared spectrum per outcome, which differs
    from A_e[m]^2 whenever the POM is not projective.
    """
    a_e = inst.effective_observable(values)
    a_e_sq = inst.effective_observable(squared_values(values))
    first = expectation(a_e_sq, rho)
    second = expectation(HermitianOperator(np.asarray(a) @ np.asarray(a)), rho)
    cross = 2 * expectation(jordan_product(a_e, a), rho)
    eps_sq = clip_at_floor(first + second - cross, SECOND_MOMENT_FLOOR, "second moment")
    return NoiseReport(
        delta=delta_A(inst, values, a, rho),
        mean_squared=eps_sq,
        picture="system",
        components=(first, second, cross),
    )


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
    joint_state = tensor_product(rho_s, model.detector_state)
    value = float(np.real(np.trace(noise_op @ noise_op @ joint_state)))
    return clip_at_floor(value, SECOND_MOMENT_FLOOR, "second moment")


def three_state_cross_term(
    inst: Instrument, values: ValueAssignment, a: HermitianOperator, rho: DensityOperator
) -> tuple[float, float]:
    """Both sides of the three-preparation identity for the cross term.

    The left side is 2<A_e[m] * A>; the right side expresses it through the
    (unnormalized) preparations (1+A) rho (1+A) and A rho A.
    """
    a_e = np.asarray(inst.effective_observable(values))
    am, rm = np.asarray(a), np.asarray(rho)
    lhs = 2 * expectation(jordan_product(HermitianOperator(a_e), a), rho)
    one_plus_a = np.eye(inst.dim) + am
    rho_plus = one_plus_a @ rm @ one_plus_a
    rho_sandwich = am @ rm @ am
    rhs = float(
        np.real(np.trace(a_e @ rho_plus) - np.trace(a_e @ rm) - np.trace(a_e @ rho_sandwich))
    )
    return lhs, rhs


def delta_B(inst: Instrument, b: HermitianOperator, rho: DensityOperator) -> float:
    """Mean shift Tr[B (rho' - rho)] caused by the nonselective measurement."""
    rho_after = DensityOperator(inst.apply_nonselective(rho))
    return expectation(b, HermitianOperator(rho_after.matrix - rho.matrix))


def eta_sq_system(inst: Instrument, b: HermitianOperator, rho: DensityOperator) -> NoiseReport:
    """Squared disturbance <(B^2)' + B^2 - 2 B' * B> in the system picture."""
    bm = np.asarray(b)
    b_sq = hermitian_part(bm @ bm)
    b_prime, b_sq_prime = inst.adjoint_nonselective(np.array([bm, b_sq]))
    first = expectation(b_sq_prime, rho)
    second = expectation(b_sq, rho)
    cross = 2 * expectation(jordan_product(b_prime, b), rho)
    eta_sq = clip_at_floor(first + second - cross, SECOND_MOMENT_FLOOR, "second moment")
    return NoiseReport(
        delta=delta_B(inst, b, rho),
        mean_squared=eta_sq,
        picture="system",
        components=(first, second, cross),
    )


def eta_sq_joint(model: IndirectModel, b: HermitianOperator, rho_s: DensityOperator) -> float:
    """Squared disturbance <D^2> with D = U†(B ⊗ 1)U - B ⊗ 1."""
    u = model.unitary
    d_d = model.detector_state.dim
    joint_b = tensor_product(b, np.eye(d_d))
    diff_op = u.conj().T @ joint_b @ u - joint_b
    joint_state = tensor_product(rho_s, model.detector_state)
    value = float(np.real(np.trace(diff_op @ diff_op @ joint_state)))
    return clip_at_floor(value, SECOND_MOMENT_FLOOR, "second moment")


def lindblad_perturbation(ks: KrausSet, b: np.ndarray) -> np.ndarray:
    """Perturbation L_k(B) = -sum_l (M† [M, B] - [M†, B] M)/2 of one outcome, in l
    order; ``b`` may be a stack.  This Lindblad form stays apart from the
    instrument's channel maps: it is the independent form eta^2 is checked against."""
    total = 0
    for m in ks.operators:
        md = m.conj().T
        total = total + -(md @ (m @ b - b @ m) - (md @ b - b @ md) @ m) / 2
    return total


def lindblad_decomposition(
    inst: Instrument, label: str, b: HermitianOperator
) -> tuple[HermitianOperator, HermitianOperator]:
    """Split sum_l M† B M into the Jordan part P_k * B and the Lindblad remainder."""
    jordan_part = jordan_product(inst.pom_element(label), b)
    return jordan_part, HermitianOperator(lindblad_perturbation(inst.outcome(label), np.asarray(b)))


def eta_sq_lindblad(inst: Instrument, b: HermitianOperator, rho: DensityOperator) -> float:
    """Disturbance recomputed from Lindblad perturbations only:
    sum_k <L_k(B^2) - 2 B * L_k(B)>."""
    bm = np.asarray(b)
    stack = np.array([bm, bm @ bm])
    total = 0.0
    for ks in inst.outcomes:
        l_b, l_b2 = lindblad_perturbation(ks, stack)
        term = l_b2 - (bm @ l_b + l_b @ bm)
        total += float(np.real(np.trace(term @ np.asarray(rho))))
    return clip_at_floor(total, SECOND_MOMENT_FLOOR, "second moment")


def is_unbiased(inst: Instrument, values: ValueAssignment, a: HermitianOperator) -> bool:
    """True iff A_e[m] = A as operators (to CV_RESIDUAL_TOL)."""
    a_e = inst.effective_observable(values)
    return max_norm(a_e.matrix - np.asarray(a)) <= CV_RESIDUAL_TOL


def is_qnd(inst: Instrument, b: HermitianOperator) -> bool:
    """True iff every Kraus operator commutes with B (to IDENTITY_TOL)."""
    bm = np.asarray(b)
    for ks in inst.outcomes:
        for m in ks.operators:
            if max_norm(m @ bm - bm @ m) > IDENTITY_TOL:
                return False
    return True


def unbiased_dispersion(
    inst: Instrument, values: ValueAssignment, a: HermitianOperator, rho: DensityOperator
) -> float:
    """Dispersion of the mean for an unbiased estimation.

    Computed two independent ways and cross-checked to CROSS_CHECK_TOL:
    - eigen side: sum_k m_k^2 p_k - sum_a A_a^2 p_a;
    - contextual side: sum_k [m_k^2 - m^(2)_k] p_k with m^(2) solved
      against A^2 by the contextual-value solver.
    """
    if not is_unbiased(inst, values, a):
        raise BiasedInstrument("dispersion is defined only for unbiased estimations")
    p_k = inst.outcome_probabilities(rho)
    m_k = np.array([float(values[label]) for label in inst.labels])
    spec = spectral_decompose(a)
    p_a = np.array([expectation(pi, rho) for pi in spec.projectors])
    eigen_side = float(m_k**2 @ p_k - spec.eigenvalues**2 @ p_a)

    m2 = inst.moment_values(a, 2)
    m2_k = np.array([m2[label] for label in inst.labels])
    contextual_side = float((m_k**2 - m2_k) @ p_k)
    cross_check("dispersion", eigen=eigen_side, contextual=contextual_side)
    return clip_at_floor(eigen_side, SECOND_MOMENT_FLOOR, "second moment")

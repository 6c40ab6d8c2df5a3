"""Mean bias, mean-squared noise and disturbance, and related identities.

The same quantities are computable in the joint system-detector picture
(from an explicit unitary model) and in the reduced system picture (from
the instrument alone); the two must agree to ``CROSS_CHECK_TOL``, which the
test suite exercises as a cross-picture oracle.  In the system picture, ε²
and η² are one formula, <X_sq + A^2 - 2 X * A> with X = A_e[m] or B', and
every trace is ``operators.expectation``; both are computed on stacks of N
estimations, and the per-scenario functions are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BiasedInstrument
from .instruments import IndirectModel, Instrument, ValueAssignment, channel, effective_observables, kraus_sum
from .instruments import value_row
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
    validated_states,
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
    return epsilon_sq_system(inst, values, a, rho).delta


def _noise_reports(delta, x, x_sq, a, a_sq, rho) -> list[NoiseReport]:
    """<X_sq + A^2 - 2 X * A> with its three components, in the system picture, of each
    member of stacks ``(N, d, d)``: the squared noise with X = A_e[m], the squared
    disturbance with X = B'."""
    parts = expectation(np.stack([x_sq, a_sq, jordan_product(x, a)], axis=1), rho[:, None])
    first, second, half_cross = parts.T
    cross = 2 * half_cross
    value = clip_at_floor(first + second - cross, SECOND_MOMENT_FLOOR, "second moment")
    rows = zip(*(np.asarray(col).tolist() for col in (delta, value, first, second, cross)))
    return [NoiseReport(dl, v, "system", (f, s, c)) for dl, v, f, s, c in rows]


def epsilon_sq_stack(pom, values, a, rho, a_e=None) -> list[NoiseReport]:
    """Squared noise <A_e[m^2] + A^2 - 2 A_e[m] * A> in the system picture of N
    estimations: POM stacks ``(N, n_outcomes, d, d)``, value rows (N lists of floats in
    outcome order), and A and rho ``(N, d, d)``.

    The first term uses the squared spectrum per outcome, which differs
    from A_e[m]^2 whenever the POM is not projective.  ``a_e`` is A_e[m]
    when the caller has already built it.
    """
    a_e = effective_observables(pom, values) if a_e is None else a_e
    # m_k^2 as float powers: an array square rounds differently in about one case in a thousand.
    a_e_sq = effective_observables(pom, [[m**2 for m in row] for row in values])
    return _noise_reports(expectation(a_e - a, rho), a_e, a_e_sq, a, hermitian_part(a @ a), rho)


def epsilon_sq_system(
    inst: Instrument, values: ValueAssignment, a: HermitianOperator, rho: DensityOperator
) -> NoiseReport:
    """Squared noise of one estimation: :func:`epsilon_sq_stack` on a stack of one."""
    am, rm = np.asarray(a)[None], np.asarray(rho)[None]
    return epsilon_sq_stack(inst.pom_stack[None], [value_row(inst, values)], am, rm)[0]


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
    return eta_sq_system(inst, b, rho).delta


def eta_sq_stack(kraus, present, b, rho) -> list[NoiseReport]:
    """Squared disturbance <(B^2)' + B^2 - 2 B' * B> in the system picture of N
    instruments ``(N, n_outcomes, L_max, d, d)`` of one Kraus mask ``present``, with B
    and rho ``(N, d, d)``; the mean shift is taken against the gated state after."""
    b_sq = hermitian_part(b @ b)
    primed = channel(kraus, present, np.stack([b, b_sq], axis=1), dual=True).swapaxes(0, 1)
    b_prime, b_sq_prime = hermitian_part(sum(primed)).swapaxes(0, 1)
    rho_after = validated_states(hermitian_part(sum(channel(kraus, present, rho).swapaxes(0, 1))))
    return _noise_reports(expectation(b, rho_after - rho), b_prime, b_sq_prime, b, b_sq, rho)


def eta_sq_system(inst: Instrument, b: HermitianOperator, rho: DensityOperator) -> NoiseReport:
    """Squared disturbance of one instrument: :func:`eta_sq_stack` on a stack of one."""
    return eta_sq_stack(inst.kraus_stack[None], inst.kraus_present, np.asarray(b)[None], np.asarray(rho)[None])[0]


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
    term = lambda m, md: -(md @ (m @ b - b @ m) - (md @ b - b @ md) @ m) / 2
    return kraus_sum(inst.kraus_stack, inst.kraus_present, term, b.ndim)


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


def is_unbiased(a_e, a):
    """True iff the estimated observable A_e[m] equals A as operators (to CV_RESIDUAL_TOL);
    for stacks ``(..., d, d)``, a list of bools."""
    ok = np.abs(np.asarray(a_e) - np.asarray(a)).max(axis=(-2, -1)) <= CV_RESIDUAL_TOL
    return bool(ok) if ok.ndim == 0 else ok.tolist()


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
    m_k = np.array(value_row(inst, values))
    spec = spectral_decompose(a)
    p_a = expectation(spec.projector_stack, rho)
    eigen_side = float(m_k**2 @ p_k - spec.eigenvalues**2 @ p_a)

    m2_k = np.array(value_row(inst, inst.moment_values(a, 2)))
    contextual_side = float((m_k**2 - m2_k) @ p_k)
    cross_check("dispersion", eigen=eigen_side, contextual=contextual_side)
    return clip_at_floor(eigen_side, SECOND_MOMENT_FLOOR, "second moment")

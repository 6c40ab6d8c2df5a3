"""Mean bias, mean-squared noise and disturbance, and related identities.

The same quantities are computable in the joint system-detector picture
(from an explicit unitary model) and in the reduced system picture (from
the instrument alone); the two must agree to ``CROSS_CHECK_TOL``, which the
test suite exercises as a cross-picture oracle.  In the system picture, ε²
and η² are one formula, <X_sq + A^2 - 2 X * A> with X = A_e[m] or B', which
:func:`noise_stack` evaluates with the estimates in one pass; in the joint
picture both are one <Z^2> with Z = U† X U - Y.  Every trace is
``operators.expectation`` and every outcome sum ``instruments.nonselective``.
ε², η², η² in its Lindblad form and the QND flag are computed on stacks of N
members, and the per-scenario functions are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BiasedInstrument
from .instruments import IndirectModel, Instrument, ValueAssignment, effective_observables, kraus_sum, nonselective
from .instruments import value_row
from .operators import (
    DensityOperator,
    HermitianOperator,
    clip_at_floor,
    cross_check,
    expectation,
    hermitian_part,
    jordan_product,
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


def _noise_reports(delta, x, x_sq, a, a_sq, rho) -> list[NoiseReport]:
    """<X_sq + A^2 - 2 X * A> with its three components, in the system picture, of each
    matrix of stacks ``(N, ..., d, d)`` (row-major) in states that broadcast with them:
    the squared noise with X = A_e[m], the squared disturbance with X = B'."""
    parts = expectation(np.stack([x_sq, a_sq, jordan_product(x, a)], axis=-3), rho[..., None, :, :])
    first, second, half_cross = np.moveaxis(parts, -1, 0)
    cross = 2 * half_cross
    value = clip_at_floor(first + second - cross, SECOND_MOMENT_FLOOR, "second moment")
    rows = zip(*(np.ravel(col).tolist() for col in (delta, value, first, second, cross)))
    return [NoiseReport(dl, v, "system", (f, s, c)) for dl, v, f, s, c in rows]


def noise_stack(pom, rows, obs, rho, kraus=None) -> tuple[np.ndarray, list[list[NoiseReport]]]:
    """ε² of N members and, with their Kraus stacks ``(N, n_outcomes, L, d, d)``, η², in one pass.
    One :func:`effective_observables` call builds, from the POM stacks ``(N, n_outcomes, d, d)``
    the value rows, one array ``(N, R, n_outcomes)`` squared as an array, the estimates ``(N, 2R, d, d)``:
    A_e[m] of each row, then A_e[m^2].  ε² of row j is taken against observable j of ``obs``
    ``(N, R_obs, d, d)`` and η² against the last, in states ``(N, d, d)``, by one ``_noise_reports``.
    Returns the estimates and, per member, ε² in row order, then η² (its δ against the gated state after)."""
    a_e = effective_observables(pom, np.concatenate([rows, rows**2], axis=1))
    r, obs_sq = a_e.shape[1] // 2, hermitian_part(obs @ obs)
    kinds = [(a_e[:, j], a_e[:, r + j], obs[:, j], obs_sq[:, j], a_e[:, j] - obs[:, j], rho) for j in range(r)]
    if kraus is not None:
        primed = nonselective(kraus, np.stack([obs[:, -1], obs_sq[:, -1]], axis=1), dual=True)
        b_prime, b_sq_prime = primed.swapaxes(0, 1)
        rho_after = validated_states(nonselective(kraus, rho))
        kinds.append((b_prime, b_sq_prime, obs[:, -1], obs_sq[:, -1], obs[:, -1], rho_after - rho))
    x, x_sq, target, target_sq, shifted, states = (np.stack(col, axis=1) for col in zip(*kinds))
    reports = _noise_reports(expectation(shifted, states), x, x_sq, target, target_sq, rho[:, None])
    return a_e, [reports[i : i + len(kinds)] for i in range(0, len(reports), len(kinds))]


def epsilon_sq_system(
    inst: Instrument, values: ValueAssignment, a: HermitianOperator, rho: DensityOperator
) -> NoiseReport:
    """Squared noise of one estimation: :func:`noise_stack` on a stack of one.  Its first term
    A_e[m^2] differs from A_e[m]^2 whenever the POM is not projective."""
    am, rm = np.asarray(a)[None, None], np.asarray(rho)[None]
    return noise_stack(inst.pom_stack[None], np.array([[value_row(inst, values)]]), am, rm)[1][0][0]


def _joint_sq(model: IndirectModel, x: np.ndarray, y: np.ndarray, rho_s: DensityOperator) -> float:
    """<Z^2> with Z = U† X U - Y, of joint operators X and Y, under rho_S ⊗ rho_D."""
    u = model.unitary
    z = u.conj().T @ x @ u - y
    value = expectation(z @ z, tensor_product(rho_s, model.detector_state))
    return clip_at_floor(value, SECOND_MOMENT_FLOOR, "second moment")


def epsilon_sq_joint(
    model: IndirectModel,
    values: ValueAssignment,
    a: HermitianOperator,
    rho_s: DensityOperator,
) -> float:
    """Squared noise <N^2> with N = U†(1 ⊗ M[m])U - A ⊗ 1, under rho_S ⊗ rho_D, where
    M[m] = sum_k m_k |k><k| is the detector observable the values read out."""
    m_obs = sum(m * np.outer(vec, vec.conj()) for m, vec in zip(value_row(model, values), model.readout_basis))
    joint_m = tensor_product(np.eye(model.system_dim), m_obs)
    return _joint_sq(model, joint_m, tensor_product(a, np.eye(model.detector_state.dim)), rho_s)


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


def eta_sq_system(inst: Instrument, b: HermitianOperator, rho: DensityOperator) -> NoiseReport:
    """Squared disturbance of one instrument: :func:`noise_stack` on a stack of one, no value rows."""
    bm, rm = np.asarray(b)[None, None], np.asarray(rho)[None]
    return noise_stack(inst.pom_stack[None], np.empty((1, 0, len(inst.labels))), bm, rm, inst.kraus_stack[None])[1][0][0]


def eta_sq_joint(model: IndirectModel, b: HermitianOperator, rho_s: DensityOperator) -> float:
    """Squared disturbance <D^2> with D = U†(B ⊗ 1)U - B ⊗ 1."""
    joint_b = tensor_product(b, np.eye(model.detector_state.dim))
    return _joint_sq(model, joint_b, joint_b, rho_s)


def lindblad_perturbation(kraus: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Perturbation L_k(B) = -sum_l (M† [M, B] - [M†, B] M)/2 of every outcome of N
    instruments ``(N, n_outcomes, L, d, d)``, one operand per instrument ``(N, ..., d, d)``,
    as ``(N, n_outcomes, ..., d, d)``.  This Lindblad form stays apart from the channel
    maps: it is the independent form eta^2 is checked against."""
    bo = b[:, None]
    term = lambda m, md: -(md @ (m @ bo - bo @ m) - (md @ bo - bo @ md) @ m) / 2
    return kraus_sum(kraus, term, b.ndim - 1)


def lindblad_decomposition(inst: Instrument, label: str, b: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Split sum_l M† B M into the Jordan part P_k * B and the Lindblad remainder,
    each gated by ``hermitian_part``."""
    jordan = jordan_product(inst.pom_element(label), b)
    lindblad = lindblad_perturbation(inst.kraus_stack[None], np.asarray(b)[None])[0]
    return jordan, hermitian_part(lindblad[inst.labels.index(label)])


def eta_sq_lindblad_stack(kraus, b, rho) -> list[float]:
    """Disturbance recomputed from Lindblad perturbations only,
    sum_k <L_k(B^2) - 2 B * L_k(B)>, of N instruments ``(N, n_outcomes, L, d, d)`` with
    B and rho ``(N, d, d)``; the outcome terms are summed in declared order."""
    per_outcome = lindblad_perturbation(kraus, np.stack([b, b @ b], axis=1))
    l_b, l_b2 = per_outcome[:, :, 0], per_outcome[:, :, 1]
    terms = expectation(l_b2 - 2 * jordan_product(b[:, None], l_b), rho[:, None])
    return clip_at_floor(sum(terms.T), SECOND_MOMENT_FLOOR, "second moment").tolist()


def eta_sq_lindblad(inst: Instrument, b: HermitianOperator, rho: DensityOperator) -> float:
    """Lindblad-form disturbance of one instrument: :func:`eta_sq_lindblad_stack` on a stack of one."""
    return eta_sq_lindblad_stack(inst.kraus_stack[None], np.asarray(b)[None], np.asarray(rho)[None])[0]


def is_unbiased(a_e, a):
    """True iff the estimated observable A_e[m] equals A as operators (to CV_RESIDUAL_TOL);
    for stacks ``(..., d, d)``, a list of bools."""
    ok = np.abs(np.asarray(a_e) - np.asarray(a)).max(axis=(-2, -1)) <= CV_RESIDUAL_TOL
    return bool(ok) if ok.ndim == 0 else ok.tolist()


def is_qnd_stack(kraus, b) -> list[bool]:
    """Whether every Kraus operator commutes with B (to IDENTITY_TOL), for N instruments
    ``(N, n_outcomes, L, d, d)`` with B ``(N, d, d)``."""
    bo = b[:, None, None]
    return (np.abs(kraus @ bo - bo @ kraus).max(axis=(1, 2, 3, 4)) <= IDENTITY_TOL).tolist()


def is_qnd(inst: Instrument, b: HermitianOperator) -> bool:
    """QND flag of one instrument: :func:`is_qnd_stack` on a stack of one."""
    return is_qnd_stack(inst.kraus_stack[None], np.asarray(b)[None])[0]


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

import dataclasses
import os

import numpy as np
import pytest

from qmeasure.errors import (
    DimensionMismatch,
    InternalNumericError,
    InvalidStrength,
    MissingIngredient,
    MissingLabel,
    ZeroProbabilityConditioning,
)
from qmeasure.inequalities import ScenarioContext, _members
from qmeasure.instruments import Instrument
from qmeasure.metrics import epsilon_sq_system, eta_sq_system, unbiased_dispersion
from qmeasure.operators import (
    SIGMA_X,
    SIGMA_Z,
    DensityOperator,
    HermitianOperator,
    expectation,
    hermitian_part,
    max_norm,
    spectral_decompose,
)
from qmeasure.quasiprob import (
    QuasiDistribution,
    conditional_weak_value,
    quasi_mean_squared_difference,
    tmh_disturbance_distribution,
    tmh_error_distribution,
    weak_probe,
    weak_probe_disturbance_distribution,
    weak_probe_disturbance_stack,
    weak_probe_error_distribution,
    weak_probe_error_stack,
)
from qmeasure.scenario import (
    _rng,
    generate_random,
    load_scenario,
    projective_instrument,
    random_density,
    random_hermitian,
    random_indirect_model,
    random_instrument,
    theta_pom_instrument,
)

THETA = np.pi / 3
UNBIASED_M = {"+": 2.0, "-": -2.0}
SZ = HermitianOperator(SIGMA_Z)
SX = HermitianOperator(SIGMA_X)


class TestQuasiDistribution:
    def test_mass_gate(self):
        with pytest.raises(InternalNumericError):
            QuasiDistribution(
                row_labels=("r",),
                col_labels=("c",),
                table=np.array([[0.9]]),
                row_values=np.array([1.0]),
                col_values=np.array([1.0]),
            )

    def test_negative_entries_preserved(self):
        d = QuasiDistribution(
            row_labels=("r0", "r1"),
            col_labels=("c",),
            table=np.array([[1.2], [-0.2]]),
            row_values=np.array([1.0, -1.0]),
            col_values=np.array([0.0]),
        )
        assert d.table[1, 0] == -0.2
        assert d.row_marginals == pytest.approx([1.2, -0.2])


class TestErrorDistribution:
    def test_co_diagonal_entries(self, ket_plus):
        # Diagonal POM with diagonal A: entries factor into classical terms
        # rho_aa * (P_k)_aa and stay nonnegative.
        inst = theta_pom_instrument(THETA)
        d = tmh_error_distribution(ket_plus, SZ, inst, UNBIASED_M)
        c = np.cos(THETA)
        expected = 0.5 * np.array([[(1 + c) / 2, (1 - c) / 2], [(1 - c) / 2, (1 + c) / 2]])
        assert max_norm(d.table - expected) < 1e-12
        assert d.table.min() >= -1e-12

    def test_marginals(self):
        rng = _rng(41)
        for _ in range(25):
            inst = random_instrument(2, 3, rng)
            rho = random_density(2, rng)
            a = random_hermitian(2, rng)
            values = {label: float(i) for i, label in enumerate(inst.labels)}
            d = tmh_error_distribution(rho, a, inst, values)
            spec = spectral_decompose(a)
            eig_probs = np.array([expectation(p, rho) for p in spec.projectors])
            out_probs = np.array([expectation(p, rho) for p in inst.pom()])
            assert max_norm(d.row_marginals - eig_probs) < 1e-10
            assert max_norm(d.col_marginals - out_probs) < 1e-10
            assert abs(d.table.sum() - 1.0) < 1e-10

    def test_negativity_exists(self):
        # Non-commuting A and POM with a coherent state produce negative cells.
        rho = DensityOperator(np.array([[0.8, 0.4], [0.4, 0.2]]))
        d = tmh_error_distribution(rho, SX, theta_pom_instrument(THETA), UNBIASED_M)
        assert d.table.min() < -1e-3

    def test_mean_squared_matches_direct(self):
        rng = _rng(42)
        for dim in (2, 3):
            for _ in range(25):
                inst = random_instrument(dim, 3, rng)
                rho = random_density(dim, rng)
                a = random_hermitian(dim, rng)
                values = {label: float(i) - 1.0 for i, label in enumerate(inst.labels)}
                d = tmh_error_distribution(rho, a, inst, values)
                direct = epsilon_sq_system(inst, values, a, rho).mean_squared
                assert abs(quasi_mean_squared_difference(d) - direct) < 1e-10


class TestDisturbanceDistribution:
    def test_qnd_diagonal(self):
        rng = _rng(43)
        inst = theta_pom_instrument(0.9)
        for _ in range(10):
            rho = random_density(2, rng)
            d = tmh_disturbance_distribution(rho, SZ, inst)
            off_diag = d.table - np.diag(np.diag(d.table))
            assert max_norm(off_diag) < 1e-12

    def test_projective_z_on_x(self, ket_plus):
        inst = projective_instrument(SZ)
        d = tmh_disturbance_distribution(ket_plus, SX, inst)
        # Q_b' = dephased sigma_x projector = 1/2, so p~(b', b) = <Pi_b>/2;
        # ket_plus puts all weight on the +1 column.
        assert max_norm(d.table - np.array([[0.5, 0.0], [0.5, 0.0]])) < 1e-12

    def test_mean_squared_matches_direct(self):
        rng = _rng(44)
        for dim in (2, 3):
            for _ in range(25):
                inst = random_instrument(dim, 3, rng)
                rho = random_density(dim, rng)
                b = random_hermitian(dim, rng)
                d = tmh_disturbance_distribution(rho, b, inst)
                direct = eta_sq_system(inst, b, rho).mean_squared
                assert abs(quasi_mean_squared_difference(d) - direct) < 1e-10


def _same_table(x: QuasiDistribution, y: QuasiDistribution) -> bool:
    return (x.row_labels, x.col_labels) == (y.row_labels, y.col_labels) and all(
        np.array_equal(getattr(x, name), getattr(y, name)) for name in ("table", "row_values", "col_values")
    )


def _bundled_members():
    directory = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    for name in sorted(os.listdir(directory)):
        s = load_scenario(os.path.join(directory, name))
        yield s, ScenarioContext([s])


def test_block_tables_have_the_bits_of_each_scenario():
    # Both context tables of every member, built for the whole block, equal the
    # per-scenario tables bit for bit, labels and values included.
    members = [*_members([2, 3, 5, 8], 10, 31, 4), *_bundled_members()]
    assert max(len(ctx.scenarios) for _, ctx in members) > 1
    for s, ctx in members:
        i = ctx.position(s)
        own = tmh_error_distribution(s.state, s.observable_A, s.apparatus, s.values_m)
        assert _same_table(ctx.error_distribution[i], own)
        if s.observable_B is None:
            with pytest.raises(MissingIngredient):
                ctx.disturbance_distribution
        else:
            own = tmh_disturbance_distribution(s.state, s.observable_B, s.apparatus)
            assert _same_table(ctx.disturbance_distribution[i], own)


def test_a_block_of_two_branch_counts_of_a_is_a_dimension_mismatch():
    # A = 1 has one branch, the other member's A two; the signature does not key on it.
    s1 = generate_random(2, 4, 1)
    s2 = dataclasses.replace(generate_random(2, 4, 2), observable_A=HermitianOperator(np.eye(2)))
    ctx = ScenarioContext([s1, s2])
    with pytest.raises(DimensionMismatch, match=r"one branch count of A, got \[1, 2\]"):
        ctx.error_distribution


class TestWeakValues:
    def test_eigenstate_sharp(self, ket0):
        inst = theta_pom_instrument(THETA)
        proj = HermitianOperator(np.diag([1.0, 0.0]))
        wv = conditional_weak_value(ket0, proj, inst.pom_element("+"))
        assert wv == pytest.approx(1.0, abs=1e-12)

    def test_anomalous_value(self):
        # Near-orthogonal pre/post-selection pushes the weak value outside [0, 1].
        rho = DensityOperator(np.array([[0.8, 0.4], [0.4, 0.2]]))
        proj = HermitianOperator((np.eye(2) + SIGMA_X) / 2)
        pom = theta_pom_instrument(THETA).pom_element("-")
        wv = conditional_weak_value(rho, proj, pom)
        assert wv < 0.0 or wv > 1.0

    def test_bayes_decomposition(self):
        # Summing weak values against outcome probabilities recovers <Pi>.
        rng = _rng(45)
        inst = random_instrument(2, 3, rng)
        rho = random_density(2, rng)
        proj = spectral_decompose(random_hermitian(2, rng)).projectors[0]
        total = 0.0
        for label in inst.labels:
            pk = inst.pom_element(label)
            p = expectation(pk, rho)
            total += p * conditional_weak_value(rho, proj, pk)
        assert total == pytest.approx(expectation(proj, rho), abs=1e-10)

    def test_zero_probability_rejected(self, ket1):
        pom = HermitianOperator(np.diag([1.0, 0.0]))
        with pytest.raises(ZeroProbabilityConditioning):
            conditional_weak_value(ket1, pom, pom)


class TestWeakProbe:
    def test_strength_gate(self):
        proj = np.array([np.diag([1.0, 0.0])])
        for g in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidStrength):
                weak_probe(proj, g)

    def test_completeness_all_strengths(self):
        proj = np.array([(np.eye(2) + SIGMA_X) / 2])
        for g in (1e-4, 0.1, 0.5, 1.0):
            kraus, _ = weak_probe(proj, g)
            mp, mm = kraus[0]
            assert max_norm(mp.conj().T @ mp + mm.conj().T @ mm - np.eye(2)) < 1e-12

    def test_calibration_closed_form(self):
        proj = np.array([np.diag([1.0, 0.0])])
        _, calibration = weak_probe(proj, 0.25)
        assert tuple(calibration) == pytest.approx(((1 + 4) / 2, (1 - 4) / 2), abs=1e-10)

    def test_non_projector_rejected(self):
        with pytest.raises(InternalNumericError):
            weak_probe(np.array([0.5 * np.eye(2)]), 0.5)

    def test_identity_target(self):
        # Π = 1 makes the two probe POM elements proportional, so the
        # calibration is not the minimum-norm solution; it must still pass.
        for g in (1e-3, 0.5, 1.0):
            _, calibration = weak_probe(np.array([np.eye(2)]), g)
            assert tuple(calibration) == ((1 + 1 / g) / 2, (1 - 1 / g) / 2)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_stack_has_the_bits_of_each_projector(self, dim):
        stack = random_hermitian(dim, _rng(81 + dim)).spectrum.projector_stack
        for g in (1e-3, 0.3, 1.0):
            kraus, calibration = weak_probe(stack, g)
            assert kraus.shape == (len(stack), 2, dim, dim)
            for i in range(len(stack)):
                own_kraus, own_calibration = weak_probe(stack[i : i + 1], g)
                assert np.array_equal(kraus[i], own_kraus[0])
                assert np.array_equal(calibration, own_calibration)


    def test_strength_vector_has_the_bits_of_each_strength(self):
        proj = random_hermitian(3, _rng(84)).spectrum.projector_stack
        strengths = [0.3, 1e-3]
        kraus, calibration = weak_probe(proj, strengths)
        assert kraus.shape == (2, len(proj), 2, 3, 3) and calibration.shape == (2, 2)
        for g, row_kraus, row_calibration in zip(strengths, kraus, calibration):
            own_kraus, own_calibration = weak_probe(proj, g)
            assert np.array_equal(row_kraus, own_kraus)
            assert np.array_equal(row_calibration, own_calibration)

    def test_a_strength_vector_names_its_first_bad_strength(self):
        with pytest.raises(InvalidStrength, match=r"^probe strength 0\.0 outside \(0, 1\]$"):
            weak_probe(np.array([np.diag([1.0, 0.0])]), [0.5, 0.0, 2.0])


def test_stacked_weak_tables_have_the_bits_of_each_strength():
    # One stacked pass over the sweep strengths and g = 1 gives, row by row, the
    # per-strength tables bit for bit.
    strengths = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 1.0]
    for s, _ in _bundled_members():
        rho, a, b, inst = s.state, s.observable_A, s.observable_B, s.apparatus
        error = weak_probe_error_stack(rho, a, inst, strengths)
        assert len(error) == len(strengths)
        for g, table in zip(strengths, error):
            assert np.array_equal(table, weak_probe_error_distribution(rho, a, inst, s.values_m, g).table)
        if b is not None:
            disturbance = weak_probe_disturbance_stack(rho, b, inst, strengths)
            assert len(disturbance) == len(strengths)
            for g, table in zip(strengths, disturbance):
                assert np.array_equal(table, weak_probe_disturbance_distribution(rho, b, inst, g).table)


def _per_branch_tables(rho, a, b, inst, g):
    """Both weak-probe tables, one probe call per branch and one instrument call
    per probe outcome."""
    rm = np.asarray(rho)
    error = []
    for proj in a.spectrum.projectors:
        kraus, calibration = weak_probe(np.array([proj.matrix]), g)
        row = np.zeros(len(inst.labels))
        for m, n in zip(kraus[0], calibration):
            row += n * inst.outcome_probabilities(m @ rm @ m.conj().T)
        error.append(row)
    disturbance = np.zeros((len(b.spectrum.eigenvalues), len(b.spectrum.eigenvalues)))
    for j, proj in enumerate(b.spectrum.projectors):
        kraus, calibration = weak_probe(np.array([proj.matrix]), g)
        for m, n in zip(kraus[0], calibration):
            after = inst.apply_nonselective(hermitian_part(m @ rm @ m.conj().T))
            disturbance[:, j] += n * np.array([expectation(q, after) for q in b.spectrum.projectors])
    return np.array(error), disturbance


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_tables_match_per_branch_loops(dim):
    rng = _rng((83, dim))
    a, b = random_hermitian(dim, rng), random_hermitian(dim, rng)
    rho = random_density(dim, rng)
    indirect = Instrument.from_indirect(random_indirect_model(dim, rng))
    values = {label: float(i) for i, label in enumerate(indirect.labels)}
    generated = generate_random(dim, 4, (83, dim))
    cases = [(generated.apparatus, generated.values_m), (indirect, values)]
    for inst, m in cases:
        for g in (1e-3, 0.3, 1.0):
            error, disturbance = _per_branch_tables(rho, a, b, inst, g)
            assert np.array_equal(weak_probe_error_distribution(rho, a, inst, m, g).table, error)
            assert np.array_equal(weak_probe_disturbance_distribution(rho, b, inst, g).table, disturbance)


class TestWeakProbeDistributions:
    def test_commuting_case_exact(self, max_mixed):
        # Diagonal A, POM, and state: the probe introduces no deviation.
        inst = theta_pom_instrument(THETA)
        exact = tmh_error_distribution(max_mixed, SZ, inst, UNBIASED_M)
        for g in (0.5, 0.1, 0.01):
            approx = weak_probe_error_distribution(max_mixed, SZ, inst, UNBIASED_M, g)
            assert max_norm(approx.table - exact.table) < 1e-12

    def test_strong_limit_is_projective_probe(self, ket0):
        # g=1 collapses the probe onto Pi / (1-Pi); entries become
        # Tr[P_k Pi rho Pi] for the surviving branch.
        inst = theta_pom_instrument(THETA)
        approx = weak_probe_error_distribution(ket0, SX, inst, UNBIASED_M, 1.0)
        spec = spectral_decompose(SX)
        rm = np.asarray(ket0)
        for i, proj in enumerate(spec.projectors):
            pm = np.asarray(proj)
            sigma = pm @ rm @ pm
            for j, label in enumerate(inst.labels):
                expected = np.real(np.trace(np.asarray(inst.pom_element(label)) @ sigma))
                assert approx.table[i, j] == pytest.approx(expected, abs=1e-12)

    def test_error_deviation_scaling(self, ket0):
        # Deviation from the TMH table carries the exact factor 1 - sqrt(1-g^2).
        inst = theta_pom_instrument(THETA)
        exact = tmh_error_distribution(ket0, SX, inst, UNBIASED_M)
        dev_unit = None
        for g in (0.5, 0.2, 0.1, 0.05):
            approx = weak_probe_error_distribution(ket0, SX, inst, UNBIASED_M, g)
            factor = 1 - np.sqrt(1 - g**2)
            dev = max_norm(approx.table - exact.table) / factor
            if dev_unit is None:
                dev_unit = dev
            assert dev == pytest.approx(dev_unit, abs=1e-10)

    def test_disturbance_qnd_exact(self, ket_plus):
        inst = theta_pom_instrument(0.8)
        exact = tmh_disturbance_distribution(ket_plus, SZ, inst)
        for g in (0.5, 0.05):
            approx = weak_probe_disturbance_distribution(ket_plus, SZ, inst, g)
            assert max_norm(approx.table - exact.table) < 1e-12

    def test_disturbance_convergence(self, ket0):
        # A z-diagonal instrument hides the probe deviation from a sigma_x
        # readout entirely, so use a generic random instrument instead.
        inst = random_instrument(2, 3, _rng(61))
        exact = tmh_disturbance_distribution(ket0, SX, inst)
        errors = []
        for g in (0.4, 0.2, 0.1, 0.05):
            approx = weak_probe_disturbance_distribution(ket0, SX, inst, g)
            assert abs(approx.table.sum() - 1.0) < 1e-10
            errors.append(max_norm(approx.table - exact.table))
        slope, _ = np.polyfit(np.log([0.4, 0.2, 0.1, 0.05]), np.log(errors), 1)
        assert slope == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda rho, a, inst, values: tmh_error_distribution(rho, a, inst, values),
        lambda rho, a, inst, values: weak_probe_error_distribution(rho, a, inst, values, 0.1),
        lambda rho, a, inst, values: epsilon_sq_system(inst, values, a, rho),
        lambda rho, a, inst, values: unbiased_dispersion(inst, values, a, rho),
    ],
    ids=["tmh", "weak-probe", "epsilon-sq", "dispersion"],
)
def test_a_missing_label_raises_missing_label(call):
    # Outcome "-" has no value: every reader of the values names it alike.
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(MissingLabel, match="'-'"):
        call(rho, SZ, theta_pom_instrument(np.pi / 3), {"+": 2.0})

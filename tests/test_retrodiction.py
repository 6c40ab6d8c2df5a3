import dataclasses

import numpy as np
import pytest

from qmeasure import instruments, retrodiction
from qmeasure.errors import InternalNumericError, NullOutcome, StateValidationError, ZeroPosterior
from qmeasure.inequalities import evaluate
from qmeasure.instruments import Instrument, KrausSet
from qmeasure.operators import (
    SIGMA_X,
    SIGMA_Z,
    DensityOperator,
    HermitianOperator,
    commutator_bound,
    max_norm,
)
from qmeasure.quasiprob import QuasiDistribution
from qmeasure.retrodiction import (
    interdictive_disturbance,
    interdictive_joint_distribution,
    outcome_kernel,
    restricted_metrics,
    retrodictive_error,
)
from qmeasure.scenario import (
    Scenario,
    _rng,
    generate_random,
    projective_instrument,
    random_hermitian,
    random_indirect_model,
    random_instrument,
    theta_pom_instrument,
)

SZ = HermitianOperator(SIGMA_Z)
SX = HermitianOperator(SIGMA_X)


def identity_instrument(dim: int) -> Instrument:
    return Instrument.from_kraus([KrausSet("0", (np.eye(dim, dtype=complex),))])


def near_null_instrument() -> Instrument:
    # One outcome with POM trace ~1e-26, absorbed by the complement.
    tiny = 1e-13 * np.eye(2, dtype=complex)
    rest = np.sqrt(np.eye(2) - tiny.conj().T @ tiny).astype(complex)
    return Instrument.from_kraus([KrausSet("tiny", (tiny,)), KrausSet("rest", (rest,))])


class TestRetrodictedState:
    def test_theta_pom(self):
        theta = np.pi / 3
        inst = theta_pom_instrument(theta)
        c = np.cos(theta)
        assert np.allclose(inst.retrodicted_state("+").matrix, np.diag([(1 + c) / 2, (1 - c) / 2]))
        assert inst.pom_trace("+") == pytest.approx(1.0, abs=1e-12)

    def test_identity_instrument_uniform(self):
        state = identity_instrument(3).retrodicted_state("0")
        assert np.allclose(state.matrix, np.eye(3) / 3)

    def test_null_outcome_raises(self):
        with pytest.raises(NullOutcome):
            near_null_instrument().retrodicted_state("tiny")

    def test_state_is_built_once_per_outcome(self):
        inst = theta_pom_instrument(np.pi / 3)
        assert inst.retrodicted_state("+") is inst.retrodicted_state("+")


class TestRetrodictiveError:
    def test_theta_grid(self):
        for k in range(25):
            theta = k * np.pi / 24
            inst = theta_pom_instrument(theta)
            for label in ("+", "-"):
                err = retrodictive_error(inst, label, SZ)
                assert err == pytest.approx(abs(np.sin(theta)), abs=1e-10)

    def test_projective_sharp(self):
        inst = projective_instrument(SZ)
        for label in inst.labels:
            assert retrodictive_error(inst, label, SZ) == pytest.approx(0.0, abs=1e-10)

    def test_unresolved_observable(self):
        # A theta-POM resolves nothing about sigma_x: the error is maximal.
        inst = theta_pom_instrument(0.4)
        assert retrodictive_error(inst, "+", SX) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_variance_raises(self):
        # (1e160)^2 overflows: the variance inf - inf is NaN and passes no floor.
        with pytest.raises(InternalNumericError):
            retrodictive_error(theta_pom_instrument(0.3), "+", HermitianOperator(1e160 * SIGMA_Z))


class TestInterdictive:
    def test_trace_normalized_channel(self):
        # Tr A_k(1) / Tr P_k = Tr A*_k(1) / Tr P_k = 1, read forward (the
        # table's mass) and backward (the posterior weights); the table's
        # column marginals Tr[Π_b' A_k(1)] / Tr P_k are the posterior weights.
        rng = _rng(51)
        inst = random_instrument(2, 3, rng)
        b = random_hermitian(2, rng)
        for label in inst.labels:
            kernel = outcome_kernel(inst, label, b, b)
            assert kernel.table.table.sum() == pytest.approx(1.0, abs=1e-10)
            assert sum(kernel.posterior_weights) == pytest.approx(1.0, abs=1e-10)
            assert max_norm(kernel.table.col_marginals - np.array(kernel.posterior_weights)) < 1e-12

    def test_identity_instrument_diagonal(self):
        d = interdictive_joint_distribution(identity_instrument(2), "0", SX)
        assert max_norm(d.table - np.eye(2) / 2) < 1e-12
        assert interdictive_disturbance(identity_instrument(2), "0", SX) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_projective_z_scrambles_x(self):
        # A_0(Pi_b) = |0><0| (Pi_b)_00 |0><0| gives the uniform 1/4 table.
        inst = projective_instrument(SZ)
        d = interdictive_joint_distribution(inst, "0", SX)
        assert max_norm(d.table - 0.25) < 1e-12
        assert interdictive_disturbance(inst, "0", SX) == pytest.approx(np.sqrt(2), abs=1e-10)

    def test_qnd_no_disturbance(self):
        inst = theta_pom_instrument(0.8)
        for label in inst.labels:
            assert interdictive_disturbance(inst, label, SZ) == pytest.approx(0.0, abs=1e-10)

    def test_negative_second_moment_below_floor_raises(self, monkeypatch):
        # sum (B_b - B_b')^2 p(b, b'|k) = 4 * (-0.1): far below SECOND_MOMENT_FLOOR.
        tampered = QuasiDistribution(
            row_labels=("b0", "b1"),
            col_labels=("b'0", "b'1"),
            table=np.array([[0.6, -0.1], [0.0, 0.5]]),
            row_values=np.array([1.0, -1.0]),
            col_values=np.array([1.0, -1.0]),
        )
        kernel = retrodiction.outcome_kernel
        monkeypatch.setattr(
            retrodiction, "outcome_kernel", lambda *args: dataclasses.replace(kernel(*args), table=tampered)
        )
        with pytest.raises(InternalNumericError):
            interdictive_disturbance(theta_pom_instrument(0.4), "+", SZ)

    def test_table_is_true_probability(self):
        rng = _rng(52)
        for _ in range(20):
            inst = random_instrument(2, 3, rng)
            b = random_hermitian(2, rng)
            for label in inst.labels:
                d = interdictive_joint_distribution(inst, label, b)
                assert d.table.min() >= -1e-12
                assert abs(d.table.sum() - 1.0) < 1e-10


class TestKernelGates:
    def test_sub_floor_posterior_eigenvalue_raises(self, monkeypatch):
        # A traceless kick of 1e-6 on every Hermitian-gated output leaves the
        # weights and the table's mass alone, but pushes an eigenvalue of the
        # pure conditioned states of a projective measurement to about -2e-6.
        kick = np.diag([1e-6, -1e-6])
        part = instruments.hermitian_part
        monkeypatch.setattr(instruments, "hermitian_part", lambda m: part(m) + kick)
        with pytest.raises(StateValidationError):
            outcome_kernel(projective_instrument(SZ), "0", SZ, SX)

    def test_zero_weight_posterior_is_skipped(self):
        # Measuring z projectively never yields the other z branch afterwards:
        # one live posterior per outcome, and the other one raises.
        inst = projective_instrument(SZ)
        s = Scenario(
            dimension=2,
            state=DensityOperator(np.eye(2) / 2),
            observable_A=SX,
            observable_B=SZ,
            apparatus=inst,
            values_m={"0": 0.0, "1": 0.0},
        )
        rec = evaluate("hofmann2", s)
        assert len(rec.sub_records) == len(inst.live_labels) == 2
        for label in inst.live_labels:
            kernel = outcome_kernel(inst, label, SX, SZ)
            dead = [i for i, rm in enumerate(kernel.restricted) if rm is None]
            assert len(dead) == 1 and kernel.posterior_weights[dead[0]] <= 1e-12
            with pytest.raises(ZeroPosterior):
                restricted_metrics(inst, label, dead[0], SX, SZ)


def _loop_reference(inst, label, a, b):
    """The kernel's numbers from plain per-matrix loops."""
    am, bm = a.matrix, b.matrix
    ops = inst.outcome(label).operators
    tr = np.real(np.trace(sum(m.conj().T @ m for m in ops)))
    retro = sum(m.conj().T @ m for m in ops) / tr
    eps = [np.sqrt(np.real(np.trace(o @ o @ retro)) - np.real(np.trace(o @ retro)) ** 2) for o in (am, bm)]
    evals, vecs = np.linalg.eigh(bm)
    order = np.argsort(evals)[::-1]
    projs = [np.outer(vecs[:, i], vecs[:, i].conj()) for i in order]
    table = np.array(
        [[np.real(np.trace(q @ sum(m @ p @ m.conj().T for m in ops))) / tr for q in projs] for p in projs]
    )
    rows = []
    for bval, q in zip(evals[order], projs):
        back = sum(m.conj().T @ q @ m for m in ops) / tr
        weight = np.real(np.trace(back))
        rho = back / weight
        mean_b = np.real(np.trace(bm @ rho))
        var_a = np.real(np.trace(am @ am @ rho)) - np.real(np.trace(am @ rho)) ** 2
        var_b = np.real(np.trace(bm @ bm @ rho)) - mean_b**2
        eta = np.sqrt(var_b + (bval - mean_b) ** 2)
        rows.append([weight, np.sqrt(max(var_a, 0.0)), np.sqrt(max(var_b, 0.0)), eta, mean_b])
    return eps, table, np.array(rows)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_kernel_matches_per_matrix_loops(dim):
    rng = _rng((57, dim))
    a, b = random_hermitian(dim, rng), random_hermitian(dim, rng)
    indirect = Instrument.from_indirect(random_indirect_model(dim, rng))
    for inst in (generate_random(dim, 4, (57, dim)).apparatus, indirect):
        for label in inst.live_labels:
            kernel = outcome_kernel(inst, label, a, b)
            eps, table, rows = _loop_reference(inst, label, a, b)
            got = np.array(
                [[rm.p_posterior, rm.eps_A, rm.eps_B, rm.eta_B, rm.retro_mean_B] for rm in kernel.restricted]
            )
            assert max_norm(np.array([kernel.eps_A, kernel.eps_B]) - eps) < 1e-12
            assert max_norm(kernel.table.table - table) < 1e-12
            assert max_norm(got - rows) < 1e-12
            values = kernel.table.row_values
            eta = np.sqrt(np.sum((values[:, None] - values[None, :]) ** 2 * table))
            assert abs(kernel.eta_B - eta) < 1e-12


class TestRestrictedMetrics:
    def test_projective_sharp(self):
        inst = projective_instrument(SZ)
        rm = restricted_metrics(inst, "0", 0, SZ, SZ)
        assert rm.eps_A == pytest.approx(0.0, abs=1e-7)
        assert rm.eta_B == pytest.approx(0.0, abs=1e-7)
        assert rm.p_posterior == pytest.approx(1.0, abs=1e-10)

    def test_decomposition_identity(self):
        # eta^2 = eps_B^2 + (B_b' - <B>)^2 holds by construction; check the
        # reported numbers are internally consistent.
        rng = _rng(53)
        inst = random_instrument(2, 3, rng)
        b = random_hermitian(2, rng)
        a = random_hermitian(2, rng)
        for label in inst.labels:
            for idx in range(2):
                rm = restricted_metrics(inst, label, idx, a, b)
                from qmeasure.operators import spectral_decompose

                b_val = spectral_decompose(b).eigenvalues[idx]
                recon = rm.eps_B**2 + (b_val - rm.retro_mean_B) ** 2
                assert rm.eta_B**2 == pytest.approx(recon, abs=1e-10)

    def test_averaging_identity(self):
        # sum_b' p(b'|k) eta^2_{B,k,b'} recovers the unrestricted eta^2_{B,k}.
        rng = _rng(54)
        for _ in range(30):
            inst = random_instrument(2, 2, rng)
            b = random_hermitian(2, rng)
            a = random_hermitian(2, rng)
            for label in inst.labels:
                total = 0.0
                for idx in range(2):
                    rm = restricted_metrics(inst, label, idx, a, b)
                    total += rm.p_posterior * rm.eta_B**2
                eta_k = interdictive_disturbance(inst, label, b)
                assert total == pytest.approx(eta_k**2, abs=1e-10)

    def test_bad_posterior_index(self):
        inst = projective_instrument(SZ)
        with pytest.raises(ZeroPosterior):
            restricted_metrics(inst, "0", 5, SZ, SZ)

    def test_zero_posterior_probability(self):
        # Projective z-measurement outcome 0 never yields posterior branch 1.
        inst = projective_instrument(SZ)
        with pytest.raises(ZeroPosterior):
            restricted_metrics(inst, "0", 1, SZ, SZ)


class TestHofmannStyleBounds:
    def test_retrodictive_product_bound(self):
        # eps_A,k eps_B,k >= C_AB under the retrodictive state, per outcome.
        rng = _rng(55)
        for _ in range(100):
            inst = random_instrument(2, 3, rng)
            a = random_hermitian(2, rng)
            b = random_hermitian(2, rng)
            for label in inst.labels:
                lhs = retrodictive_error(inst, label, a) * retrodictive_error(inst, label, b)
                assert lhs >= commutator_bound(a, b, inst.retrodicted_state(label)) - 1e-9

    def test_disturbance_dominates_error(self):
        # eta_B,k,b' >= eps_B,k,b' cell by cell.
        rng = _rng(56)
        for _ in range(30):
            inst = random_instrument(2, 3, rng)
            a = random_hermitian(2, rng)
            b = random_hermitian(2, rng)
            for label in inst.labels:
                for idx in range(2):
                    try:
                        rm = restricted_metrics(inst, label, idx, a, b)
                    except ZeroPosterior:
                        continue
                    assert rm.eta_B >= rm.eps_B - 1e-12

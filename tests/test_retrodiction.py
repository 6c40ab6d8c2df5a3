
from pathlib import Path

import numpy as np
import pytest

from qmeasure import instruments, retrodiction
from qmeasure.errors import DimensionMismatch, InternalNumericError, NullOutcome, StateValidationError, ZeroPosterior
from qmeasure.harness import analyze
from qmeasure.inequalities import evaluate
from qmeasure.instruments import Instrument, KrausSet
from qmeasure.operators import (
    SIGMA_X,
    SIGMA_Z,
    DensityOperator,
    HermitianOperator,
    commutator_bound,
    expectation,
    max_norm,
    spectra,
)
from qmeasure.retrodiction import (
    RestrictedMetrics,
    interdictive_disturbance,
    interdictive_joint_distribution,
    outcome_kernels,
    restricted_metrics,
    retrodictive_error,
)
from qmeasure.scenario import (
    Scenario,
    _rng,
    generate_random,
    generate_window,
    load_scenario,
    projective_instrument,
    random_hermitian,
    random_indirect_model,
    random_instrument,
    random_unitary,
    subseed,
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


def retrodicted_state(inst: Instrument, label: str) -> np.ndarray:
    """P_k / Tr P_k of one live outcome, from the stacked ``instruments.retrodicted_states``
    on a block of one; a null outcome raises NullOutcome."""
    k = inst.live_index(label)
    return instruments.retrodicted_states(inst.pom_stack[None], inst.pom_traces[None], inst.live_mask)[0, k]


class TestRetrodictedState:
    def test_theta_pom(self):
        theta = np.pi / 3
        inst = theta_pom_instrument(theta)
        c = np.cos(theta)
        assert np.allclose(retrodicted_state(inst, "+"), np.diag([(1 + c) / 2, (1 - c) / 2]))
        assert inst.pom_trace("+") == pytest.approx(1.0, abs=1e-12)

    def test_identity_instrument_uniform(self):
        state = retrodicted_state(identity_instrument(3), "0")
        assert np.allclose(state, np.eye(3) / 3)

    def test_null_outcome_raises(self):
        with pytest.raises(NullOutcome):
            retrodicted_state(near_null_instrument(), "tiny")

    def test_stack_has_the_bits_of_each_instrument(self):
        # A block of instruments gives each member the states of its own call, in live order.
        insts = [theta_pom_instrument(theta) for theta in (np.pi / 3, 0.4, 1.1)]
        stack = instruments.retrodicted_states(
            np.stack([inst.pom_stack for inst in insts]), np.stack([inst.pom_traces for inst in insts]), insts[0].live_mask
        )
        for inst, states in zip(insts, stack):
            for k, label in enumerate(inst.live_labels):
                assert np.array_equal(states[k], retrodicted_state(inst, label))


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
        ks = outcome_kernels([inst], [b], [b])
        assert ks.table.shape[1] == len(inst.labels)
        for table, weights in zip(ks.table[0], ks.weights[0]):
            assert table.sum() == pytest.approx(1.0, abs=1e-10)
            assert weights.sum() == pytest.approx(1.0, abs=1e-10)
            assert max_norm(table.sum(axis=0) - weights) < 1e-12

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
        # Every cell of T_k lowered by 0.3; its off-diagonal cells are 0, so
        # sum (B_b - B_b')^2 p(b, b'|k) = 4 * (-0.6): far below SECOND_MOMENT_FLOOR.
        real = retrodiction.expectation
        monkeypatch.setattr(retrodiction, "expectation", lambda x, rho: real(x, rho) - 0.3)
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
            outcome_kernels([projective_instrument(SZ)], [SZ], [SX])

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
        ks = outcome_kernels([inst], [SX], [SZ])
        rows = zip(inst.live_labels, ks.weights[0], ks.posterior[0], ks.restricted[0])
        for label, weights, posterior, restricted in rows:
            dead = np.flatnonzero(~posterior)
            assert len(dead) == 1 and weights[dead[0]] <= 1e-12
            assert np.isnan(restricted[dead[0]]).all() and not np.isnan(restricted[posterior]).any()
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


def _ragged_with_null():
    """d = 3 outcomes with 1, 2 and 3 Kraus operators and a null one between them,
    with random A and B."""
    rng = _rng(59)
    a, b = random_hermitian(3, rng), random_hermitian(3, rng)
    isometry = random_unitary(18, rng)[:, :3]
    m = [isometry[3 * i : 3 * i + 3] for i in range(6)]
    tiny = (1e-8 * np.eye(3, dtype=complex),)
    inst = Instrument.from_kraus(
        [KrausSet("one", (m[0],)), KrausSet("null", tiny), KrausSet("two", tuple(m[1:3])), KrausSet("three", tuple(m[3:]))]
    )
    return inst, a, b


def test_one_call_holds_every_live_outcome():
    # One call gives a row for each live outcome in declared order, and each matches the loops.
    inst, a, b = _ragged_with_null()
    assert inst.live_labels == ("one", "two", "three")
    ks = outcome_kernels([inst], [a], [b])
    assert ks.eps.shape == (1, 3, 2) and ks.table.shape == (1, 3, 3, 3) and ks.restricted.shape == (1, 3, 3, 5)
    for k, label in enumerate(inst.live_labels):
        eps, table, rows = _loop_reference(inst, label, a, b)
        assert max_norm(ks.eps[0, k] - eps) < 1e-12
        assert max_norm(ks.table[0, k] - table) < 1e-12
        assert max_norm(ks.restricted[0, k] - rows) < 1e-12
        assert ks.c_ab[0, k] == commutator_bound(a, b, retrodicted_state(inst, label))
    without_b = outcome_kernels([inst], [a])
    assert np.array_equal(without_b.eps, ks.eps[..., :1])
    assert without_b.table is None and without_b.restricted is None
    with pytest.raises(NullOutcome):
        retrodictive_error(inst, "null", a)
    with pytest.raises(NullOutcome):
        restricted_metrics(inst, "null", 0, a, b)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_kernel_matches_per_matrix_loops(dim):
    rng = _rng((57, dim))
    a, b = random_hermitian(dim, rng), random_hermitian(dim, rng)
    indirect = Instrument.from_indirect(random_indirect_model(dim, rng))
    values = b.spectrum.eigenvalues
    for inst in (generate_random(dim, 4, (57, dim)).apparatus, indirect):
        ks = outcome_kernels([inst], [a], [b])
        for k, label in enumerate(inst.live_labels):
            eps, table, rows = _loop_reference(inst, label, a, b)
            assert max_norm(ks.eps[0, k] - eps) < 1e-12
            assert max_norm(ks.table[0, k] - table) < 1e-12
            assert max_norm(ks.restricted[0, k] - rows) < 1e-12
            eta = np.sqrt(np.sum((values[:, None] - values[None, :]) ** 2 * table))
            assert abs(ks.eta[0, k] - eta) < 1e-12


def _per_branch_reference(insts, b):
    """T_k and p(b'|k) of every live outcome of a block, one posterior branch b' at a time."""
    live = insts[0].live_mask
    kraus = np.stack([inst.kraus_stack for inst in insts])
    proj = np.stack([spec.projector_stack for spec in spectra(b)])
    tr = np.stack([inst.pom_traces for inst in insts])[:, live]
    forward = instruments.channel(kraus, proj)[:, live]
    table, weights = [], []
    for j in range(proj.shape[1]):
        table.append(expectation(proj[:, None, None, j], forward))
        backward = instruments.channel(kraus, proj[:, j : j + 1], dual=True)[:, live, 0]
        weights.append(np.real(np.trace(backward / tr[:, :, None, None], axis1=-2, axis2=-1)))
    return np.stack(table, axis=-1) / tr[:, :, None, None], np.stack(weights, axis=-1)


def _grouped(b: HermitianOperator) -> HermitianOperator:
    """B with its two largest eigenvalues merged into one branch."""
    evals, vecs = np.linalg.eigh(b.matrix)
    evals[-2] = evals[-1]
    return HermitianOperator((vecs * evals) @ vecs.conj().T)


@pytest.mark.parametrize("size, step", [(2, 16), (5, 6), (32, 1)])
def test_chunked_table_has_the_bits_of_a_per_branch_loop(size, step):
    # At d = 8 with 4 outcomes a chunk holds `step` of the 8 posterior branches:
    # all of them, a chunk that does not divide 8, and one at a time.
    assert max(1, retrodiction._BLOCK_ENTRIES // (size * 4 * 8 * 8**2)) == step
    window = generate_window(8, 4, [subseed(777, (8, i)) for i in range(size)])
    insts, a, b = (list(x) for x in zip(*[(s.apparatus, s.observable_A, s.observable_B) for s in window]))
    blocks = [(insts, a, b), ([insts[0]], [a[0]], [_grouped(b[0])])]
    assert len(blocks[1][2][0].spectrum.eigenvalues) == 7
    for insts, a, b in blocks:
        table, weights = _per_branch_reference(insts, b)
        ks = outcome_kernels(insts, a, b)
        assert np.array_equal(ks.table, table)
        assert np.array_equal(ks.weights, weights)


def test_one_outcome_has_the_bits_of_its_row():
    # Each single-outcome function runs the full pass over its instrument; what it
    # returns has the bits of its outcome's row k, and a dead posterior branch raises.
    member = generate_window(8, 4, [subseed(777, (8, i)) for i in range(3)])[2]
    cases = [
        (member.apparatus, member.observable_A, member.observable_B),
        _ragged_with_null(),
        (projective_instrument(SZ), SX, SZ),
    ]
    dead = 0
    for inst, a, b in cases:
        ks = outcome_kernels([inst], [a], [b])
        for k, label in enumerate(inst.live_labels):
            assert retrodictive_error(inst, label, a) == ks.eps[0, k, 0]
            assert np.array_equal(interdictive_joint_distribution(inst, label, b).table, ks.table[0, k])
            assert interdictive_disturbance(inst, label, b) == ks.eta[0, k]
            for j, live in enumerate(ks.posterior[0, k]):
                if live:
                    expected = RestrictedMetrics(*ks.restricted[0, k, j].tolist())
                    assert restricted_metrics(inst, label, j, a, b) == expected
                else:
                    dead += 1
                    with pytest.raises(ZeroPosterior):
                        restricted_metrics(inst, label, j, a, b)
    assert dead == 2


_INST = theta_pom_instrument(0.4)


@pytest.mark.parametrize(
    "insts, a, b",
    [([], [], []), ([_INST, _INST], [SZ], [SX, SX]), ([_INST, _INST], [SZ, SZ], [SX]), ([_INST], [SZ, SZ], [SX, SX])],
    ids=["empty", "fewer-A", "fewer-B", "extra-A-and-B"],
)
def test_a_mismatched_block_is_rejected(insts, a, b):
    with pytest.raises(DimensionMismatch):
        outcome_kernels(insts, a, b)


def test_outcome_quantities_depend_on_the_hilbert_space():
    # A qubit theta-POM embedded in d = 3, the spare level in outcome "+" and
    # unpopulated: the ensemble noise keeps its bits, but the retrodictive state
    # P_k / Tr P_k takes the whole space as its prior, so eps_A,k and eta_B,k move.
    s = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "theta_pom.json")
    inst = theta_pom_instrument(0.6)

    def embed(m, spare=0.0):
        return np.pad(np.asarray(m, dtype=complex), (0, 1)) + np.diag([0, 0, spare])

    spare = {"+": 1.0, "-": 0.0}
    sets = [KrausSet(k.label, tuple(embed(m, spare[k.label]) for m in k.operators)) for k in inst.outcomes]
    big = Instrument.from_kraus(sets)
    a3, b3 = HermitianOperator(embed(s.observable_A)), HermitianOperator(embed(s.observable_B))
    values = dict(values_m=s.values_m, values_mB=s.values_mB)
    small = Scenario(2, s.state, s.observable_A, inst, observable_B=s.observable_B, **values)
    large = Scenario(3, DensityOperator(embed(s.state)), a3, big, observable_B=b3, **values)
    r2, r3 = analyze(small), analyze(large)
    assert r2.epsilon.mean_squared == r3.epsilon.mean_squared and r2.eta.mean_squared == r3.eta.mean_squared
    assert retrodictive_error(inst, "+", s.observable_A) == pytest.approx(0.5646, abs=1e-4)
    assert retrodictive_error(big, "+", a3) == pytest.approx(0.5742, abs=1e-4)
    assert interdictive_disturbance(inst, "+", s.observable_B) == pytest.approx(0.9331, abs=1e-4)
    assert interdictive_disturbance(big, "+", b3) == pytest.approx(0.6598, abs=1e-4)


def test_the_mass_gate_names_the_first_bad_member_and_outcome(monkeypatch):
    window = generate_window(3, 4, [subseed(5, i) for i in range(3)])
    channel = retrodiction.channel

    def heavy(kraus, x, dual=False):
        out = channel(kraus, x, dual)
        if not dual:
            out = out.copy()
            out[1, 2] *= 1.01
        return out

    monkeypatch.setattr(retrodiction, "channel", heavy)
    with pytest.raises(InternalNumericError, match=r"total mass .* at index \(1, 2\)"):
        outcome_kernels([s.apparatus for s in window], [s.observable_A for s in window], [s.observable_B for s in window])


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
                assert lhs >= commutator_bound(a, b, retrodicted_state(inst, label)) - 1e-9

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

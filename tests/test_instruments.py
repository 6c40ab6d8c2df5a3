import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qmeasure import instruments
from qmeasure.cli import main
from qmeasure.errors import (
    CompletenessViolation,
    DimensionMismatch,
    DuplicateLabel,
    MissingLabel,
    NotExpressible,
    UnknownLabel,
    ValidationError,
)
from qmeasure.inequalities import _members
from qmeasure.instruments import (
    IndirectModel,
    Instrument,
    KrausSet,
    nonselective,
    solve_contextual_values,
)
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
from qmeasure.quasiprob import QuasiDistribution
from qmeasure.scenario import (
    Scenario,
    _rng,
    generate_random,
    load_scenario,
    random_density,
    random_hermitian,
    random_indirect_model,
    random_instrument,
    random_unitary,
    save_scenario,
    scenario_from_dict,
    theta_pom_instrument,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def projective_z() -> Instrument:
    return Instrument.from_kraus(
        [
            KrausSet("up", (np.diag([1.0, 0.0]).astype(complex),)),
            KrausSet("down", (np.diag([0.0, 1.0]).astype(complex),)),
        ]
    )


class TestConstruction:
    def test_projective_pom(self):
        inst = projective_z()
        assert np.allclose(inst.pom_element("up").matrix, np.diag([1.0, 0.0]))
        assert inst.labels == ("up", "down")

    def test_pom_is_stored_once(self):
        inst = projective_z()
        for i, label in enumerate(inst.labels):
            assert inst.pom_element(label) is inst.pom()[i]

    def test_labels_are_stored_once(self):
        # Built by the constructor and by a window's instruments_of alike.
        for inst in (projective_z(), generate_random(3, 4, 1).apparatus):
            assert inst.labels is inst.labels
            assert inst.labels == tuple(ks.label for ks in inst.outcomes)

    def test_theta_pom_completeness_any_theta(self):
        for theta in (0.0, 0.3, np.pi / 3, np.pi / 2, 2.9):
            inst = theta_pom_instrument(theta)
            total = sum(p.matrix for p in inst.pom())
            assert max_norm(total - np.eye(2)) < 1e-12

    def test_theta_pom_elements(self):
        inst = theta_pom_instrument(np.pi / 3)
        assert np.allclose(inst.pom_element("+").matrix, np.diag([0.75, 0.25]))
        assert np.allclose(inst.pom_element("-").matrix, np.diag([0.25, 0.75]))

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(CompletenessViolation):
            Instrument.from_kraus([KrausSet("0", (np.diag([1.0, 0.0]).astype(complex),))])

    def test_duplicate_labels_rejected(self):
        half = np.eye(2) / np.sqrt(2)
        with pytest.raises(DuplicateLabel):
            Instrument.from_kraus([KrausSet("0", (half,)), KrausSet("0", (half,))])

    def test_dimension_fault_precedes_duplicate_labels(self):
        # The constructor checks the declared dimension, then builds through instruments_of.
        with pytest.raises(DimensionMismatch):
            Instrument((KrausSet("0", (np.eye(2),)), KrausSet("0", (np.eye(3),))), 2)

    def test_empty_kraus_set_rejected(self):
        with pytest.raises(DimensionMismatch):
            KrausSet("0", ())

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            projective_z().outcome("sideways")

    def test_random_instrument_completeness(self):
        rng = _rng(21)
        for dim, n in ((2, 2), (2, 4), (3, 3)):
            inst = random_instrument(dim, n, rng)
            total = sum(p.matrix for p in inst.pom())
            assert max_norm(total - np.eye(dim)) < 1e-10


class TestIndirectModels:
    def test_cnot_gives_projective_kraus(self):
        # CNOT with the system as control: U|s, d> = |s, d xor s>.
        u = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        model = IndirectModel(
            system_dim=2,
            detector_state=DensityOperator(np.diag([1.0, 0.0])),
            unitary=u,
            readout_basis=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            labels=("0", "1"),
        )
        inst = Instrument.from_indirect(model)
        assert max_norm(inst.outcome("0").operators[0] - np.diag([1.0, 0.0])) < 1e-12
        assert max_norm(inst.outcome("1").operators[0] - np.diag([0.0, 1.0])) < 1e-12

    def test_identity_coupling_gives_trivial_pom(self):
        detector = DensityOperator(np.diag([0.7, 0.3]))
        model = IndirectModel(
            system_dim=2,
            detector_state=detector,
            unitary=np.eye(4, dtype=complex),
            readout_basis=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            labels=("0", "1"),
        )
        inst = Instrument.from_indirect(model)
        assert max_norm(inst.pom_element("0").matrix - 0.7 * np.eye(2)) < 1e-12
        assert max_norm(inst.pom_element("1").matrix - 0.3 * np.eye(2)) < 1e-12

    def test_partial_swap_against_hand_kraus(self):
        # U = cos(a) 1 + i sin(a) SWAP with detector |0><0| yields
        # M_0 = cos(a) 1 + i sin(a) |0><0| and M_1 = i sin(a) |0><1|.
        alpha = 0.7
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        u = np.cos(alpha) * np.eye(4) + 1j * np.sin(alpha) * swap
        model = IndirectModel(
            system_dim=2,
            detector_state=DensityOperator(np.diag([1.0, 0.0])),
            unitary=u,
            readout_basis=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            labels=("0", "1"),
        )
        inst = Instrument.from_indirect(model)
        m0 = np.cos(alpha) * np.eye(2) + 1j * np.sin(alpha) * np.diag([1.0, 0.0])
        m1 = 1j * np.sin(alpha) * np.array([[0.0, 1.0], [0.0, 0.0]])
        direct = Instrument.from_kraus([KrausSet("0", (m0,)), KrausSet("1", (m1,))])
        for label in ("0", "1"):
            assert max_norm(
                inst.pom_element(label).matrix - direct.pom_element(label).matrix
            ) < 1e-12

    def test_labels_are_kept_as_given(self):
        # As KrausSet(7, ...) keeps the int 7, so does an indirect model, and the
        # instrument built from it; a parsed file has string labels only.
        model = IndirectModel(
            system_dim=2,
            detector_state=DensityOperator(np.diag([1.0, 0.0])),
            unitary=np.eye(4, dtype=complex)[[0, 1, 3, 2]],
            readout_basis=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            labels=[0, 7],
        )
        inst = Instrument.from_indirect(model)
        assert model.labels == inst.labels == (0, 7)
        assert max_norm(inst.pom_element(7).matrix - np.diag([0.0, 1.0])) < 1e-12

    def test_nonunitary_coupling_rejected(self):
        with pytest.raises(CompletenessViolation):
            IndirectModel(
                system_dim=2,
                detector_state=DensityOperator(np.diag([1.0, 0.0])),
                unitary=np.ones((4, 4), dtype=complex),
                readout_basis=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
                labels=("0", "1"),
            )

    def test_probability_law_random_models(self):
        rng = _rng(22)
        for _ in range(20):
            model = random_indirect_model(2, rng)
            inst = Instrument.from_indirect(model)
            rho = random_density(2, rng)
            probs = [expectation(p, rho) for p in inst.pom()]
            assert abs(sum(probs) - 1.0) < 1e-10
            assert all(p >= -1e-10 for p in probs)

    @staticmethod
    def _gate_calls(monkeypatch) -> Counter:
        """Count the calls of the two instrument gates from here on."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("kraus_gate", "pom_gate"):
            monkeypatch.setattr(instruments, name, counted(name, getattr(instruments, name)))
        return calls

    def test_a_d4_file_runs_each_instrument_gate_once(self, tmp_path, monkeypatch):
        # An indirect model's Kraus stack has one count for every outcome, so it is
        # gated as one block, with no per-outcome KrausSet gate before it.
        rng = _rng(23)
        model = random_indirect_model(4, rng)
        state, a = random_density(4, rng), random_hermitian(4, rng)
        values = {label: float(i) for i, label in enumerate(model.labels)}
        path = tmp_path / "d4.json"
        save_scenario(Scenario(4, state, a, Instrument.from_indirect(model), values, indirect=model), path)
        calls = self._gate_calls(monkeypatch)
        inst = load_scenario(path).apparatus
        assert calls == {"kraus_gate": 1, "pom_gate": 1}
        assert inst.kraus_stack.shape == (4, 4, 4, 4)
        for ks, rows in zip(inst.outcomes, inst.kraus_stack, strict=True):
            assert len(ks.operators) == 4 and np.array_equal(np.array(ks.operators), rows)

    @pytest.mark.parametrize("name", ["theta_pom.json", "qnd.json", "weak_probe.json"])
    def test_a_kraus_file_runs_each_instrument_gate_once(self, name, monkeypatch):
        # A KrausSet checks only its own matrices; the instrument gates the stack.
        calls = self._gate_calls(monkeypatch)
        load_scenario(SCENARIO_DIR / name)
        assert calls == {"kraus_gate": 1, "pom_gate": 1}

    def test_an_all_zero_outcome_is_a_completeness_violation(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "theta_pom.json").read_text(encoding="utf-8"))
        plus = doc["apparatus"]["outcomes"][0]
        plus["kraus"] = [[[[0.0, 0.0]] * 2] * 2]
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.kind == "CompletenessViolation"
        assert "outcome '+' has only zero operators" in str(err.value)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "CompletenessViolation" in capsys.readouterr().err


def outcome_maps(inst: Instrument, x, dual: bool = False) -> np.ndarray:
    """A_k(x) (``dual``: A*_k(x)) of every outcome of one instrument, ``(n_outcomes, ..., d, d)``,
    from the stacked ``instruments.channel`` on a block of one."""
    return instruments.channel(inst.kraus_stack[None], np.asarray(x)[None], dual)[0]


class TestApplicationMaps:
    def test_selective_projective(self, ket_plus):
        inst = projective_z()
        out = outcome_maps(inst, ket_plus)[inst.labels.index("up")]
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_nonselective_dephasing(self, ket_plus):
        inst = projective_z()
        after = inst.apply_nonselective(ket_plus)
        assert np.allclose(after, np.eye(2) / 2)

    def test_nonselective_keeps_an_unnormalized_trace(self):
        # Trace-preserving channel on an operator of trace 0.3: not a state.
        inst = random_instrument(3, 3, _rng(25))
        x = HermitianOperator(0.3 * np.asarray(random_density(3, _rng(26))))
        after = inst.apply_nonselective(x)
        assert np.real(np.trace(after)) == pytest.approx(0.3, abs=1e-12)

    def test_adjoint_duality(self):
        rng = _rng(23)
        inst = random_instrument(3, 3, rng)
        for _ in range(10):
            rho = random_density(3, rng)
            x = random_hermitian(3, rng)
            for forward, backward in zip(outcome_maps(inst, rho), outcome_maps(inst, x, dual=True)):
                lhs = np.trace(np.asarray(x) @ forward)
                rhs = np.trace(backward @ np.asarray(rho))
                assert abs(lhs - rhs) < 1e-11

    def test_adjoint_nonselective_unital(self):
        rng = _rng(24)
        inst = random_instrument(2, 4, rng)
        ident = HermitianOperator(np.eye(2))
        assert max_norm(hermitian_part(sum(outcome_maps(inst, ident, dual=True))) - np.eye(2)) < 1e-10

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (2,), (4, 2, 3)])
    def test_wrong_shape_is_dimension_mismatch(self, shape):
        inst = theta_pom_instrument(0.3)
        bad = np.ones(shape)
        for call in (
            lambda: outcome_maps(inst, bad),
            lambda: outcome_maps(inst, bad, dual=True),
            lambda: inst.apply_nonselective(bad),
        ):
            with pytest.raises(DimensionMismatch):
                call()


def kraus_instrument(dim: int, n_outcomes: int, n_kraus: int, rng) -> Instrument:
    """Instrument from a Haar-random isometry with n_kraus Kraus operators per outcome."""
    isometry = random_unitary(dim * n_outcomes * n_kraus, rng)[:, :dim]
    blocks = [isometry[i * dim : (i + 1) * dim] for i in range(n_outcomes * n_kraus)]
    return Instrument.from_kraus(
        [KrausSet(str(k), tuple(blocks[k * n_kraus : (k + 1) * n_kraus])) for k in range(n_outcomes)]
    )


def _selective_reference(inst, label, x):
    return hermitian_part(sum(m @ x @ m.conj().T for m in inst.outcome(label).operators))


def _dual_reference(inst, label, x):
    return hermitian_part(sum(m.conj().T @ x @ m for m in inst.outcome(label).operators))


@pytest.mark.parametrize("n_kraus", [1, 3])
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_stacked_call_has_the_bits_of_separate_calls(dim, n_kraus):
    # The kernel, sample and the TMH table pass stacks; each matrix of the
    # stack must come out exactly as a single-matrix Kraus sum would.
    rng = _rng(70 + 10 * dim + n_kraus)
    inst = kraus_instrument(dim, 3, n_kraus, rng)
    b = random_hermitian(dim, rng)
    stack = np.concatenate(
        [spectral_decompose(b).projector_stack, [random_hermitian(dim, rng).matrix for _ in range(3)]]
    )
    forward_maps, backward_maps = outcome_maps(inst, stack), outcome_maps(inst, stack, dual=True)
    for k, label in enumerate(inst.labels):
        forward = [_selective_reference(inst, label, x) for x in stack]
        backward = [_dual_reference(inst, label, x) for x in stack]
        assert np.array_equal(forward_maps[k], np.array(forward))
        assert np.array_equal(backward_maps[k], np.array(backward))
    forward = [hermitian_part(sum(_selective_reference(inst, l, x) for l in inst.labels)) for x in stack]
    backward = [hermitian_part(sum(_dual_reference(inst, l, x) for l in inst.labels)) for x in stack]
    assert np.array_equal(inst.apply_nonselective(stack), np.array(forward))
    assert np.array_equal(hermitian_part(sum(backward_maps)), np.array(backward))
    # A stack of stacks is a stack too.
    pairs = stack[:4].reshape(2, 2, dim, dim)
    pair_sum = hermitian_part(sum(outcome_maps(inst, pairs, dual=True)))
    assert np.array_equal(pair_sum, np.array(backward[:4]).reshape(2, 2, dim, dim))


def test_nonselective_of_a_block_has_the_bits_of_each_member():
    # The noise pass and the TMH disturbance table sum the outcomes of a whole block:
    # forward, each member must come out as its own apply_nonselective, and dual, on
    # B and B^2, as the Kraus sums of its outcomes one by one.
    ctx = next(ctx for _, ctx in _members([3], 8, 31, 4))
    assert len(ctx.scenarios) > 1
    b = np.stack([ctx._b, ctx._b @ ctx._b], axis=1)
    forward, backward = nonselective(ctx._kraus, ctx._rho), nonselective(ctx._kraus, b, dual=True)
    for i, s in enumerate(ctx.scenarios):
        inst = s.apparatus
        assert np.array_equal(forward[i], inst.apply_nonselective(s.state))
        dual = [hermitian_part(sum(_dual_reference(inst, label, x) for label in inst.labels)) for x in b[i]]
        assert np.array_equal(backward[i], np.array(dual))


def test_ragged_stack_against_a_reference():
    # Outcomes with 1, 2 and 3 Kraus operators.  Each row of the stacked maps
    # must be the Kraus sum of that outcome alone, spelled out here in l order.
    rng = _rng(90)
    isometry = random_unitary(18, rng)[:, :3]
    m = [isometry[3 * i : 3 * i + 3] for i in range(6)]
    inst = Instrument.from_kraus([KrausSet("one", (m[0],)), KrausSet("two", tuple(m[1:3])), KrausSet("three", tuple(m[3:]))])
    pad = np.arange(3) >= np.array([len(ks.operators) for ks in inst.outcomes])[:, None]
    assert pad.tolist() == [[False, True, True], [False, False, True], [False, False, False]]
    assert inst.kraus_stack.shape == (3, 3, 3, 3) and not inst.kraus_stack[pad].any()
    assert np.array_equal(inst.kraus_stack[~pad], np.array(m))
    pom = []
    for ks in inst.outcomes:
        total = 0
        for op in ks.operators:
            total = total + op.conj().T @ op
        pom.append(hermitian_part(total))
    assert np.array_equal(inst.pom_stack, np.array(pom))
    for x in (random_hermitian(3, rng).matrix, np.array([random_hermitian(3, rng).matrix for _ in range(2)])):
        forward, backward = [], []
        for ks in inst.outcomes:
            f = b = 0
            for op in ks.operators:
                f = f + (op @ x) @ op.conj().T
                b = b + (op.conj().T @ x) @ op
            forward.append(hermitian_part(f))
            backward.append(hermitian_part(b))
        assert np.array_equal(instruments.channel(inst.kraus_stack[None], x[None])[0], np.array(forward))
        assert np.array_equal(instruments.channel(inst.kraus_stack[None], x[None], dual=True)[0], np.array(backward))
        assert np.array_equal(inst.apply_nonselective(x), hermitian_part(sum(forward)))
        assert np.array_equal(hermitian_part(sum(outcome_maps(inst, x, dual=True))), hermitian_part(sum(backward)))


def test_an_explicit_zero_operator_is_kept_and_adds_nothing():
    # outcomes and to_dict keep the zero, so the digest sees it; the POM and the
    # maps do not.  array_equal cannot tell -0.0 from +0.0: the bit gate is the
    # repr of every float in tools/fingerprint.py.
    plain = theta_pom_instrument(0.7)
    m_plus, m_minus = (ks.operators[0] for ks in plain.outcomes)
    padded = Instrument.from_kraus([KrausSet("+", (m_plus, 0 * m_plus)), KrausSet("-", (m_minus,))])
    assert [len(ks.operators) for ks in padded.outcomes] == [2, 1]

    def scenario(inst):
        return Scenario(2, DensityOperator(np.eye(2) / 2), HermitianOperator(SIGMA_Z), inst, {"+": 1.0, "-": -1.0})

    assert [len(o["kraus"]) for o in scenario(padded).to_dict()["apparatus"]["outcomes"]] == [2, 1]
    assert scenario(padded).digest() != scenario(plain).digest()
    assert np.array_equal(padded.pom_stack, plain.pom_stack)
    x = random_hermitian(2, _rng(91)).matrix
    forward = [instruments.channel(inst.kraus_stack[None], x[None])[0] for inst in (padded, plain)]
    assert np.array_equal(*forward)
    dual = [instruments.channel(inst.kraus_stack[None], x[None], dual=True)[0] for inst in (padded, plain)]
    assert np.array_equal(*dual)


def test_outcome_probabilities_of_a_stack():
    inst = theta_pom_instrument(0.3)
    rng = _rng(77)
    states = np.array([random_density(2, rng).matrix for _ in range(3)])
    probs = inst.outcome_probabilities(states)
    assert probs.shape == (3, 2)
    assert np.array_equal(probs, [inst.outcome_probabilities(rho) for rho in states])


class TestEffectiveObservable:
    def test_projective_eigenvalues(self):
        inst = projective_z()
        eff = inst.effective_observable({"up": 1.0, "down": -1.0})
        assert np.allclose(eff.matrix, SIGMA_Z)

    def test_theta_pom_unbiased(self):
        theta = np.pi / 3
        inst = theta_pom_instrument(theta)
        m = 1 / np.cos(theta)
        eff = inst.effective_observable({"+": m, "-": -m})
        assert max_norm(eff.matrix - SIGMA_Z) < 1e-12

    def test_unit_values_give_identity(self):
        inst = theta_pom_instrument(1.1)
        eff = inst.effective_observable({"+": 1.0, "-": 1.0})
        assert max_norm(eff.matrix - np.eye(2)) < 1e-12

    def test_missing_label(self):
        with pytest.raises(MissingLabel):
            projective_z().effective_observable({"up": 1.0})


class TestContextualValues:
    def test_two_outcome_diagonal_closed_form(self):
        # POM rows (0.75, 0.25) / (0.25, 0.75), target diag(1, -1).
        pom = [
            HermitianOperator(np.diag([0.75, 0.25])),
            HermitianOperator(np.diag([0.25, 0.75])),
        ]
        target = HermitianOperator(np.diag([1.0, -1.0]))
        m = solve_contextual_values(pom, target)
        assert np.allclose(m, [2.0, -2.0], atol=1e-12)

    def test_projective_returns_eigenvalues(self):
        inst = projective_z()
        values = inst.contextual_values(HermitianOperator(SIGMA_Z))
        assert values["up"] == pytest.approx(1.0, abs=1e-12)
        assert values["down"] == pytest.approx(-1.0, abs=1e-12)

    def test_identity_target_minimum_norm(self):
        # For the theta-POM the solution of sum m_k P_k = 1 is unique only up
        # to the POM kernel; the minimum-norm solver picks (1, 1).
        inst = theta_pom_instrument(np.pi / 3)
        values = inst.contextual_values(HermitianOperator(np.eye(2)))
        assert values["+"] == pytest.approx(1.0, abs=1e-10)
        assert values["-"] == pytest.approx(1.0, abs=1e-10)

    def test_outside_span_raises(self):
        inst = theta_pom_instrument(0.5)
        with pytest.raises(NotExpressible):
            inst.contextual_values(HermitianOperator(SIGMA_X))

    def test_moment_reconstruction(self):
        # Reconstructed n-th moments sum_k m^(n)_k p_k must equal <A^n>.
        theta = 0.9
        inst = theta_pom_instrument(theta)
        a = HermitianOperator(SIGMA_Z)
        rng = _rng(25)
        for _ in range(20):
            rho = random_density(2, rng)
            p = np.array([expectation(pk, rho) for pk in inst.pom()])
            power = np.eye(2, dtype=complex)
            for n in range(1, 5):
                power = power @ np.asarray(a)
                m_n = inst.contextual_values(HermitianOperator(power))
                recon = np.array([m_n[l] for l in inst.labels]) @ p
                exact = expectation(HermitianOperator(power), rho)
                assert abs(recon - exact) < 1e-10


@pytest.mark.parametrize(
    "build",
    [
        lambda: KrausSet("a", (np.eye(2),)),
        lambda: random_indirect_model(2, _rng(4)),
        lambda: theta_pom_instrument(0.3),
        lambda: HermitianOperator(SIGMA_Z),
        lambda: DensityOperator(np.eye(2) / 2),
        lambda: generate_random(2, 4, 1),
        lambda: QuasiDistribution(("a0",), ("k",), [[1.0]], [1.0], [1.0]),
    ],
)
def test_equality_of_array_holders_is_a_bool(build):
    # Equality is identity: comparing the ndarray fields would raise on truth value.
    x, y = build(), build()
    assert (x == y) is False
    assert (x == x) is True

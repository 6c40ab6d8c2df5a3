"""Window generation: each member of a window has the bits of the scenario its seed
gives alone, every gate runs once per window, and a stacked gate names a bad member."""

import numpy as np
import pytest

from qmeasure import inequalities
from qmeasure.errors import CompletenessViolation, HermiticityViolation, StateValidationError
from qmeasure.inequalities import _members
from qmeasure.instruments import Instrument, KrausSet, instruments_of
from qmeasure.operators import DensityOperator, hermitian_part, validated_states
from qmeasure.scenario import generate_random, generate_window, subseed


def _arrays(s) -> list[np.ndarray]:
    inst = s.apparatus
    return [
        s.state.matrix,
        s.observable_A.matrix,
        s.observable_B.matrix,
        inst.kraus_stack,
        inst.pom_stack,
        inst.pom_traces,
        *(m for ks in inst.outcomes for m in ks.operators),
    ]


@pytest.mark.parametrize("n_outcomes", [1, 2, 4])
@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_each_member_has_the_bits_of_its_own_scenario(dim, n_outcomes):
    # n_outcomes = 1 takes the raw-index values (A is not in the span of P = 1),
    # and d = 2 with 4 outcomes the contextual values.
    seeds = [subseed(404, (dim, i)) for i in range(5)]
    for member, seed in zip(generate_window(dim, n_outcomes, seeds), seeds):
        alone = generate_random(dim, n_outcomes, seed)
        for x, y in zip(_arrays(member), _arrays(alone), strict=True):
            assert x.shape == y.shape and np.array_equal(x, y)
        assert member.digest() == alone.digest()
        assert member.apparatus.labels == alone.apparatus.labels
        assert (member.values_m, member.values_mB, member.meta) == (alone.values_m, alone.values_mB, alone.meta)


@pytest.mark.parametrize(
    "generate", [generate_random, lambda d, n, seed: generate_window(d, n, [5, seed])], ids=["random", "window"]
)
@pytest.mark.parametrize("seed", [True, 2.5, (83, 2.5)], ids=["bool", "float", "float-in-tuple"])
def test_a_non_integral_seed_is_rejected(generate, seed):
    # Before the gate, True ran the stream of seed 1 and recorded "True" as its seed.
    with pytest.raises(TypeError, match="seed must be an integer"):
        generate(2, 4, seed)


@pytest.mark.parametrize(
    "generate", [generate_random, lambda d, n, seed: generate_window(d, n, [5, seed])], ids=["random", "window"]
)
@pytest.mark.parametrize("seed", [-1, (83, -1)], ids=["int", "int-in-tuple"])
def test_a_negative_seed_is_named(generate, seed):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        generate(2, 4, seed)


def test_a_window_runs_each_gate_once(gate_calls, monkeypatch):
    windows, window = [], inequalities.generate_window

    def recorded(*args):
        windows.append(window(*args))
        return windows[-1]

    def generated(count: int) -> dict:
        gate_calls.clear()
        windows.clear()
        assert len(list(_members([3], count, 777, 4))) == count
        assert [len(w) for w in windows] == [count]
        return dict(gate_calls)

    monkeypatch.setattr(inequalities, "generate_window", recorded)
    assert generated(20) == generated(40)
    assert generated(20)["qr"] == 1


def _kraus_window():
    insts = [generate_random(3, 4, subseed(9, i)).apparatus for i in range(4)]
    return np.stack([inst.kraus_stack for inst in insts]), insts[0].labels


@pytest.mark.parametrize("fault, error", [("incomplete", CompletenessViolation), ("non-finite", StateValidationError)])
def test_the_instrument_gates_name_a_bad_member(fault, error):
    kraus, labels = _kraus_window()
    if fault == "incomplete":
        kraus[2] *= 1.1
    else:
        kraus[2, 1, 0, 0, 0] = np.nan
    with pytest.raises(error, match=r"at index \(2,\)"):
        instruments_of(kraus, labels)
    with pytest.raises(error) as alone:
        Instrument.from_kraus([KrausSet(label, tuple(ops)) for label, ops in zip(labels, kraus[2])])
    assert "index" not in str(alone.value)


def test_the_state_gates_name_a_bad_member():
    states = np.stack([generate_random(3, 1, i).state.matrix for i in range(4)])
    heavy, skew = states.copy(), states.copy()
    heavy[2] *= 1.5
    skew[2, 0, 1] += 1e-3
    with pytest.raises(StateValidationError, match=r"at index \(2,\)"):
        validated_states(heavy)
    with pytest.raises(StateValidationError):
        DensityOperator(heavy[2])
    with pytest.raises(HermiticityViolation, match=r"at index \(2,\)"):
        hermitian_part(skew)
    with pytest.raises(HermiticityViolation):
        DensityOperator(skew[2])

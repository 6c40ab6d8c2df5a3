import dataclasses
import math
import os

import numpy as np
import pytest

from qmeasure.errors import BiasedInstrument, MissingIngredient, NotExpressible
from qmeasure.inequalities import ScenarioContext, _members
from qmeasure.instruments import Instrument, KrausSet, channel
from qmeasure.metrics import (
    NoiseReport,
    epsilon_sq_joint,
    epsilon_sq_system,
    eta_sq_joint,
    eta_sq_lindblad,
    eta_sq_system,
    is_qnd,
    is_unbiased,
    lindblad_decomposition,
    three_state_cross_term,
    unbiased_dispersion,
)
from qmeasure.operators import (
    SIGMA_X,
    SIGMA_Z,
    HermitianOperator,
    expectation,
    max_norm,
)
from qmeasure.scenario import (
    Scenario,
    _rng,
    load_scenario,
    projective_instrument,
    random_density,
    random_hermitian,
    random_indirect_model,
    random_instrument,
    theta_pom_instrument,
)

THETA = np.pi / 3
UNBIASED_M = {"+": 1 / np.cos(THETA), "-": -1 / np.cos(THETA)}
SZ = HermitianOperator(SIGMA_Z)
SX = HermitianOperator(SIGMA_X)


class TestBias:
    def test_unbiased_theta_pom(self, ket_plus):
        inst = theta_pom_instrument(THETA)
        assert epsilon_sq_system(inst, UNBIASED_M, SZ, ket_plus).delta == pytest.approx(0.0, abs=1e-12)

    def test_biased_raw_values(self, ket0):
        # m = +-1 estimates cos(theta) sigma_z, so the bias is (cos(theta)-1)<sigma_z>.
        inst = theta_pom_instrument(THETA)
        expected = np.cos(THETA) - 1.0
        assert epsilon_sq_system(inst, {"+": 1.0, "-": -1.0}, SZ, ket0).delta == pytest.approx(expected, abs=1e-12)

    def test_is_unbiased_flags(self):
        inst = theta_pom_instrument(THETA)
        assert is_unbiased(inst.effective_observable(UNBIASED_M), SZ)
        assert not is_unbiased(inst.effective_observable({"+": 1.0, "-": -1.0}), SZ)


class TestEpsilon:
    def test_projective_zero(self, ket_plus):
        inst = projective_instrument(SZ)
        rep = epsilon_sq_system(inst, {"0": 1.0, "1": -1.0}, SZ, ket_plus)
        assert rep.mean_squared == pytest.approx(0.0, abs=1e-12)

    def test_theta_pom_tan_squared(self):
        # Unbiased theta-POM noise is tan^2(theta) for every preparation.
        inst = theta_pom_instrument(THETA)
        rng = _rng(31)
        for _ in range(25):
            rho = random_density(2, rng)
            rep = epsilon_sq_system(inst, UNBIASED_M, SZ, rho)
            assert rep.mean_squared == pytest.approx(np.tan(THETA) ** 2, abs=1e-10)

    def test_raw_values_closed_form(self):
        # m = +-1: eps^2 = 1 + 1 - 2cos(theta) independent of the state.
        inst = theta_pom_instrument(THETA)
        rng = _rng(32)
        for _ in range(10):
            rho = random_density(2, rng)
            rep = epsilon_sq_system(inst, {"+": 1.0, "-": -1.0}, SZ, rho)
            assert rep.mean_squared == pytest.approx(2 - 2 * np.cos(THETA), abs=1e-12)

    def test_components_sum(self, ket0):
        inst = theta_pom_instrument(0.8)
        rep = epsilon_sq_system(inst, UNBIASED_M, SZ, ket0)
        first, second, cross = rep.components
        assert rep.mean_squared == pytest.approx(first + second - cross, abs=1e-12)

    def test_joint_picture_agreement(self):
        rng = _rng(33)
        for _ in range(30):
            model = random_indirect_model(2, rng)
            inst = Instrument.from_indirect(model)
            rho = random_density(2, rng)
            a = random_hermitian(2, rng)
            values = {label: float(v) for label, v in zip(inst.labels, (1.4, -0.3))}
            sys = epsilon_sq_system(inst, values, a, rho).mean_squared
            joint = epsilon_sq_joint(model, values, a, rho)
            assert abs(sys - joint) < 1e-9

    def test_three_state_identity(self):
        rng = _rng(34)
        for _ in range(30):
            inst = random_instrument(2, 3, rng)
            rho = random_density(2, rng)
            a = random_hermitian(2, rng)
            values = {label: float(i) - 1.0 for i, label in enumerate(inst.labels)}
            lhs, rhs = three_state_cross_term(inst, values, a, rho)
            assert abs(lhs - rhs) < 1e-10


class TestEta:
    def test_projective_z_disturbs_x(self, ket_plus):
        inst = projective_instrument(SZ)
        rep = eta_sq_system(inst, SX, ket_plus)
        assert rep.delta == pytest.approx(-1.0, abs=1e-12)
        assert rep.mean_squared == pytest.approx(2.0, abs=1e-12)

    def test_qnd_zero(self):
        inst = theta_pom_instrument(THETA)
        rng = _rng(35)
        for _ in range(10):
            rho = random_density(2, rng)
            rep = eta_sq_system(inst, SZ, rho)
            assert rep.mean_squared == pytest.approx(0.0, abs=1e-12)

    def test_joint_picture_agreement(self):
        rng = _rng(36)
        for _ in range(30):
            model = random_indirect_model(2, rng)
            inst = Instrument.from_indirect(model)
            rho = random_density(2, rng)
            b = random_hermitian(2, rng)
            sys = eta_sq_system(inst, b, rho).mean_squared
            joint = eta_sq_joint(model, b, rho)
            assert abs(sys - joint) < 1e-9


class TestLindblad:
    def test_sandwich_identity(self):
        # sum_l M+ B M = P_k * B + L_k(B) for every outcome.
        rng = _rng(37)
        for _ in range(30):
            inst = random_instrument(2, 3, rng)
            b = random_hermitian(2, rng)
            sandwiches = channel(inst.kraus_stack[None], np.asarray(b)[None], dual=True)[0]
            for label, sandwich in zip(inst.labels, sandwiches):
                jordan_part, lind = lindblad_decomposition(inst, label, b)
                assert max_norm(sandwich - jordan_part - lind) < 1e-12

    def test_commuting_kraus_no_perturbation(self):
        inst = theta_pom_instrument(0.7)
        for label in inst.labels:
            _, lind = lindblad_decomposition(inst, label, SZ)
            assert max_norm(lind) < 1e-12

    def test_eta_from_lindblad_terms(self):
        rng = _rng(38)
        for _ in range(30):
            inst = random_instrument(2, 4, rng)
            b = random_hermitian(2, rng)
            rho = random_density(2, rng)
            direct = eta_sq_system(inst, b, rho).mean_squared
            via_lindblad = eta_sq_lindblad(inst, b, rho)
            assert abs(direct - via_lindblad) < 1e-11


class TestQndFlag:
    def test_theta_pom_is_qnd_for_z(self):
        assert is_qnd(theta_pom_instrument(1.0), SZ)

    def test_theta_pom_not_qnd_for_x(self):
        assert not is_qnd(theta_pom_instrument(1.0), SX)

    def test_projective_self_qnd(self):
        assert is_qnd(projective_instrument(SX), SX)


class TestDispersion:
    def test_theta_pom_tan_squared(self):
        inst = theta_pom_instrument(THETA)
        rng = _rng(39)
        for _ in range(20):
            rho = random_density(2, rng)
            d = unbiased_dispersion(inst, UNBIASED_M, SZ, rho)
            assert d == pytest.approx(np.tan(THETA) ** 2, abs=1e-10)

    def test_projective_zero(self, ket_plus):
        inst = projective_instrument(SZ)
        d = unbiased_dispersion(inst, {"0": 1.0, "1": -1.0}, SZ, ket_plus)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_biased_rejected(self, ket0):
        inst = theta_pom_instrument(THETA)
        with pytest.raises(BiasedInstrument):
            unbiased_dispersion(inst, {"+": 1.0, "-": -1.0}, SZ, ket0)

    def test_dispersion_equals_epsilon_for_unbiased(self):
        # For an unbiased estimation the dispersion of the mean coincides
        # with the mean-squared noise.
        inst = theta_pom_instrument(0.6)
        m = 1 / np.cos(0.6)
        values = {"+": m, "-": -m}
        rng = _rng(40)
        for _ in range(10):
            rho = random_density(2, rng)
            d = unbiased_dispersion(inst, values, SZ, rho)
            e = epsilon_sq_system(inst, values, SZ, rho).mean_squared
            assert abs(d - e) < 1e-10


def _moment_values_or_none(s: Scenario):
    try:
        return s.apparatus.moment_values(s.observable_A, 2)
    except NotExpressible:
        return None


def _d4_indirect() -> Scenario:
    rng = _rng(41)
    state, a, b = random_density(4, rng), random_hermitian(4, rng), random_hermitian(4, rng)
    model = random_indirect_model(4, rng)
    values = {label: float(i) for i, label in enumerate(model.labels)}
    return Scenario(4, state, a, Instrument.from_indirect(model), values, observable_B=b, indirect=model)


SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _bundled() -> list[Scenario]:
    return [load_scenario(os.path.join(SCENARIOS, name)) for name in sorted(os.listdir(SCENARIOS))]


def _block_members() -> list[tuple[Scenario, ScenarioContext]]:
    """Sweep members in blocks, and the bundled files and a d = 4 indirect scenario as blocks of one."""
    return [*_members([2, 3, 5, 8], 10, 31, 4), *((s, ScenarioContext([s])) for s in [*_bundled(), _d4_indirect()])]


def test_block_metrics_have_the_bits_of_each_scenario():
    # η² in its Lindblad form, the QND flag and m^(2) of every member, built for the
    # whole block, equal the per-scenario functions exactly; without B only m^(2) exists.
    members = _block_members()
    assert max(len(ctx.scenarios) for _, ctx in members) > 1
    assert sum(s.observable_B is None for s, _ in members) == 1
    assert {m is None for m in map(_moment_values_or_none, (s for s, _ in members))} == {True, False}
    for s, ctx in members:
        i = ctx.position(s)
        assert ctx.dispersion_m2[i] == _moment_values_or_none(s)
        if s.observable_B is None:
            for name in ("eta_lindblad", "qnd"):
                with pytest.raises(MissingIngredient):
                    getattr(ctx, name)
            continue
        lindblad = eta_sq_lindblad(s.apparatus, s.observable_B, s.state)
        assert ctx.eta_lindblad[i].hex() == lindblad.hex()
        assert ctx.qnd[i] is is_qnd(s.apparatus, s.observable_B)


def _bits(report: NoiseReport) -> tuple:
    return report.picture, report.delta.hex(), report.mean_squared.hex(), [c.hex() for c in report.components]


def test_noise_pass_has_the_bits_of_each_scenario():
    # ε² of A and B, η² of B and A_e[m] of every member, from the block's one noise
    # pass, equal the per-scenario functions field by field, bit for bit.
    members = _block_members()
    assert max(len(ctx.scenarios) for _, ctx in members) > 1
    kinds = {(s.observable_B is None, s.values_mB is None) for s, _ in members}
    assert kinds == {(True, True), (False, True), (False, False)}
    for s, ctx in members:
        i = ctx.position(s)
        inst, a, b, rho = s.apparatus, s.observable_A, s.observable_B, s.state
        assert _bits(ctx.epsilon[i]) == _bits(epsilon_sq_system(inst, s.values_m, a, rho))
        assert np.array_equal(ctx._noise[0][i, 0], inst.effective_observable(s.values_m).matrix)
        if s.values_mB is not None:
            own = epsilon_sq_system(inst, s.values_mB, b, rho)
            assert _bits(ctx._noise[1][i][1]) == _bits(own)
            assert ctx.eps_B[i].hex() == math.sqrt(own.mean_squared).hex()
        if b is not None:
            assert _bits(ctx.eta[i]) == _bits(eta_sq_system(inst, b, rho))


def test_noise_pass_names_a_missing_values_mb_before_a_missing_b():
    weak, qnd = (load_scenario(os.path.join(SCENARIOS, f"{name}.json")) for name in ("weak_probe", "qnd"))
    ctx = ScenarioContext([weak])
    with pytest.raises(MissingIngredient, match="values_mB"):
        ctx.eps_B
    with pytest.raises(MissingIngredient, match="observable_B"):
        ctx.eta
    with pytest.raises(MissingIngredient, match="observable_B"):
        ScenarioContext([dataclasses.replace(weak, values_mB=dict(weak.values_m))]).eps_B
    ctx = ScenarioContext([dataclasses.replace(qnd, values_mB=None)])
    with pytest.raises(MissingIngredient, match="values_mB"):
        ctx.eps_B
    assert _bits(ctx.eta[0]) == _bits(eta_sq_system(qnd.apparatus, qnd.observable_B, qnd.state))

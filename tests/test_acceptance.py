"""Acceptance gate: eleven analytic-anchor and property-based criteria.

Each test prints a single PASS line on success; any assertion failure marks
the corresponding criterion red.  Tolerances are pinned, not shared with the
unit tests.
"""

import os
import time

import numpy as np
import pytest

from qmeasure.harness import analyze, sample, weak_sweep
from qmeasure.inequalities import (
    ScenarioContext,
    evaluate,
    heisenberg_form_violation_search,
    random_sweep,
)
from qmeasure.instruments import Instrument, solve_contextual_values
from qmeasure.metrics import (
    epsilon_sq_joint,
    epsilon_sq_system,
    eta_sq_joint,
    eta_sq_lindblad,
    eta_sq_system,
    is_qnd,
    lindblad_decomposition,
    three_state_cross_term,
)
from qmeasure.operators import (
    SIGMA_Z,
    HermitianOperator,
    expectation,
    max_norm,
    spectral_decompose,
)
from qmeasure.quasiprob import (
    quasi_mean_squared_difference,
    tmh_disturbance_distribution,
    tmh_error_distribution,
)
from qmeasure.retrodiction import (
    interdictive_disturbance,
    restricted_metrics,
    retrodictive_error,
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
    subseed,
    theta_pom_instrument,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SZ = HermitianOperator(SIGMA_Z)


def _ok(n: int, text: str) -> None:
    print(f"PASS: criterion {n} — {text}")


def test_criterion_01_retrodictive_error_anchor():
    start = time.perf_counter()
    for k in range(25):
        theta = k * np.pi / 24
        inst = theta_pom_instrument(theta)
        for label in ("+", "-"):
            err = retrodictive_error(inst, label, SZ)
            assert abs(err - abs(np.sin(theta))) <= 1e-10, (k, label)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    _ok(1, f"retrodictive error = |sin(theta)| over 25 angles in {elapsed:.3f} s")


def test_criterion_02_unbiased_dispersion_anchor():
    rng = _rng(202)
    thetas = [0.1, 0.5, np.pi / 3, 1.2, 2.0, 2.8]
    for theta in thetas:
        inst = theta_pom_instrument(theta)
        m = 1 / np.cos(theta)
        values = {"+": m, "-": -m}
        target = np.tan(theta) ** 2
        for _ in range(100):
            rho = random_density(2, rng)
            eps = epsilon_sq_system(inst, values, SZ, rho).mean_squared
            assert abs(eps - target) <= 1e-10, theta
    _ok(2, f"eps^2 = tan^2(theta) for 100 states at each of {len(thetas)} angles")


def test_criterion_03_contextual_values_anchor():
    rng = _rng(203)
    # Closed form for a two-outcome diagonal qubit POM against the solver.
    for _ in range(100):
        p11, p12 = rng.uniform(0.05, 0.95, size=2)
        p21, p22 = 1 - p11, 1 - p12
        det = p11 * p22 - p21 * p12
        if abs(det) < 1e-3:
            continue
        a1, a2 = rng.uniform(-2, 2, size=2)
        pom = [
            HermitianOperator(np.diag([p11, p12])),
            HermitianOperator(np.diag([p21, p22])),
        ]
        closed = np.array(
            [(p22 * a1 - p21 * a2) / det, (p11 * a2 - p12 * a1) / det]
        )
        solved = solve_contextual_values(pom, HermitianOperator(np.diag([a1, a2])))
        assert max_norm(solved - closed) <= 1e-10
    # Moment reconstruction sum_k m^(n)_k p_k = <A^n>, n = 1..4.
    inst = theta_pom_instrument(0.7)
    for _ in range(20):
        rho = random_density(2, rng)
        p = np.array([expectation(pk, rho) for pk in inst.pom()])
        power = np.eye(2, dtype=complex)
        for n in range(1, 5):
            power = power @ SIGMA_Z
            m_n = inst.contextual_values(HermitianOperator(power))
            recon = np.array([m_n[l] for l in inst.labels]) @ p
            assert abs(recon - expectation(HermitianOperator(power), rho)) <= 1e-10
    _ok(3, "closed-form contextual values and moment reconstruction to 1e-10")


def test_criterion_04_picture_consistency():
    rng = _rng(204)
    for _ in range(100):
        model = random_indirect_model(2, rng)
        inst = Instrument.from_indirect(model)
        rho = random_density(2, rng)
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        values = {label: float(v) for label, v in zip(inst.labels, rng.uniform(-2, 2, 2))}
        eps_sys = epsilon_sq_system(inst, values, a, rho).mean_squared
        eps_joint = epsilon_sq_joint(model, values, a, rho)
        assert abs(eps_sys - eps_joint) <= 1e-9
        eta_sys = eta_sq_system(inst, b, rho).mean_squared
        eta_joint = eta_sq_joint(model, b, rho)
        assert abs(eta_sys - eta_joint) <= 1e-9
        lhs, rhs = three_state_cross_term(inst, values, a, rho)
        assert abs(lhs - rhs) <= 1e-10
        for label in inst.labels:
            sandwich = inst.adjoint_apply(label, b)
            jordan_part, lind = lindblad_decomposition(inst, label, b)
            assert max_norm(sandwich - jordan_part.matrix - lind.matrix) <= 1e-12
        assert abs(eta_sys - eta_sq_lindblad(inst, b, rho)) <= 1e-11
    _ok(4, "joint/system pictures, three-state, sandwich, and Lindblad identities")


def test_criterion_05_quasiprobability_consistency():
    rng = _rng(205)
    for dim in (2, 3):
        for _ in range(50):
            inst = random_instrument(dim, 3, rng)
            rho = random_density(dim, rng)
            a = random_hermitian(dim, rng)
            b = random_hermitian(dim, rng)
            values = {label: float(v) for label, v in zip(inst.labels, rng.uniform(-2, 2, 3))}
            err = tmh_error_distribution(rho, a, inst, values)
            assert abs(
                quasi_mean_squared_difference(err)
                - epsilon_sq_system(inst, values, a, rho).mean_squared
            ) <= 1e-10
            dist = tmh_disturbance_distribution(rho, b, inst)
            assert abs(
                quasi_mean_squared_difference(dist)
                - eta_sq_system(inst, b, rho).mean_squared
            ) <= 1e-10
            spec = spectral_decompose(a)
            eig_probs = np.array([expectation(p, rho) for p in spec.projectors])
            out_probs = np.array([expectation(p, rho) for p in inst.pom()])
            assert max_norm(err.row_marginals - eig_probs) <= 1e-10
            assert max_norm(err.col_marginals - out_probs) <= 1e-10
            assert abs(err.table.sum() - 1.0) <= 1e-10
            assert abs(dist.table.sum() - 1.0) <= 1e-10
    # Negativity witness by seeded random search.
    most_negative = 0.0
    for i in range(60):
        s = generate_random(2, 2, subseed(123, i))
        d = tmh_error_distribution(s.state, s.observable_A, s.apparatus, s.values_m)
        most_negative = min(most_negative, float(d.table.min()))
    assert most_negative <= -1e-3
    _ok(5, f"quasi = direct on 100 scenarios; negativity witness {most_negative:.4f}")


def test_criterion_06_qnd_projective_degeneracies():
    rng = _rng(206)
    inst = theta_pom_instrument(0.9)  # diagonal Kraus: QND for sigma_z
    assert is_qnd(inst, SZ)
    for _ in range(20):
        rho = random_density(2, rng)
        assert eta_sq_system(inst, SZ, rho).mean_squared <= 1e-10
        table = tmh_disturbance_distribution(rho, SZ, inst).table
        assert max_norm(table - np.diag(np.diag(table))) <= 1e-10
    for _ in range(20):
        a = random_hermitian(3, rng)
        proj = projective_instrument(a)
        values = proj.contextual_values(a)
        rho = random_density(3, rng)
        assert epsilon_sq_system(proj, values, a, rho).mean_squared <= 1e-12
    _ok(6, "QND implies zero disturbance/diagonal table; projective implies zero noise")


def test_criterion_07_universal_inequality_sweep():
    start = time.perf_counter()
    worst = {}
    for dims, count in (([2], 1000), ([3], 300)):
        sweep = random_sweep(dims, count, 777)
        for rid, margin in sweep.min_margins.items():
            worst[rid] = min(worst.get(rid, margin), margin)
    elapsed = time.perf_counter() - start
    assert len(worst) == 10
    for rid, margin in worst.items():
        assert margin >= -1e-9, (rid, margin)
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _ok(7, f"1300 random scenarios, all ten relations hold, {elapsed:.1f} s")


def test_criterion_08_heisenberg_form_violation():
    result = heisenberg_form_violation_search([2], 50, 808)
    assert result.margin <= -0.8 + 1e-9
    assert result.ozawa_margin >= -1e-9
    _ok(8, f"naive product margin {result.margin:+.6f} with Ozawa margin {result.ozawa_margin:+.3e}")


def test_criterion_09_weak_probe_convergence():
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "weak_probe.json"))
    g_list = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
    sweep = weak_sweep(scenario, g_list)
    assert sweep.error_slope == pytest.approx(2.0, abs=0.1)
    for row in sweep.rows:
        bound = (1 - np.sqrt(1 - row.g**2)) * 0.5 + 1e-12
        assert row.error_dist_maxnorm <= bound, row.g
    _ok(9, f"log-log slope {sweep.error_slope:.3f}, per-g bound (1-sqrt(1-g^2))/2 met")


def test_criterion_10_monte_carlo_soundness():
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "theta_pom.json"))
    run = sample(scenario, 1_000_000, 7)
    run_again = sample(scenario, 1_000_000, 7)
    assert run == run_again
    analytic_mean = expectation(scenario.observable_A, scenario.state)
    assert abs(run.empirical_mean - analytic_mean) <= 5 * run.empirical_mean_se
    analytic_eps = epsilon_sq_system(
        scenario.apparatus, scenario.values_m, scenario.observable_A, scenario.state
    ).mean_squared
    assert run.empirical_eps_sq is not None
    # The theta-POM estimator is constant per outcome, so its SE can be
    # exactly zero; allow round-off on top of the 5-SE band.
    assert abs(run.empirical_eps_sq - analytic_eps) <= 5 * run.empirical_eps_sq_se + 1e-12
    _ok(10, "10^6 shots within 5 SE of analytic mean and eps^2; bitwise reproducible")


def test_criterion_11_averaging_identity():
    rng = _rng(211)
    for _ in range(100):
        inst = random_instrument(2, 2, rng)
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        for label in inst.labels:
            total = 0.0
            for idx in range(2):
                rm = restricted_metrics(inst, label, idx, a, b)
                total += rm.p_posterior * rm.eta_B**2
            eta_k = interdictive_disturbance(inst, label, b)
            assert abs(total - eta_k**2) <= 1e-10
    _ok(11, "posterior-averaged restricted disturbance recovers eta^2_{B,k}")

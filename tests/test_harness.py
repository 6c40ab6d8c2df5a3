import dataclasses
import json
import os

import numpy as np
import pytest

from qmeasure import harness
from qmeasure.errors import InternalNumericError
from qmeasure.harness import (
    analyze,
    report_to_dict,
    sample,
    weak_sweep,
    write_distribution_csv,
    write_sweep_csv,
)
from qmeasure.inequalities import evaluate_all
from qmeasure.instruments import Instrument
from qmeasure.operators import SIGMA_X, SIGMA_Z, HermitianOperator, expectation
from qmeasure.scenario import Scenario, load_scenario
from qmeasure.tolerances import POM_PSD_FLOOR

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


@pytest.fixture(scope="module")
def theta_pom_scenario():
    return load_scenario(os.path.join(SCENARIO_DIR, "theta_pom.json"))


@pytest.fixture(scope="module")
def cnot_scenario():
    return load_scenario(os.path.join(SCENARIO_DIR, "cnot_projective.json"))


@pytest.fixture(scope="module")
def qnd_scenario():
    return load_scenario(os.path.join(SCENARIO_DIR, "qnd.json"))


@pytest.fixture(scope="module")
def weak_probe_scenario():
    return load_scenario(os.path.join(SCENARIO_DIR, "weak_probe.json"))


class TestAnalyze:
    def test_theta_pom_report(self, theta_pom_scenario):
        report = analyze(theta_pom_scenario)
        assert report.epsilon.mean_squared == pytest.approx(3.0, abs=1e-10)
        assert report.unbiased
        assert report.delta_A == pytest.approx(0.0, abs=1e-12)
        for o in report.outcome_reports:
            assert o.retrodictive_eps_A == pytest.approx(np.sqrt(3) / 2, abs=1e-10)
        assert set(report.inequalities) == {
            "heisenberg",
            "schrodinger",
            "ozawa",
            "hall",
            "weston",
            "branciard_ee",
            "branciard_ed",
            "hofmann1",
            "hofmann2",
            "hofmann3",
        }

    def test_cnot_report(self, cnot_scenario):
        report = analyze(cnot_scenario)
        assert report.epsilon.mean_squared == pytest.approx(0.0, abs=1e-12)
        assert report.epsilon_joint == pytest.approx(0.0, abs=1e-12)
        assert report.eta_joint == pytest.approx(report.eta.mean_squared, abs=1e-9)
        # Naive product eps_A * eta_B falls below C_AB = 0.8 while Ozawa holds.
        assert report.eta.mean_squared == pytest.approx(2.0, abs=1e-10)
        assert report.inequalities["ozawa"].satisfied
        for o in report.outcome_reports:
            assert o.retrodictive_eps_A == pytest.approx(0.0, abs=1e-10)

    def test_qnd_report(self, qnd_scenario):
        report = analyze(qnd_scenario)
        assert report.qnd
        assert report.eta.mean_squared == pytest.approx(0.0, abs=1e-12)
        table = report.disturbance_distribution.table
        assert np.allclose(table - np.diag(np.diag(table)), 0.0, atol=1e-12)

    def test_deterministic(self, theta_pom_scenario):
        a = report_to_dict(analyze(theta_pom_scenario))
        b = report_to_dict(analyze(theta_pom_scenario))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_dict_schema(self, theta_pom_scenario):
        doc = report_to_dict(analyze(theta_pom_scenario))
        assert doc["schema_version"] == "1"
        json.dumps(doc)  # must be serializable as-is
        assert doc["epsilon"]["mean_squared"] == pytest.approx(3.0, abs=1e-10)

    def test_digest_computed_once(self, theta_pom_scenario, monkeypatch):
        calls = []
        digest = Scenario.digest
        monkeypatch.setattr(Scenario, "digest", lambda self: calls.append(1) or digest(self))
        analyze(theta_pom_scenario)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
    def test_inequalities_match_evaluate_all(self, name):
        s = load_scenario(os.path.join(SCENARIO_DIR, name))
        assert analyze(s).inequalities == evaluate_all(s)


class TestSample:
    def test_counts_sum(self, theta_pom_scenario):
        run = sample(theta_pom_scenario, 1, 3)
        assert sum(run.counts.values()) == 1

    def test_bitwise_reproducibility(self, theta_pom_scenario):
        a = sample(theta_pom_scenario, 5000, 11)
        b = sample(theta_pom_scenario, 5000, 11)
        assert a == b

    def test_seed_sensitivity(self, theta_pom_scenario):
        a = sample(theta_pom_scenario, 5000, 11)
        b = sample(theta_pom_scenario, 5000, 12)
        assert a.counts != b.counts

    def test_pair_counts_consistent(self, theta_pom_scenario):
        run = sample(theta_pom_scenario, 2000, 4)
        assert run.pair_counts is not None
        for label in theta_pom_scenario.apparatus.labels:
            marginal = sum(n for (k, _), n in run.pair_counts.items() if k == label)
            assert marginal == run.counts[label]

    def test_statistical_soundness(self, theta_pom_scenario):
        # Binomial property: over 50 seeds the empirical mean lands within
        # 3 standard errors of the analytic mean at least 47 times.
        s = theta_pom_scenario
        analytic = expectation(s.observable_A, s.state)
        hits = 0
        for seed in range(50):
            run = sample(s, 20_000, seed)
            if abs(run.empirical_mean - analytic) <= 3 * run.empirical_mean_se:
                hits += 1
        assert hits >= 47

    def test_shots_gate(self, theta_pom_scenario):
        with pytest.raises(ValueError):
            sample(theta_pom_scenario, 0, 1)

    @staticmethod
    def _tamper_first_probability(monkeypatch, value):
        """Make the first outcome probability of the per-outcome path ``value``."""
        real = Instrument.outcome_probabilities

        def fake(self, rho):
            probs = real(self, rho)
            probs[0] = value
            return probs

        monkeypatch.setattr(Instrument, "outcome_probabilities", fake)

    def test_negative_probability_below_floor_raises(self, weak_probe_scenario, monkeypatch):
        assert weak_probe_scenario.observable_B is None
        self._tamper_first_probability(monkeypatch, 2 * POM_PSD_FLOOR)
        with pytest.raises(InternalNumericError):
            sample(weak_probe_scenario, 1000, 1)

    def test_roundoff_probability_is_zeroed(self, weak_probe_scenario, monkeypatch):
        self._tamper_first_probability(monkeypatch, POM_PSD_FLOOR / 2)
        run = sample(weak_probe_scenario, 1000, 1)
        first = weak_probe_scenario.apparatus.labels[0]
        assert run.counts[first] == 0
        assert sum(run.counts.values()) == 1000

    def test_negative_stream_variance_below_floor_raises(self):
        # Relative frequencies (2, -1) with values (1, -1): variance 1 - 3^2 = -8.
        with pytest.raises(InternalNumericError):
            harness._stream_se(np.array([1.0, -1.0]), np.array([2.0, -1.0]), 10)

    def test_moments_need_every_power_in_the_span(self, theta_pom_scenario):
        # sigma_x is outside the span of the theta-POM, sigma_x^2 = 1 is inside.
        s = dataclasses.replace(theta_pom_scenario, observable_A=HermitianOperator(SIGMA_X))
        assert analyze(s).dispersion_m2 == pytest.approx({"+": 1.0, "-": 1.0}, abs=1e-12)
        assert sample(s, 1000, 1).empirical_moments is None

    def test_negative_pair_probability_raises(self, theta_pom_scenario, monkeypatch):
        real = Instrument.apply_selective
        first = theta_pom_scenario.apparatus.labels[0]

        def negated(self, label, rho):
            out = real(self, label, rho)
            return -out if label == first else out

        monkeypatch.setattr(Instrument, "apply_selective", negated)
        with pytest.raises(InternalNumericError):
            sample(theta_pom_scenario, 1000, 1)


class TestWeakSweep:
    def test_commuting_scenario_exact(self, qnd_scenario):
        # A, B, the POM, and the probe all share the sigma_z eigenbasis only
        # in the diagonal-state variant; build one from the QND file's parts.
        from qmeasure.operators import DensityOperator, HermitianOperator
        from qmeasure.scenario import Scenario

        s = qnd_scenario
        diag_state = DensityOperator(np.diag([0.6, 0.4]))
        commuting = Scenario(
            dimension=2,
            state=diag_state,
            observable_A=HermitianOperator(SIGMA_Z),
            observable_B=HermitianOperator(SIGMA_Z),
            apparatus=s.apparatus,
            values_m=s.values_m,
            values_mB=s.values_mB,
        )
        sweep = weak_sweep(commuting, [0.5, 0.1, 0.01])
        for row in sweep.rows:
            assert row.error_dist_maxnorm <= 1e-12
            assert row.disturbance_dist_maxnorm <= 1e-12
        assert sweep.error_slope is None

    def test_convergence_slope(self, weak_probe_scenario):
        sweep = weak_sweep(weak_probe_scenario, [0.5, 0.2, 0.1, 0.05, 0.02, 0.01])
        assert sweep.error_slope == pytest.approx(2.0, abs=0.1)
        errors = [r.error_dist_maxnorm for r in sweep.rows]
        assert errors == sorted(errors, reverse=True)

    def test_invalid_strength(self, weak_probe_scenario):
        from qmeasure.errors import InvalidStrength

        with pytest.raises(InvalidStrength):
            weak_sweep(weak_probe_scenario, [0.5, 0.0])


class TestCsvOutputs:
    def test_distribution_csv(self, theta_pom_scenario, tmp_path):
        report = analyze(theta_pom_scenario)
        path = tmp_path / "dist.csv"
        write_distribution_csv(report.error_distribution, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row_label,col_label,row_value,col_value,weight"
        assert len(lines) == 1 + report.error_distribution.table.size

    def test_sweep_csv(self, weak_probe_scenario, tmp_path):
        sweep = weak_sweep(weak_probe_scenario, [0.5, 0.1])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "g,error_dist_maxnorm,disturbance_dist_maxnorm"
        assert lines[-1].startswith("slope-fit,")

import dataclasses
import json
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from qmeasure import harness, inequalities, instruments, metrics
from qmeasure.errors import InternalNumericError, StateValidationError
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
from qmeasure.operators import SIGMA_X, SIGMA_Z, DensityOperator, HermitianOperator, expectation
from qmeasure.scenario import Scenario, load_scenario
from qmeasure.tolerances import POM_PSD_FLOOR

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


@pytest.fixture(scope="module")
def theta_pom_scenario():
    return load_scenario(os.path.join(SCENARIO_DIR, "theta_pom.json"))


@pytest.fixture(scope="module")
def cnot_scenario():
    return load_scenario(os.path.join(SCENARIO_DIR, "cnot_projective.json"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflowedSquare:
    # A = 1e160 sigma_z squares to inf, so every variance of A is NaN.  In the
    # unbiased state <A> = 0, so only Tr(A^2 rho) overflows there.
    @pytest.fixture(params=["theta_pom", "unbiased"])
    def big(self, request, theta_pom_scenario):
        s = dataclasses.replace(theta_pom_scenario, observable_A=HermitianOperator(1e160 * SIGMA_Z))
        return s if request.param == "theta_pom" else dataclasses.replace(s, state=DensityOperator(np.eye(2) / 2))

    @pytest.mark.parametrize("relation", ["heisenberg", "schrodinger", "hofmann1"])
    def test_relations_raise_the_one_overflow_kind(self, big, relation):
        with pytest.raises(InternalNumericError, match="^variance nan"):
            inequalities.evaluate(relation, big)

    @pytest.mark.parametrize("relation", ["heisenberg", "schrodinger"])
    def test_infinite_second_moment_raises(self, relation):
        # A and A^2 have finite entries, <A> = 0, and Tr(A^2 rho) = (1.5e154)^2 is +inf.
        u, v = np.ones(4) / 2, np.array([1, -1, 1, -1]) / 2
        inst = Instrument.from_kraus([instruments.KrausSet(str(k), (np.diag(np.eye(4)[k]),)) for k in range(4)])
        s = Scenario(
            4,
            DensityOperator((np.outer(u, u) + np.outer(v, v)) / 2),
            HermitianOperator(1.5e154 * (np.outer(u, u) - np.outer(v, v))),
            inst,
            {label: 0.0 for label in inst.labels},
            observable_B=HermitianOperator(np.diag([1.0, -1.0, 1.0, -1.0])),
        )
        with pytest.raises(InternalNumericError, match=r"^variance inf at index \(0, 0\) overflows"):
            inequalities.evaluate(relation, s)

    def test_analyze_fails_first_on_epsilon_sq(self, big):
        # epsilon^2 gates A^2 as an operand before any variance is taken.
        with pytest.raises(StateValidationError, match="matrix entries must be finite"):
            analyze(big)


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
    def test_effective_observables_built_once(self, name, monkeypatch):
        # A_e[m] and A_e[m^2] once each for eps_A, which the unbiasedness
        # decision shares, and once each for eps_B when values_mB is given.
        s = load_scenario(os.path.join(SCENARIO_DIR, name))
        calls = []
        real = instruments.effective_observables
        for module in (inequalities, metrics):
            monkeypatch.setattr(module, "effective_observables", lambda pom, v: calls.append(1) or real(pom, v))
        analyze(s)
        assert len(calls) == (2 if s.values_mB is None else 4)

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

    @pytest.mark.parametrize("shots", [True, 2.0**17], ids=["bool", "float"])
    def test_shots_must_be_an_integer(self, theta_pom_scenario, shots):
        with pytest.raises(TypeError):
            sample(theta_pom_scenario, shots, 1)

    def test_numpy_integer_shots(self, theta_pom_scenario):
        assert sample(theta_pom_scenario, np.int64(1000), 5) == sample(theta_pom_scenario, 1000, 5)

    PROBS = pytest.mark.parametrize(
        "probs",
        [[0.25, 0.0, 0.35, 0.35], [0.1, 0.2, 0.0, 0.0, 0.4, 0.3 - 1e-12], [1.0], [0.5, 0.5]],
        ids=["short-total", "zero-widths", "one-cell", "two-cells"],
    )

    @staticmethod
    def _one_draw_counts(seed, shots, probs):
        """The reference: one draw of every uniform, placed by ``searchsorted``."""
        u = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(shots)
        draw = np.searchsorted(np.cumsum(probs), u, side="right")
        return np.bincount(np.minimum(draw, len(probs) - 1), minlength=len(probs))

    @PROBS
    @pytest.mark.parametrize("chunk", [1, 7, 2**20])
    def test_chunked_counts_equal_one_draw(self, probs, chunk):
        # "short-total" sums to 0.95: the last cell takes the draws above it.
        probs = np.array(probs)
        shots = 5000
        expected = self._one_draw_counts(17, shots, probs)
        counts = harness._cell_counts(17, shots, probs, chunk)
        assert counts.tolist() == expected.tolist()

    @PROBS
    @pytest.mark.parametrize("chunk", [1, 7, 2**20])
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("shots", [3, 19, 5001])
    def test_sharded_counts_equal_one_draw(self, probs, chunk, shards, shots):
        # Below 4 shards' worth of draws the leading shards are empty; 5001
        # splits unevenly and leaves each shard a partial last chunk.
        probs = np.array(probs)
        expected = self._one_draw_counts(23, shots, probs)
        counts = harness._cell_counts(23, shots, probs, chunk, shards)
        assert counts.tolist() == expected.tolist()

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        class Broken(RuntimeError):
            pass

        class AdvanceRaises(np.random.Philox):
            def advance(self, delta):
                if delta > 0:
                    raise Broken(f"advance({delta})")
                return super().advance(delta)

        # Only the worker threads advance: shard 0 starts at draw 0.
        monkeypatch.setattr(np.random, "Philox", AdvanceRaises)
        with pytest.raises(Broken):
            harness._cell_counts(1, 5000, np.array([0.5, 0.5]), shards=3)

    @staticmethod
    def _record_threads(monkeypatch) -> list:
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        return started

    def test_the_callers_shard_exception_waits_for_the_workers(self, monkeypatch):
        class Broken(RuntimeError):
            pass

        real = harness._count_shard

        def count_shard(seed, start, stop, edges, step):
            if start == 0:
                raise Broken("shard 0")
            time.sleep(0.05)
            return real(seed, start, stop, edges, step)

        started = self._record_threads(monkeypatch)
        monkeypatch.setattr(harness, "_count_shard", count_shard)
        with pytest.raises(Broken):
            harness._cell_counts(1, 5000, np.array([0.5, 0.5]), shards=3)
        assert len(started) == 2
        assert not any(t.is_alive() for t in started)

    def test_one_thread_per_extra_cpu(self, qnd_scenario, monkeypatch):
        started = self._record_threads(monkeypatch)
        run = sample(qnd_scenario, 10**7, 3)
        # One shard per CPU the process may run on; the caller counts the first.
        assert len(started) == min(harness._cpus(), -(-(10**7) // harness._CHUNK)) - 1
        assert not any(t.is_alive() for t in started)
        assert sum(run.counts.values()) == 10**7

    def test_no_thread_on_one_cpu_or_one_chunk(self, qnd_scenario, monkeypatch):
        started = self._record_threads(monkeypatch)
        sample(qnd_scenario, harness._CHUNK, 3)
        monkeypatch.setattr(harness, "_cpus", lambda: 1)
        sample(qnd_scenario, 10**6, 3)
        assert started == []

    def test_memory_bounded_by_the_chunk(self, qnd_scenario):
        sample(qnd_scenario, 10, 2)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            sample(qnd_scenario, 2_000_000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_probability_raises(self, weak_probe_scenario, monkeypatch, value):
        self._tamper_first_probability(monkeypatch, value)
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
        real = Instrument._channel

        def negated(self, x, dual=False):
            # A_k(rho) of the first outcome negated, the others as they are.
            out = real(self, x, dual)
            return np.concatenate([-out[:1], out[1:]])

        monkeypatch.setattr(Instrument, "_channel", negated)
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

    def test_single_branch_observable(self, weak_probe_scenario):
        # B = 1 has one eigen-branch, whose probe leaves every table unchanged.
        s = dataclasses.replace(weak_probe_scenario, observable_B=HermitianOperator(np.eye(2)))
        sweep = weak_sweep(s, [0.4, 0.2, 0.1])
        for row in sweep.rows:
            assert row.disturbance_dist_maxnorm <= 1e-12
        assert sweep.disturbance_slope is None

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

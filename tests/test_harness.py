import dataclasses
import json
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from qmeasure import harness, inequalities, instruments, metrics, quasiprob
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

    @pytest.mark.parametrize("name", ["theta_pom", "cnot_projective", "weak_probe"])
    def test_report_dict_keys(self, name):
        # The keys are the report dataclasses' fields, with outcome_reports under
        # "outcomes" and each inequality record written as five keys.
        doc = report_to_dict(analyze(load_scenario(os.path.join(SCENARIO_DIR, f"{name}.json"))))
        assert set(doc) == {
            "schema_version",
            "scenario_digest",
            "delta_A",
            "epsilon",
            "epsilon_joint",
            "unbiased",
            "dispersion_m2",
            "delta_B",
            "eta",
            "eta_joint",
            "eta_lindblad",
            "qnd",
            "error_distribution",
            "disturbance_distribution",
            "outcomes",
            "inequalities",
            "meta",
        }
        with_b, joint = name != "weak_probe", name == "cnot_projective"
        assert (doc["eta"] is None, doc["disturbance_distribution"] is None) == (not with_b, not with_b)
        assert (doc["epsilon_joint"] is None, doc["eta_joint"] is None) == (not joint, not joint)
        for noise in filter(None, (doc["epsilon"], doc["eta"])):
            assert set(noise) == {"delta", "mean_squared", "picture", "components"}
        for dist in filter(None, (doc["error_distribution"], doc["disturbance_distribution"])):
            assert set(dist) == {"row_labels", "col_labels", "row_values", "col_values", "table"}
        outcome_keys = {
            "label",
            "probability",
            "pom_trace",
            "retrodictive_eps_A",
            "retrodictive_eps_B",
            "interdictive_eta_B",
        }
        assert doc["outcomes"] and all(set(o) == outcome_keys for o in doc["outcomes"])
        assert bool(doc["inequalities"]) == with_b
        for rec in doc["inequalities"].values():
            assert set(rec) == {"lhs", "rhs", "margin", "satisfied", "sub_records"}
            for sub in rec["sub_records"]:
                assert set(sub) == {"outcome", "lhs", "rhs", "margin"}
        assert any(rec["sub_records"] for rec in doc["inequalities"].values()) == with_b
        # No tuple or array leaks: the document survives a JSON round trip unchanged.
        assert json.loads(json.dumps(doc)) == doc

    def test_digest_computed_once(self, theta_pom_scenario, monkeypatch):
        calls = []
        digest = Scenario.digest
        monkeypatch.setattr(Scenario, "digest", lambda self: calls.append(1) or digest(self))
        analyze(theta_pom_scenario)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
    def test_effective_observables_built_once(self, name, monkeypatch):
        # One call builds A_e of the m and m^2 rows for eps_A, which the unbiasedness
        # decision shares, and of the m_B and m_B^2 rows for eps_B when values_mB is given.
        s = load_scenario(os.path.join(SCENARIO_DIR, name))
        calls = []
        real = instruments.effective_observables
        monkeypatch.setattr(metrics, "effective_observables", lambda pom, v: calls.append(1) or real(pom, v))
        analyze(s)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
    def test_one_noise_pass(self, name, monkeypatch):
        # eps_A, eps_B and eta_B come from one _noise_reports call: eps_A alone
        # without B, eps_B only with values_mB.
        s = load_scenario(os.path.join(SCENARIO_DIR, name))
        sizes = []
        real = metrics._noise_reports

        def counted(*args):
            reports = real(*args)
            sizes.append(len(reports))
            return reports

        monkeypatch.setattr(metrics, "_noise_reports", counted)
        analyze(s)
        with_b = s.observable_B is not None
        assert sizes == [1 + with_b + (with_b and s.values_mB is not None)]
        assert (sizes == [1]) == (name == "weak_probe.json")

    def test_a_failing_state_after_gate_stops_analyze_before_the_eps_cross_check(self, monkeypatch):
        # The state after the instrument is gated in the one noise pass, which the first
        # read of epsilon runs, so with B that gate fails before any epsilon^2 cross-check;
        # without B the pass has no state after, and analyze completes.
        def failing_gate(m):
            raise StateValidationError("state after failed")

        checks = []
        real = quasiprob.quasi_mean_squared_difference
        monkeypatch.setattr(metrics, "validated_states", failing_gate)
        monkeypatch.setattr(harness, "quasi_mean_squared_difference", lambda d: checks.append(d) or real(d))
        with pytest.raises(StateValidationError, match="^state after failed$"):
            analyze(load_scenario(os.path.join(SCENARIO_DIR, "qnd.json")))
        assert checks == []
        analyze(load_scenario(os.path.join(SCENARIO_DIR, "weak_probe.json")))
        assert len(checks) == 1

    @pytest.mark.parametrize(
        "name, message",
        [
            ("qnd", r"^second moment 2\.220e-16 at index \(0, 2\) below 1e-12$"),
            ("cnot_projective", r"^second moment 0\.000e\+00 at index \(0, 0\) below 1e-12$"),
        ],
    )
    def test_the_second_moment_floor_names_member_and_kind(self, name, message, monkeypatch):
        # The noise pass gates eps_A^2, eps_B^2 and eta_B^2 of a member together, so the
        # error names (member, kind), kinds in that order: qnd's eta^2 is 2.2e-16 and
        # cnot_projective's eps_A^2 is 0, both below a raised floor of 1e-12.
        monkeypatch.setattr(metrics, "SECOND_MOMENT_FLOOR", 1e-12)
        with pytest.raises(InternalNumericError, match=message):
            analyze(load_scenario(os.path.join(SCENARIO_DIR, f"{name}.json")))

    @pytest.mark.parametrize(
        "name, prefix, message",
        [
            ("theta_pom", "a", r"^epsilon\^2 mismatch: direct .* vs quasi"),
            ("qnd", "b'", r"^eta\^2 mismatch: direct .* vs quasi"),
        ],
    )
    def test_quasi_cross_checks_run(self, name, prefix, message, monkeypatch):
        # Offsetting the quasi form of one table by 1e-6 trips its cross-check.
        real = quasiprob.quasi_mean_squared_difference
        offset = lambda dist: real(dist) + (1e-6 if dist.row_labels[0] == f"{prefix}0" else 0.0)
        monkeypatch.setattr(harness, "quasi_mean_squared_difference", offset)
        with pytest.raises(InternalNumericError, match=message):
            analyze(load_scenario(os.path.join(SCENARIO_DIR, f"{name}.json")))

    @pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
    def test_tmh_tables_built_once(self, name, monkeypatch):
        # One stacked build per table, and no disturbance table without B.
        s = load_scenario(os.path.join(SCENARIO_DIR, name))
        calls = []
        for builder in ("tmh_error_stack", "tmh_disturbance_stack"):
            real = getattr(quasiprob, builder)
            counted = lambda *args, real=real, builder=builder: calls.append(builder) or real(*args)
            for module in (inequalities, quasiprob):
                monkeypatch.setattr(module, builder, counted)
        analyze(s)
        assert calls == ["tmh_error_stack"] + ([] if s.observable_B is None else ["tmh_disturbance_stack"])
        assert (s.observable_B is None) == (name == "weak_probe.json")

    @pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
    def test_lindblad_qnd_and_m2_built_once(self, name, monkeypatch):
        # One stacked build each of η²_Lindblad and the QND flag, none without B, and one m^(2) solve.
        s = load_scenario(os.path.join(SCENARIO_DIR, name))
        calls = []
        for builder in ("eta_sq_lindblad_stack", "is_qnd_stack"):
            real = getattr(metrics, builder)
            counted = lambda *args, real=real, builder=builder: calls.append(builder) or real(*args)
            for module in (inequalities, metrics):
                monkeypatch.setattr(module, builder, counted)
        real_solve = inequalities.contextual_value_rows
        monkeypatch.setattr(inequalities, "contextual_value_rows", lambda *args: calls.append("m2") or real_solve(*args))
        analyze(s)
        builders = [] if s.observable_B is None else ["eta_sq_lindblad_stack", "is_qnd_stack"]
        assert sorted(calls) == sorted(builders + ["m2"])

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

    @pytest.mark.parametrize("seed", [True, 1.7, np.float64(2.0)], ids=["bool", "float", "numpy-float"])
    def test_seed_must_be_an_integer(self, theta_pom_scenario, seed):
        # A seed of 1.7 used to run, and report, seed 1.
        with pytest.raises(TypeError, match="seed"):
            sample(theta_pom_scenario, 1000, seed)

    def test_a_negative_seed_is_named(self, theta_pom_scenario):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            sample(theta_pom_scenario, 1000, -3)

    def test_numpy_integer_shots(self, theta_pom_scenario):
        assert sample(theta_pom_scenario, np.int64(1000), 5) == sample(theta_pom_scenario, 1000, 5)

    PROBS = pytest.mark.parametrize(
        "probs",
        [
            [0.25, 0.0, 0.35, 0.35],
            [0.1, 0.2, 0.0, 0.0, 0.4, 0.3 - 1e-12],
            [1.0],
            [0.5, 0.5],
            [0.0, 0.3, 0.7],
            [0.4, 0.6, 0.0],
            [0.6, 0.5, 0.0],
        ],
        ids=["short-total", "zero-widths", "one-cell", "two-cells", "leading-zero", "inner-edge-one", "edge-above-one"],
    )

    @staticmethod
    def _one_draw_counts(seed, shots, probs):
        """The reference: one draw of every uniform, placed by ``searchsorted``."""
        u = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(shots)
        draw = np.searchsorted(np.cumsum(probs), u, side="right")
        return np.bincount(np.minimum(draw, len(probs) - 1), minlength=len(probs))

    @pytest.mark.parametrize("jump", [0, 1, 12345])
    def test_uniforms_are_the_top_53_bits_of_the_words(self, jump):
        # The counts compare raw words with integer limits; this is the double
        # numpy makes of each word, on a fresh stream and after advance.
        gen, raw = (np.random.Philox(np.random.SeedSequence(29)) for _ in range(2))
        gen.advance(jump)
        raw.advance(jump)
        u = np.random.Generator(gen).random(1001)
        assert u.tobytes() == ((raw.random_raw(1001) >> 11) * 2.0**-53).tobytes()

    @PROBS
    @pytest.mark.parametrize("chunk", [1, 7, 2**20])
    def test_chunked_counts_equal_one_draw(self, probs, chunk):
        # "short-total" sums to 0.95: the last cell takes the draws above it.
        # "inner-edge-one" and "edge-above-one" have edges whose limit is >= 2^64.
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

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("above", [False, True], ids=["on-a-draw", "just-above-a-draw"])
    def test_an_edge_at_a_draw(self, shards, above):
        # On the edge, the draw lands in cell 1: the comparison is strict.  Just
        # above a draw below 1/2 the edge is no multiple of 2^-53, and the draw
        # lands in cell 0 only if the edge's limit rounds up.
        shots = 5001
        draws = np.random.Generator(np.random.Philox(np.random.SeedSequence(31))).random(shots)
        u = draws[4322]
        assert u < 0.5 and np.count_nonzero(draws == u) == 1
        e = np.nextafter(u, 1.0) if above else u
        counts = harness._cell_counts(31, shots, np.array([e, 1.0 - e]), shards=shards)
        assert counts.tolist() == [np.count_nonzero(draws < e), np.count_nonzero(draws >= e)]

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
        real = harness.channel

        def negated(kraus, x):
            # A_k(rho) of the first outcome negated, the others as they are.
            out = real(kraus, x)
            return np.concatenate([-out[:, :1], out[:, 1:]], axis=1)

        monkeypatch.setattr(harness, "channel", negated)
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

    def test_no_strengths(self, qnd_scenario):
        sweep = weak_sweep(qnd_scenario, [])
        assert sweep.rows == ()
        assert sweep.error_slope is None and sweep.disturbance_slope is None

    def test_invalid_strength(self, weak_probe_scenario):
        from qmeasure.errors import InvalidStrength

        with pytest.raises(InvalidStrength, match=r"^probe strength 0\.0 outside \(0, 1\]$"):
            weak_sweep(weak_probe_scenario, [0.5, 0.0])


class TestCsvOutputs:
    def test_distribution_csv(self, theta_pom_scenario, qnd_scenario, tmp_path):
        reports = [analyze(theta_pom_scenario), analyze(qnd_scenario)]
        for dist in [d for r in reports for d in (r.error_distribution, r.disturbance_distribution)]:
            path = tmp_path / "dist.csv"
            write_distribution_csv(dist, path)
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "row_label,col_label,row_value,col_value,weight"
            assert len(lines) == 1 + dist.table.size
            cells = [line.split(",") for line in lines[1:]]
            expected = [
                [rl, cl, dist.row_values[i], dist.col_values[j], dist.table[i, j]]
                for i, rl in enumerate(dist.row_labels)
                for j, cl in enumerate(dist.col_labels)
            ]
            for row, want in zip(cells, expected):
                # Every number is a Python float repr that reads back to its array entry, bit for bit.
                assert row[:2] == want[:2]
                assert [np.float64(float(x)).tobytes() for x in row[2:]] == [x.tobytes() for x in want[2:]]

    def test_sweep_csv(self, weak_probe_scenario, tmp_path):
        sweep = weak_sweep(weak_probe_scenario, [0.5, 0.1])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "g,error_dist_maxnorm,disturbance_dist_maxnorm"
        assert lines[-1].startswith("slope-fit,")

import gc
import hashlib
import weakref

import numpy as np
import pytest

from qmeasure import inequalities
from qmeasure.errors import InternalNumericError, MissingIngredient
from qmeasure.inequalities import (
    RELATION_IDS,
    ScenarioContext,
    _blocks_of,
    evaluate,
    evaluate_all,
    heisenberg_form_violation_search,
    random_sweep,
)
from qmeasure.operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityOperator,
    HermitianOperator,
)
from qmeasure.instruments import Instrument, KrausSet
from qmeasure.scenario import (
    Scenario,
    _rng,
    generate_random,
    projective_instrument,
    random_density,
    random_hermitian,
    random_unitary,
    subseed,
    theta_pom_instrument,
)

THETA = np.pi / 3
HOFMANN_SWEEP_SHA256 = "2e580f6938e16c470bd98fc3e167e787f00f5a27329df053468debee27333504"
SWEEP_LHS_RHS_SHA256 = "699fda1df1a7f54370894f86e0d5399ff0db3352627599e25888f9550e85aca6"


def theta_scenario(rho_matrix) -> Scenario:
    m = 1 / np.cos(THETA)
    return Scenario(
        dimension=2,
        state=DensityOperator(np.asarray(rho_matrix, dtype=complex)),
        observable_A=HermitianOperator(SIGMA_Z),
        observable_B=HermitianOperator(SIGMA_X),
        apparatus=theta_pom_instrument(THETA),
        values_m={"+": m, "-": -m},
        values_mB={"+": 0.0, "-": 0.0},
    )


def violation_scenario() -> Scenario:
    return Scenario(
        dimension=2,
        state=DensityOperator((np.eye(2) + 0.8 * SIGMA_Y) / 2),
        observable_A=HermitianOperator(SIGMA_Z),
        observable_B=HermitianOperator(SIGMA_X),
        apparatus=projective_instrument(HermitianOperator(SIGMA_Z)),
        values_m={"0": 1.0, "1": -1.0},
        values_mB={"0": 0.0, "1": 0.0},
    )


class TestSingleRelations:
    def test_heisenberg_values(self):
        s = violation_scenario()
        rec = evaluate("heisenberg", s)
        # sigma_A = 1, sigma_B = 1, C_AB = |<sigma_y>| = 0.8.
        assert rec.lhs == pytest.approx(1.0, abs=1e-10)
        assert rec.rhs == pytest.approx(0.8, abs=1e-10)
        assert rec.satisfied

    def test_ozawa_holds_on_violation_scenario(self):
        # eps_A = 0 but sigma_A * eta_B = sqrt(2) >= 0.8 keeps Ozawa intact.
        rec = evaluate("ozawa", violation_scenario())
        assert rec.lhs == pytest.approx(np.sqrt(2), abs=1e-10)
        assert rec.rhs == pytest.approx(0.8, abs=1e-10)
        assert rec.satisfied

    def test_naive_product_fails_where_ozawa_holds(self):
        ctx = ScenarioContext([violation_scenario()])
        assert ctx.eps_A[0] * ctx.eta_B[0] - ctx.c_ab[0] == pytest.approx(-0.8, abs=1e-9)

    def test_schrodinger_tighter_than_heisenberg(self):
        s = theta_scenario(np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]]))
        ctx = ScenarioContext([s])
        h = evaluate("heisenberg", s, ctx)
        sch = evaluate("schrodinger", s, ctx)
        # lhs^2 - rhs for Schroedinger minus Heisenberg equals -covariance^2 <= 0.
        assert sch.lhs - sch.rhs <= h.lhs**2 - h.rhs**2 + 1e-12

    def test_hofmann1_theta_pom(self):
        # Retrodictive states of a theta-POM are diagonal, so C_zx vanishes
        # and the per-outcome lhs is |sin(theta)| * 1.
        rec = evaluate("hofmann1", theta_scenario(np.eye(2) / 2))
        assert len(rec.sub_records) == 2
        for sub in rec.sub_records:
            assert sub.lhs == pytest.approx(abs(np.sin(THETA)), abs=1e-10)
            assert sub.rhs == pytest.approx(0.0, abs=1e-10)

    def test_worst_outcome_promoted(self):
        rec = evaluate("hofmann3", theta_scenario(np.eye(2) / 2))
        worst = min(sub.margin for sub in rec.sub_records)
        assert rec.margin == pytest.approx(worst, abs=1e-15)

    def test_missing_observable_b(self):
        s = theta_scenario(np.eye(2) / 2)
        bare = Scenario(
            dimension=2,
            state=s.state,
            observable_A=s.observable_A,
            apparatus=s.apparatus,
            values_m=s.values_m,
        )
        with pytest.raises(MissingIngredient):
            evaluate("ozawa", bare)
        records = evaluate_all(bare)
        assert records == {}

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            evaluate("galois", theta_scenario(np.eye(2) / 2))


    def test_negative_stream_variance_below_floor_raises(self):
        # p = (2, -1) with values (2, -2): variance 4 - 6^2 = -32.
        ctx = ScenarioContext([theta_scenario(np.eye(2) / 2)])
        ctx.outcome_probs = np.array([[2.0, -1.0]])
        with pytest.raises(InternalNumericError):
            ctx.sigma_est


class TestEvaluateAll:
    def test_all_relations_present_and_satisfied(self):
        records = evaluate_all(theta_scenario(np.array([[0.6, 0.2], [0.2, 0.4]])))
        assert set(records) == set(RELATION_IDS)
        for rec in records.values():
            assert rec.satisfied, rec.relation_id

    def test_digest_attached(self):
        s = theta_scenario(np.eye(2) / 2)
        records = evaluate_all(s)
        assert all(rec.inputs_digest == s.digest() for rec in records.values())


class TestSweeps:
    def test_random_sweep_margins(self):
        sweep = random_sweep([2], 60, 2024)
        assert sweep.min_margins
        for rid, margin in sweep.min_margins.items():
            assert margin >= -1e-9, rid

    def test_determinism(self):
        a = random_sweep([2], 10, 7)
        b = random_sweep([2], 10, 7)
        assert [r.lhs for r in a.records] == [r.lhs for r in b.records]
        assert a.min_margins == b.min_margins

    def test_count_gate(self):
        with pytest.raises(ValueError):
            random_sweep([2], 0, 1)

    def test_seed_gate(self):
        # subseed used to truncate: a seed of 2.7 ran seed 2.
        for seed in (True, 2.7):
            with pytest.raises(TypeError, match="seed"):
                random_sweep([2], 2, seed)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            random_sweep([2], 2, -1)

    def test_min_margins_are_the_least_margin_of_each_relation(self):
        sweep = random_sweep([2, 3], 5, 41)
        least = {rid: min(r.margin for r in sweep.records if r.relation_id == rid) for rid in RELATION_IDS}
        assert list(sweep.min_margins) == list(RELATION_IDS)
        assert sweep.min_margins == least

    def test_hofmann_records_are_bit_pinned(self):
        # SHA-256 over the repr of every hofmann1/2/3 record (lhs, rhs and each
        # sub-record's outcome, lhs and rhs) of one fixed sweep.  A change to
        # the single-outcome layer that moves any bit of these floats fails here.
        sweep = random_sweep([2, 3, 8], 3, 777)
        digest = hashlib.sha256()
        for r in sweep.records:
            if r.relation_id.startswith("hofmann"):
                subs = [(s.outcome, s.lhs, s.rhs) for s in r.sub_records]
                digest.update(repr((r.relation_id, r.lhs, r.rhs, subs)).encode())
        assert digest.hexdigest() == HOFMANN_SWEEP_SHA256

    def test_every_record_is_bit_pinned(self):
        # SHA-256 over the repr of (lhs, rhs) of every record, all ten
        # relations, of a 60-scenario sweep at d = 2, 3 and 8.
        sweep = random_sweep([2, 3, 8], 20, 777)
        digest = hashlib.sha256()
        for r in sweep.records:
            digest.update(repr((r.lhs, r.rhs)).encode())
        assert len(sweep.records) == 600
        assert digest.hexdigest() == SWEEP_LHS_RHS_SHA256


def test_sweep_digests_are_computed_on_read(monkeypatch):
    calls = []
    digest = Scenario.digest
    monkeypatch.setattr(Scenario, "digest", lambda self: calls.append(1) or digest(self))
    sweep = random_sweep([2, 3], 3, 5)
    assert calls == []
    members = [(d, i) for d in (2, 3) for i in range(3)]
    assert len(sweep.records) == 10 * len(members)
    read = [r.inputs_digest for r in sweep.records]
    assert len(calls) == len(members)
    expected = [generate_random(d, 4, subseed(5, (d, i))).digest() for d, i in members]
    assert read == [x for x in expected for _ in range(10)]


def test_a_finished_sweep_keeps_no_scenario_alive(monkeypatch):
    members = []
    window = inequalities.generate_window

    def tracked(dim, n_outcomes, seeds):
        generated = window(dim, n_outcomes, seeds)
        members.extend(weakref.ref(s) for s in generated)
        return generated

    monkeypatch.setattr(inequalities, "generate_window", tracked)
    sweep = random_sweep([2, 3], 3, 5)
    gc.collect()
    assert len(members) == 6 and all(ref() is None for ref in members)
    assert len(sweep.records) == 60


class TestViolationSearch:
    def test_analytic_construction_found(self):
        result = heisenberg_form_violation_search([2], 20, 99)
        assert result.margin <= -0.8 + 1e-9
        assert result.ozawa_margin >= -1e-9

    def test_a_generated_winner_is_bit_pinned(self):
        # Without d = 2 no analytic member competes, so a generated member wins.
        result = heisenberg_form_violation_search([3], 50, 808)
        pinned = ("2.2934892908670355", "0.23064177820944468", "2.0628475126575907", "4.977291005101659")
        assert tuple(map(repr, (result.product, result.bound, result.margin, result.ozawa_margin))) == pinned
        assert result.scenario.digest() == "5d59de9d6cbf886d"

    def test_ozawa_is_evaluated_once_for_the_winner(self, monkeypatch):
        relations = []
        evaluate_one = inequalities.evaluate

        def counted(relation_id, *args):
            relations.append(relation_id)
            return evaluate_one(relation_id, *args)

        monkeypatch.setattr(inequalities, "evaluate", counted)
        result = heisenberg_form_violation_search([3], 50, 808)
        assert relations == ["ozawa"]
        assert result.ozawa_margin == evaluate_one("ozawa", result.scenario).margin

    def test_the_search_holds_one_window_and_its_winners_block(self, monkeypatch):
        # At d = 8 a window holds 32 members, all of one block: 70 members come in
        # windows of 32, 32 and 6. Before each window is generated, only the block
        # of the best member so far is alive; after the search, only the winner.
        members, alive_before = [], []
        window = inequalities.generate_window

        def tracked(dim, n_outcomes, seeds):
            gc.collect()
            alive_before.append(sum(ref() is not None for ref in members))
            generated = window(dim, n_outcomes, seeds)
            members.extend(weakref.ref(s) for s in generated)
            return generated

        monkeypatch.setattr(inequalities, "generate_window", tracked)
        result = heisenberg_form_violation_search([8], 70, 3)
        gc.collect()
        assert alive_before[0] == 0 and max(alive_before) <= 32 and len(alive_before) == 3
        assert [ref() for ref in members if ref() is not None] == [result.scenario]

    @pytest.mark.parametrize("dims", [[2], [3], [2, 3]])
    def test_an_iterator_of_dims_searches_the_same_candidates(self, dims, monkeypatch):
        generated = []
        window = inequalities.generate_window

        def counted(dim, n_outcomes, seeds):
            members = window(dim, n_outcomes, seeds)
            generated.extend(members)
            return members

        monkeypatch.setattr(inequalities, "generate_window", counted)
        listed = heisenberg_form_violation_search(dims, 5, 1)
        n_listed = len(generated)
        iterated = heisenberg_form_violation_search(iter(dims), 5, 1)
        assert n_listed == 5 * len(dims) and len(generated) == 2 * n_listed
        assert (iterated.scenario.digest(), iterated.margin) == (listed.scenario.digest(), listed.margin)


def _rows(records) -> list[str]:
    return [repr((r.relation_id, r.lhs, r.rhs, r.inputs_digest, r.sub_records)) for r in records]


def _special_d3(kind: int) -> Scenario:
    """d = 3 scenarios that share no block signature with those of four single-Kraus
    outcomes: outcomes with 1, 2 and 3 Kraus operators (kind 0), a null outcome
    (kind 1), a B with a grouped eigenvalue (kind 2); and three outcomes with Kraus
    counts (1, 2, 2), (2, 1, 2) and (2, 2, 1) (kinds 3 to 5), which share one slot
    count L = 2 and so one signature."""
    rng = _rng((61, kind))
    state, a, b = random_density(3, rng), random_hermitian(3, rng), random_hermitian(3, rng)
    n_kraus = {0: 6, 3: 5, 4: 5, 5: 5}.get(kind, 3)
    isometry = random_unitary(3 * n_kraus, rng)[:, :3]
    m = [isometry[3 * i : 3 * i + 3] for i in range(n_kraus)]
    sets = [KrausSet(str(k), (mk,)) for k, mk in enumerate(m)]
    if kind == 0:
        sets = [KrausSet("one", (m[0],)), KrausSet("two", tuple(m[1:3])), KrausSet("three", tuple(m[3:]))]
    if kind >= 3:
        ends = np.cumsum([0] + [1 if k == kind - 3 else 2 for k in range(3)])
        sets = [KrausSet(str(k), tuple(m[ends[k] : ends[k + 1]])) for k in range(3)]
    if kind == 1:
        sets.insert(1, KrausSet("null", (1e-8 * np.eye(3, dtype=complex),)))
    if kind == 2:
        u = random_unitary(3, rng)
        b = HermitianOperator(u @ np.diag([1.0, 1.0, -0.5]) @ u.conj().T)
    inst = Instrument.from_kraus(sets)
    values = {ks.label: float(i) for i, ks in enumerate(sets)}
    return Scenario(3, state, a, inst, values, observable_B=b, values_mB=values)


class TestBlocks:
    @pytest.mark.parametrize("dim, short, long", [(2, 3, 7), (3, 3, 7), (8, 34, 40)])
    def test_a_longer_sweep_keeps_the_records_of_a_shorter_one(self, dim, short, long):
        # The sweeps stack different numbers of members per window; at d = 8 a
        # window holds 32 scenarios, so scenarios 32 and 33 are generated and
        # evaluated in windows of 2 and 8.
        a, b = random_sweep([dim], short, 31), random_sweep([dim], long, 31)
        assert len(a.records) == 10 * short
        assert _rows(b.records[: 10 * short]) == _rows(a.records)

    def test_mixed_signatures_match_blocks_of_one(self):
        def batch():
            randoms = [generate_random(3, 4, subseed(5, (3, i))) for i in range(4)]
            specials = [_special_d3(kind) for kind in range(6)]
            return [randoms[0], specials[3], *specials[:2], randoms[1], specials[4], specials[2], *randoms[2:], specials[5]]

        blocked = list(_blocks_of(batch()))
        contexts = {id(ctx): ctx for _, ctx in blocked}.values()
        # Ragged Kraus counts of one slot count share a block: kinds 3 to 5 form one.
        assert sorted(len(ctx.scenarios) for ctx in contexts) == [1, 1, 1, 3, 4]
        ragged = [ctx for ctx in contexts if len(ctx.scenarios) == 3][0]
        assert [[len(ks.operators) for ks in s.apparatus.outcomes] for s in ragged.scenarios] == [
            [1, 2, 2],
            [2, 1, 2],
            [2, 2, 1],
        ]
        for (s, ctx), alone in zip(blocked, batch()):
            assert _rows(evaluate_all(s, ctx).values()) == _rows(evaluate_all(alone).values())

    def test_evaluation_runs_each_gate_once_per_block(self, gate_calls):
        # Both sweeps are one d = 3 window and one block: the gates of its spectra,
        # kernels and noise reports run on the block's stacks, whatever its size.
        def evaluated(count: int) -> dict:
            gate_calls.clear()
            random_sweep([3], count, 777)
            return dict(gate_calls)

        assert evaluated(20) == evaluated(40)

    def test_context_needs_one_signature(self):
        with pytest.raises(ValueError):
            ScenarioContext([generate_random(3, 4, 1), _special_d3(0)])
        with pytest.raises(ValueError):
            evaluate("heisenberg", generate_random(3, 4, 1), ScenarioContext([generate_random(3, 4, 1)]))


class TestSaturation:
    # A projective measurement of sigma_theta = cos(theta) sigma_z + sin(theta) sigma_x
    # on |+y>, with values +-cos(theta) for A = sigma_z and +-sin(theta) for B = sigma_x,
    # has eps_A^2 = sin^2(theta), eps_B^2 = cos^2(theta) and sigma_A = sigma_B = C_AB = 1:
    # Heisenberg, Schroedinger and Branciard's eps-eps relation hold with equality.
    @pytest.mark.parametrize("theta", np.linspace(0.05, np.pi / 2 - 0.05, 25))
    def test_closed_forms_and_zero_margins(self, theta):
        c, s = np.cos(theta), np.sin(theta)
        scenario = Scenario(
            dimension=2,
            state=DensityOperator((np.eye(2) + SIGMA_Y) / 2),
            observable_A=HermitianOperator(SIGMA_Z),
            observable_B=HermitianOperator(SIGMA_X),
            apparatus=projective_instrument(HermitianOperator(c * SIGMA_Z + s * SIGMA_X)),
            values_m={"0": c, "1": -c},
            values_mB={"0": s, "1": -s},
        )
        ctx = ScenarioContext([scenario])
        got = [ctx.epsilon[0].mean_squared, ctx.eps_B[0] ** 2, *ctx.sigma[0], ctx.c_ab[0]]
        for x, closed in zip(got, [s**2, c**2, 1.0, 1.0, 1.0]):
            assert abs(x - closed) <= 1e-12 * max(1.0, abs(closed))
        for rid in ("heisenberg", "schrodinger", "branciard_ee"):
            rec = evaluate(rid, scenario, ctx)
            assert abs(rec.margin) <= 1e-12 * max(1.0, abs(rec.rhs)), rid

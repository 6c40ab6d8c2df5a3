"""Symmetry oracles: transforms of a scenario under which every printed number is
invariant, each taking a different float path through every product.

(a) Conjugating the state, A, B and every Kraus operator by one unitary U.
(b) Permuting the outcomes, each with its label.
(c) Changing the Kraus representation within each outcome, M_l -> sum_m u_lm M_m
    with u Haar.
(d) Merging two outcomes of equal m and m_B into one Kraus set.
(e) Embedding into d + 1 levels as a direct sum with an unpopulated level.

Under (a) to (c) every float of ``report_to_dict(analyze(.))`` except the digest and
``meta`` must agree to 1e-12 relative; outcomes, error-table columns and
sub-records are compared by label.  Under (d) and (e) the per-outcome fields change
by design, so only the ensemble fields are compared.
"""

import dataclasses
import math

import numpy as np
import pytest

from qmeasure.harness import analyze, report_to_dict
from qmeasure.inequalities import ScenarioContext, evaluate_all
from qmeasure.instruments import Instrument, KrausSet
from qmeasure.operators import DensityOperator, HermitianOperator
from qmeasure.scenario import Scenario, generate_random, random_unitary

TOL = 1e-12
MEMBERS = 20


def _members(d: int) -> list[Scenario]:
    return [generate_random(d, 4, (31, d, i)) for i in range(MEMBERS)]


def _conjugated(s: Scenario, u: np.ndarray) -> Scenario:
    def conj(m):
        return u @ m @ u.conj().T

    sets = [KrausSet(ks.label, tuple(conj(m) for m in ks.operators)) for ks in s.apparatus.outcomes]
    return Scenario(
        dimension=s.dimension,
        state=DensityOperator(conj(s.state.matrix)),
        observable_A=HermitianOperator(conj(s.observable_A.matrix)),
        observable_B=HermitianOperator(conj(s.observable_B.matrix)),
        apparatus=Instrument.from_kraus(sets),
        values_m=s.values_m,
        values_mB=s.values_mB,
    )


def _permuted(s: Scenario, rng: np.random.Generator) -> Scenario:
    outcomes = s.apparatus.outcomes
    sets = [outcomes[k] for k in rng.permutation(len(outcomes))]
    return Scenario(
        dimension=s.dimension,
        state=s.state,
        observable_A=s.observable_A,
        observable_B=s.observable_B,
        apparatus=Instrument.from_kraus(sets),
        values_m=s.values_m,
        values_mB=s.values_mB,
    )


def _by_label(doc: dict) -> dict:
    """The report document without digest and meta, with outcomes, the columns of
    the error table and sub-records in label order."""
    doc = {k: v for k, v in doc.items() if k not in ("scenario_digest", "meta")}
    doc["outcomes"] = sorted(doc["outcomes"], key=lambda o: o["label"])
    err = doc["error_distribution"]
    order = sorted(range(len(err["col_labels"])), key=err["col_labels"].__getitem__)
    doc["error_distribution"] = {
        **err,
        "col_labels": [err["col_labels"][j] for j in order],
        "col_values": [err["col_values"][j] for j in order],
        "table": [[row[j] for j in order] for row in err["table"]],
    }
    doc["inequalities"] = {
        rid: {**rec, "sub_records": sorted(rec["sub_records"], key=lambda r: r["outcome"])}
        for rid, rec in doc["inequalities"].items()
    }
    return doc


def _worst(x, y, path="") -> float:
    """The largest |x - y| / max(1, |x|) over the floats of two documents, which
    must otherwise agree in shape, keys and every non-float value."""
    if isinstance(x, dict):
        assert x.keys() == y.keys(), path
        return max((_worst(x[k], y[k], f"{path}.{k}") for k in x), default=0.0)
    if isinstance(x, list):
        assert len(x) == len(y), path
        return max((_worst(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(x, y))), default=0.0)
    if isinstance(x, float):
        if math.isnan(x):
            assert math.isnan(y), path
            return 0.0
        return abs(x - y) / max(1.0, abs(x))
    assert x == y, path
    return 0.0


def _report(s: Scenario) -> dict:
    return _by_label(report_to_dict(analyze(s)))


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("transform", ["conjugate", "permute"])
def test_report_is_invariant(d, transform):
    rng = np.random.default_rng((41, d))
    for i, s in enumerate(_members(d)):
        t = _conjugated(s, random_unitary(d, rng)) if transform == "conjugate" else _permuted(s, rng)
        assert _worst(_report(s), _report(t)) <= TOL, (transform, d, i)


def _merged(s: Scenario) -> tuple[Scenario, Scenario]:
    """``s`` with the second outcome given the values of the first, and that scenario
    with the two outcomes merged into one Kraus set under the first label."""
    first, second, *rest = s.apparatus.outcomes
    tied = [{**values, second.label: values[first.label]} for values in (s.values_m, s.values_mB)]
    kept = [{k: v for k, v in values.items() if k != second.label} for values in tied]
    merged = Instrument.from_kraus([KrausSet(first.label, first.operators + second.operators), *rest])
    return (
        dataclasses.replace(s, values_m=tied[0], values_mB=tied[1]),
        dataclasses.replace(s, apparatus=merged, values_m=kept[0], values_mB=kept[1]),
    )


def _remixed(s: Scenario, rng: np.random.Generator) -> Scenario:
    """``s`` with each outcome's Kraus operators M_l replaced by sum_m u_lm M_m."""
    sets = []
    for ks in s.apparatus.outcomes:
        u = random_unitary(len(ks.operators), rng)
        sets.append(KrausSet(ks.label, tuple(np.tensordot(u, np.array(ks.operators), axes=1))))
    return dataclasses.replace(s, apparatus=Instrument.from_kraus(sets))


ENSEMBLE_FIELDS = ("epsilon", "eta", "eta_lindblad", "delta_A", "delta_B")
ENSEMBLE_RELATIONS = ("heisenberg", "schrodinger", "ozawa", "hall", "weston", "branciard_ee", "branciard_ed")


def _ensemble(doc: dict) -> dict:
    return {**{k: doc[k] for k in ENSEMBLE_FIELDS}, **{rid: doc["inequalities"][rid] for rid in ENSEMBLE_RELATIONS}}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_kraus_representation_and_merged_outcomes(d):
    # Each merged member has one outcome of two Kraus operators, which (c) mixes
    # by a 2 x 2 Haar unitary; the other outcomes take a phase.
    rng = np.random.default_rng((43, d))
    for i, s in enumerate(_members(d)[:MEMBERS // 2]):
        tied, merged = _merged(s)
        merged_report = _report(merged)
        assert _worst(_ensemble(_report(tied)), _ensemble(merged_report)) <= TOL, ("merge", d, i)
        assert _worst(merged_report, _report(_remixed(merged, rng))) <= TOL, ("kraus", d, i)


def _embedded(s: Scenario, rng: np.random.Generator) -> Scenario:
    """``s`` on d + 1 levels: rho + 0, A + a_0 and B + b_0, each Kraus operator
    M + 0, and the projector on the extra level one more Kraus operator of one
    outcome."""
    d = s.dimension

    def plus(m, corner=0.0):
        out = np.pad(m, (0, 1)).astype(complex)
        out[d, d] = corner
        return out

    a0, b0 = rng.normal(size=2)
    k = rng.integers(len(s.apparatus.outcomes))
    extra = (plus(np.zeros((d, d)), 1.0),)
    sets = [
        KrausSet(ks.label, tuple(plus(m) for m in ks.operators) + (extra if j == k else ()))
        for j, ks in enumerate(s.apparatus.outcomes)
    ]
    return dataclasses.replace(
        s,
        dimension=d + 1,
        state=DensityOperator(plus(s.state.matrix)),
        observable_A=HermitianOperator(plus(s.observable_A.matrix, a0)),
        observable_B=HermitianOperator(plus(s.observable_B.matrix, b0)),
        apparatus=Instrument.from_kraus(sets),
    )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_direct_sum_embedding(d):
    rng = np.random.default_rng((47, d))
    for i, s in enumerate(_members(d)[:MEMBERS // 2]):
        assert _worst(_ensemble(_report(s)), _ensemble(_report(_embedded(s, rng)))) <= TOL, ("embed", d, i)


def _rows(records) -> list:
    return [[r.relation_id, r.lhs, r.rhs, [[sr.outcome, sr.lhs, sr.rhs] for sr in r.sub_records]] for r in records]


def test_conjugated_block_matches_blocks_of_one():
    # The 20 conjugated d = 3 members, evaluated as one block, agree with the
    # untransformed block and have the bits of their blocks of one.
    rng = np.random.default_rng((41, 3))
    members = _members(3)
    conjugated = [_conjugated(s, random_unitary(3, rng)) for s in members]
    plain, block = ScenarioContext(members), ScenarioContext(conjugated)
    for s, t in zip(members, conjugated):
        recs = evaluate_all(t, block).values()
        assert _worst(_rows(evaluate_all(s, plain).values()), _rows(recs)) <= TOL
        assert repr(list(recs)) == repr(list(evaluate_all(t).values()))

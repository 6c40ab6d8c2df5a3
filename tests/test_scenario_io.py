import copy
import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest

from qmeasure.errors import DimensionMismatch, ParseError, ValidationError
from qmeasure.operators import max_norm
from qmeasure.scenario import (
    Scenario,
    generate_random,
    load_scenario,
    random_indirect_model,
    save_scenario,
    scenario_from_dict,
    subseed,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
THETA_POM = os.path.join(SCENARIO_DIR, "theta_pom.json")
CNOT = os.path.join(SCENARIO_DIR, "cnot_projective.json")


def load_doc(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestLoading:
    def test_bundled_theta_pom(self):
        s = load_scenario(THETA_POM)
        assert s.dimension == 2
        assert s.apparatus.labels == ("+", "-")
        assert np.allclose(s.apparatus.pom_element("+").matrix, np.diag([0.75, 0.25]))
        assert s.values_m["+"] == pytest.approx(2.0, abs=1e-12)

    def test_bundled_indirect(self):
        s = load_scenario(CNOT)
        assert s.indirect is not None
        assert s.apparatus.labels == ("0", "1")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_scenario(p)

    def test_missing_key(self):
        doc = load_doc(THETA_POM)
        del doc["state"]
        with pytest.raises(ParseError):
            scenario_from_dict(doc)


class TestValidationKinds:
    def test_trace_not_one(self):
        doc = load_doc(THETA_POM)
        doc["state"][0][0][0] = 0.9
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.kind == "TraceNotOne"

    def test_incomplete_kraus(self):
        doc = load_doc(THETA_POM)
        doc["apparatus"]["outcomes"].pop()
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.kind == "CompletenessViolation"

    def test_dimension_mismatch(self):
        doc = load_doc(THETA_POM)
        doc["dimension"] = 3
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.kind == "DimensionMismatch"

    def test_observable_b_dimension_mismatch(self):
        doc = load_doc(THETA_POM)
        doc["observable_B"] = [[[1.0, 0.0]] * 3] * 3
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.kind == "DimensionMismatch"

    @pytest.mark.parametrize("field, value", [("values_mB", {"+": "abc", "-": 1.0}), ("values_m", [2.0, -2.0])])
    def test_malformed_values_are_parse_errors(self, field, value):
        doc = load_doc(THETA_POM)
        doc[field] = value
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["values_m"].update({"+": 10**400}),
            lambda doc: doc["state"][0][1].__setitem__(0, 10**400),
        ],
        ids=["values_m", "state"],
    )
    def test_integers_beyond_float_range_are_parse_errors(self, edit):
        doc = load_doc(THETA_POM)
        edit(doc)
        with pytest.raises(ParseError, match="too large"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("entry", [[1e308, 0.0], [0.0, math.inf], [math.nan, 0.0]])
    def test_entries_beyond_the_float_range_are_rejected_quietly(self, entry):
        # 1e308 on the diagonal is finite, but its Hermitian part (M + M†)/2 overflows.
        doc = load_doc(THETA_POM)
        doc["observable_A"][1][1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                scenario_from_dict(doc)
        assert err.value.kind == "InvalidObservable"

    def test_missing_value_label(self):
        doc = load_doc(THETA_POM)
        doc["values_m"] = {"+": 2.0}
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.kind == "MissingLabel"

    def test_non_hermitian_observable(self):
        doc = load_doc(THETA_POM)
        doc["observable_A"][0][1] = [5.0, 0.0]
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.kind == "InvalidObservable"


class TestConstructorDimensions:
    """The public constructor, not only the parser, checks every part against ``dimension``."""

    @pytest.mark.parametrize(
        "change",
        [{"dimension": 3}, {"indirect": random_indirect_model(3, np.random.default_rng(0))}],
        ids=["dimension", "indirect"],
    )
    def test_parts_must_match_declared_dimension(self, change):
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(load_scenario(THETA_POM), **change)


class TestRoundTrip:
    def test_save_load_preserves_content(self, tmp_path):
        s = load_scenario(THETA_POM)
        out = tmp_path / "copy.json"
        save_scenario(s, out)
        s2 = load_scenario(out)
        assert max_norm(s2.state.matrix - s.state.matrix) < 1e-15
        assert s2.values_m == s.values_m
        assert s2.digest() == s.digest()

    def test_indirect_round_trip(self, tmp_path):
        s = load_scenario(CNOT)
        out = tmp_path / "copy.json"
        save_scenario(s, out)
        s2 = load_scenario(out)
        assert s2.indirect is not None
        assert max_norm(s2.indirect.unitary - s.indirect.unitary) < 1e-15
        assert s2.digest() == s.digest()

    def test_digest_sensitive_to_content(self):
        doc = load_doc(THETA_POM)
        s = scenario_from_dict(doc)
        doc2 = copy.deepcopy(doc)
        doc2["values_m"]["+"] = 2.5
        doc2["values_m"]["-"] = -2.5
        s2 = scenario_from_dict(doc2)
        assert s.digest() != s2.digest()


class TestRandomGeneration:
    def test_seed_determinism(self):
        a = generate_random(3, 4, 17)
        b = generate_random(3, 4, 17)
        assert a.digest() == b.digest()
        assert max_norm(a.state.matrix - b.state.matrix) == 0.0

    def test_different_seeds_differ(self):
        assert generate_random(2, 2, 1).digest() != generate_random(2, 2, 2).digest()

    def test_completeness(self):
        for seed in range(5):
            s = generate_random(2, 4, seed)
            total = sum(p.matrix for p in s.apparatus.pom())
            assert max_norm(total - np.eye(2)) < 1e-10

    def test_round_trips(self, tmp_path):
        s = generate_random(2, 3, 5)
        out = tmp_path / "rand.json"
        save_scenario(s, out)
        assert load_scenario(out).digest() == s.digest()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_random(1, 2, 0)
        with pytest.raises(ValueError):
            generate_random(2, 0, 0)

    def test_subseed_stability(self):
        assert subseed(42, (2, 0)) == subseed(42, (2, 0))
        assert subseed(42, (2, 0)) != subseed(42, (2, 1))
        assert subseed(42, (2, 0)) != subseed(43, (2, 0))

import json
import os

import pytest

from qmeasure import cli
from qmeasure.cli import main
from qmeasure.errors import InternalNumericError
from qmeasure.scenario import load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
THETA_POM = os.path.join(SCENARIO_DIR, "theta_pom.json")
WEAK_PROBE = os.path.join(SCENARIO_DIR, "weak_probe.json")
CNOT = os.path.join(SCENARIO_DIR, "cnot_projective.json")


class TestValidate:
    def test_valid_file(self, capsys):
        assert main(["validate", THETA_POM]) == 0
        assert "valid scenario" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.load(open(THETA_POM, encoding="utf-8"))
        doc["state"][0][0][0] = 0.9
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert "TraceNotOne" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(observable_b=doc.pop("observable_B")),
            lambda doc: doc["apparatus"].update(outcome=doc["apparatus"].pop("outcomes")),
            lambda doc: doc.update(values_m2={"+": 123.0, "-": 123.0}),
        ],
        ids=["top-level-typo", "apparatus-typo", "values_m2"],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, edit):
        bad = tmp_path / "bad.json"
        doc = json.load(open(THETA_POM, encoding="utf-8"))
        edit(doc)
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, edit",
        [
            (THETA_POM, lambda doc: doc["apparatus"]["outcomes"][0].pop("label")),
            (THETA_POM, lambda doc: doc["apparatus"]["outcomes"][0].pop("kraus")),
            (THETA_POM, lambda doc: doc["apparatus"]["outcomes"].__setitem__(0, 5)),
            (THETA_POM, lambda doc: doc.update(apparatus=[1])),
            (THETA_POM, lambda doc: doc.update(meta=[1, 2])),
            (CNOT, lambda doc: doc["apparatus"].pop("unitary")),
            (CNOT, lambda doc: doc["apparatus"].pop("detector_state")),
            (CNOT, lambda doc: doc["apparatus"].pop("readout_basis")),
            (CNOT, lambda doc: doc["apparatus"].pop("labels")),
            (THETA_POM, lambda doc: doc["apparatus"].update(outcomes=5)),
            (THETA_POM, lambda doc: doc["apparatus"]["outcomes"][0].update(kraus=5)),
            (CNOT, lambda doc: doc["apparatus"].update(readout_basis=5)),
            (CNOT, lambda doc: doc["apparatus"].update(labels=5)),
            (THETA_POM, lambda doc: doc.update(dimension=2.7)),
            (THETA_POM, lambda doc: doc.update(dimension=2.0)),
            (THETA_POM, lambda doc: doc.update(dimension="2")),
            (THETA_POM, lambda doc: doc.update(dimension=True)),
            (THETA_POM, lambda doc: doc["values_m"].update({"+": float("nan")})),
            (THETA_POM, lambda doc: doc["values_m"].update({"-": float("inf")})),
            (THETA_POM, lambda doc: doc["values_mB"].update({"+": float("-inf")})),
            (THETA_POM, lambda doc: doc["values_m"].update({"+": "2.0"})),
            (THETA_POM, lambda doc: doc["values_mB"].update({"-": True})),
        ],
        ids=[
            "outcome-without-label",
            "outcome-without-kraus",
            "outcome-not-an-object",
            "apparatus-not-an-object",
            "meta-not-an-object",
            "indirect-without-unitary",
            "indirect-without-detector_state",
            "indirect-without-readout_basis",
            "indirect-without-labels",
            "outcomes-not-a-list",
            "kraus-not-a-list",
            "readout_basis-not-a-list",
            "labels-not-a-list",
            "dimension-fractional",
            "dimension-float",
            "dimension-string",
            "dimension-bool",
            "values_m-nan",
            "values_m-infinity",
            "values_mB-negative-infinity",
            "values_m-string",
            "values_mB-bool",
        ],
    )
    def test_malformed_shape_is_parse_error(self, tmp_path, capsys, path, edit):
        bad = tmp_path / "bad.json"
        doc = json.load(open(path, encoding="utf-8"))
        edit(doc)
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert "error (ParseError)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["state"][0][0].__setitem__(0, "0.6000000000000001"),
            lambda doc: doc["observable_A"][1][1].__setitem__(1, False),
        ],
        ids=["state-string-entry", "observable_A-bool-entry"],
    )
    def test_matrix_entries_must_be_json_numbers(self, tmp_path, capsys, edit):
        bad = tmp_path / "bad.json"
        doc = json.load(open(THETA_POM, encoding="utf-8"))
        edit(doc)
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert "error (ParseError)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, edit",
        [
            (THETA_POM, lambda doc: doc["apparatus"]["outcomes"][0].update(label=7)),
            (CNOT, lambda doc: doc["apparatus"]["labels"].__setitem__(1, None)),
        ],
        ids=["kraus-label-number", "indirect-label-null"],
    )
    def test_labels_must_be_json_strings(self, tmp_path, capsys, path, edit):
        bad = tmp_path / "bad.json"
        doc = json.load(open(path, encoding="utf-8"))
        edit(doc)
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert "error (ParseError)" in capsys.readouterr().err

    def test_oversized_readout_vector_is_a_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.load(open(CNOT, encoding="utf-8"))
        doc["apparatus"]["readout_basis"][0].append([0.0, 0.0])
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert "error (InvalidIndirectModel)" in capsys.readouterr().err

    def test_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[", encoding="utf-8")
        assert main(["validate", str(bad)]) == 1


class TestAnalyze:
    def test_stdout_report(self, capsys):
        assert main(["analyze", THETA_POM]) == 0
        out = capsys.readouterr().out
        assert "epsilon^2 = 3" in out
        assert "inequalities" in out

    def test_json_output(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", THETA_POM, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1"
        assert doc["epsilon"]["mean_squared"] == pytest.approx(3.0, abs=1e-10)

    def test_csv_output(self, tmp_path):
        csv_dir = tmp_path / "tables"
        assert main(["analyze", THETA_POM, "--csv", str(csv_dir)]) == 0
        assert (csv_dir / "error_dist.csv").exists()
        assert (csv_dir / "disturbance_dist.csv").exists()


class TestSample:
    def test_byte_identical_output(self, capsys):
        assert main(["sample", THETA_POM, "--shots", "2000", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["sample", THETA_POM, "--shots", "2000", "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "empirical mean" in first


class TestSweep:
    def test_sweep_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", WEAK_PROBE, "--g", "0.5,0.1,0.02", "--csv", str(out)])
        assert code == 0
        assert "log-log slope" in capsys.readouterr().out
        assert out.read_text().strip().splitlines()[-1].startswith("slope-fit,")

    def test_bad_strength(self, capsys):
        assert main(["sweep", WEAK_PROBE, "--g", "0.5,2.0"]) == 1


class TestRandom:
    def test_sweep_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "scenario.json"
        code = main(
            ["random", "--dim", "2", "--count", "5", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "min margin" in capsys.readouterr().out

    def test_violation_search(self, capsys):
        code = main(
            ["random", "--dim", "2", "--count", "3", "--seed", "3", "--search-heisenberg-violation"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Ozawa margin" in out

    def test_violation_search_honours_outcomes(self, capsys, tmp_path):
        out = tmp_path / "f.json"
        args = ["random", "--dim", "3", "--outcomes", "2", "--count", "3", "--seed", "1"]
        assert main([*args, "--search-heisenberg-violation", "--out", str(out)]) == 0
        assert len(load_scenario(out).apparatus.labels) == 2

    def test_byte_identical_output(self, capsys):
        args = ["random", "--dim", "2", "--count", "4", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert first == capsys.readouterr().out


RANDOM = ["random", "--dim", "2", "--count", "2", "--seed", "1"]


class TestArgumentRanges:
    """An argument outside its command's range is one error line and exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", THETA_POM, "--shots", "0", "--seed", "1"],
            ["sample", THETA_POM, "--shots", "5", "--seed", "-1"],
            [*RANDOM, "--dim", "1"],
            [*RANDOM, "--count", "0"],
            [*RANDOM, "--count", "0", "--search-heisenberg-violation"],
            [*RANDOM, "--outcomes", "0"],
            [*RANDOM, "--seed", "-1"],
            ["sweep", WEAK_PROBE, "--g", "abc"],
            ["sweep", WEAK_PROBE, "--g", ","],
        ],
        ids=[
            "sample-shots-0",
            "sample-seed-negative",
            "random-dim-1",
            "random-count-0",
            "search-count-0",
            "random-outcomes-0",
            "random-seed-negative",
            "sweep-g-not-a-number",
            "sweep-g-empty",
        ],
    )
    def test_out_of_range_is_an_error_line(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error (")


class TestErrorLines:
    """Each error class keeps its stderr line and exit code: a ValidationError is
    named by its kind, any other qmeasure error by its class."""

    def test_parse_validation_and_argument_errors(self, tmp_path, capsys):
        unparseable, untraced = tmp_path / "unparseable.json", tmp_path / "untraced.json"
        unparseable.write_text("{", encoding="utf-8")
        doc = json.load(open(THETA_POM, encoding="utf-8"))
        doc["state"][0][0][0] = 0.9
        untraced.write_text(json.dumps(doc), encoding="utf-8")
        runs = [
            ["validate", str(unparseable)],
            ["validate", str(untraced)],
            ["random", "--dim", "1", "--count", "2", "--seed", "1"],
        ]
        lines = []
        for argv in runs:
            assert main(argv) == 1
            lines.append(capsys.readouterr().err)
        assert lines == [
            f"error (ParseError): invalid JSON in {unparseable}: Expecting property name enclosed in double quotes:"
            " line 1 column 2 (char 1)\n",
            "error (TraceNotOne): state trace is 1.2999999999999998\n",
            "error (InvalidArgument): --dim must be >= 2, got 1\n",
        ]

    def test_internal_numeric_error_exits_with_two(self, monkeypatch, capsys):
        def failing(scenario):
            raise InternalNumericError("eps^2 cross-check off by 1e-3")

        monkeypatch.setattr(cli, "analyze", failing)
        assert main(["analyze", THETA_POM]) == 2
        assert capsys.readouterr().err == "internal consistency failure: eps^2 cross-check off by 1e-3\n"

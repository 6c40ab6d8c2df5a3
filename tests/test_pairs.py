"""The summary, gain-rule and no-regression arithmetic of tools/pairs.py, on made-up runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "pairs.py")
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [10.0, 10.5, 11.0, 10.2, 10.8, 10.4, 10.6, 10.1, 10.9, 10.3]
NONE_FAILED = {"parent": 0, "change": 0}


def _runs(values, metric="pass_ms_p90"):
    return [{"metrics": {metric: v}} for v in values]


def _entry(parent, change, better="lower"):
    return pairs.compare(_runs(parent), _runs(change), {"pass_ms_p90": better})["pass_ms_p90"]


def test_quartiles_are_inclusive():
    s = pairs.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["q1"], s["median"], s["q3"], s["runs"]) == (2.0, 3.0, 4.0, 5)


def test_nine_wins_of_ten_and_a_gain_beyond_the_parent_iqr_meet_a_claim():
    entry = _entry(PARENT, [8.0, 8.5, 9.0, 8.2, 8.8, 8.4, 8.6, 8.1, 11.5, 8.3])
    assert (entry["wins"], entry["losses"], entry["pairs"]) == (9, 1, 10)
    assert pairs.verdict(entry, True, NONE_FAILED)["met"]
    assert not pairs.verdict(entry, False, NONE_FAILED)["met"]


def test_more_failed_requests_than_the_parent_do_not():
    entry = _entry(PARENT, [8.0, 8.5, 9.0, 8.2, 8.8, 8.4, 8.6, 8.1, 8.7, 8.3])
    assert pairs.verdict(entry, True, {"parent": 2, "change": 2})["met"]
    assert not pairs.verdict(entry, True, {"parent": 2, "change": 3})["met"]


def test_eight_wins_of_ten_do_not():
    entry = _entry(PARENT, [8.0, 8.5, 9.0, 8.2, 8.8, 8.4, 8.6, 8.1, 11.5, 11.0])
    assert entry["wins"] == 8
    assert not pairs.verdict(entry, True, NONE_FAILED)["met"]


def test_a_gain_inside_the_parent_iqr_does_not():
    entry = _entry(PARENT, [v - 0.1 for v in PARENT])
    assert entry["wins"] == 10
    verdict = pairs.verdict(entry, True, NONE_FAILED)
    assert verdict["median_gain"] < verdict["parent_iqr"]
    assert not verdict["met"]


def test_higher_is_better_and_ties_count_for_neither():
    entry = _entry([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], better="higher")
    assert (entry["wins"], entry["losses"], entry["pairs"]) == (1, 1, 3)


def test_a_failed_run_counts_in_no_pair():
    entry = pairs.compare(_runs([1.0, 2.0], "m"), [{"metrics": {}}, {"metrics": {"m": 1.0}}], {"m": "lower"})["m"]
    assert entry["pairs"] == 1
    assert entry["change"]["runs"] == 1


def test_a_median_inside_the_bound_holds():
    # PARENT spreads 0.6 about a median of 10.45, a quartile spread of about 4 %.
    verdict = pairs.no_regression(_entry(PARENT, [v * 1.2 for v in PARENT]), 0.25)
    assert verdict["ratio"] == pytest.approx(1.2)
    assert verdict["worse_by"] == pytest.approx(0.2)
    assert verdict["status"] == "held"


def test_a_median_worse_beyond_the_bound_is_worse():
    assert pairs.no_regression(_entry(PARENT, [v * 1.3 for v in PARENT]), 0.25)["status"] == "worse"
    assert pairs.no_regression(_entry(PARENT, PARENT, better="higher"), 0.25)["status"] == "held"
    assert pairs.no_regression(_entry(PARENT, [v / 1.5 for v in PARENT], better="higher"), 0.25)["status"] == "worse"


def test_a_parent_spread_beyond_the_bound_is_unresolved():
    # Two modes, ~21 and ~31: the quartile spread is ~45 % of the median.
    parent = [21.0, 31.0, 21.5, 30.5, 22.0, 31.5, 21.2, 30.8, 21.8, 31.2]
    verdict = pairs.no_regression(_entry(parent, parent), 0.25)
    assert verdict["parent_spread"] > 0.25
    assert verdict["status"] == "unresolved"
    # A change whose every run beats every parent run is resolved all the same.
    assert pairs.no_regression(_entry(parent, [v - 11.0 for v in parent]), 0.25)["status"] == "held"
    # One change run slower than the fastest parent run leaves it unresolved.
    change = [v - 11.0 for v in parent[:-1]] + [21.1]
    assert pairs.no_regression(_entry(parent, change), 0.25)["status"] == "unresolved"


def test_a_metric_without_runs_is_unresolved():
    entry = pairs.compare(_runs([1.0, 2.0], "m"), [{"metrics": {}}, {"metrics": {}}], {"m": "lower"})["m"]
    assert pairs.no_regression(entry, 0.25)["status"] == "unresolved"


def test_a_change_spread_beyond_the_bound_is_unresolved():
    # Four pairs with two slow change runs, as a host's noise makes them: the median reads
    # 1.29x worse, but the change's own quartile spread is ~45 % of its median.
    parent, change = [10.0, 10.2, 10.1, 10.3], [10.1, 16.0, 10.2, 16.5]
    verdict = pairs.no_regression(_entry(parent, change), 0.25)
    assert verdict["worse_by"] > 0.25 and verdict["parent_spread"] < 0.25 < verdict["change_spread"]
    assert verdict["status"] == "unresolved"
    # A change that is slow in every run, with a tight spread, still reads worse.
    assert pairs.no_regression(_entry(parent, [v * 1.3 for v in parent]), 0.25)["status"] == "worse"

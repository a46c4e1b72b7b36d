"""`tools/ab_pairs.py` applies the gain and no-regression rules to paired benchmark runs.

Fixed numbers only; no benchmark run is started.
"""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "ab_pairs.py")
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

PARENT = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # quartiles 12.25, 14.5, 16.75


def test_quartiles_are_inclusive():
    assert ab_pairs.quartiles(PARENT) == (12.25, 14.5, 16.75)
    assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_nine_of_ten_wins_and_a_gain_beyond_the_parent_iqr_is_a_claim():
    change = [11] + [p - 6 for p in PARENT[1:]]  # the first pair is lost
    r = ab_pairs.compare(PARENT, change)
    assert (r["pairs"], r["wins"]) == (10, 9)
    assert r["change"] == (7.25, 9.5, 11.0)
    assert r["gain"] == 5.0 and r["parent_iqr"] == 4.5
    assert r["claim"]


def test_a_gain_within_the_parent_iqr_is_no_claim():
    change = [11] + [p - 5 for p in PARENT[1:]]  # 9/10 wins, medians 14.5 and 10.5
    r = ab_pairs.compare(PARENT, change)
    assert r["wins"] == 9 and r["gain"] == 4.0
    assert not r["claim"]


def test_eight_wins_ties_and_too_few_pairs_are_no_claim():
    change = [p - 10 for p in PARENT]
    assert ab_pairs.compare(PARENT, change)["claim"]
    change[0], change[1] = 10, 12  # a tie counts for neither side, a loss against
    r = ab_pairs.compare(PARENT, change)
    assert r["wins"] == 8 and not r["claim"]
    r = ab_pairs.compare(PARENT[:9], [p - 10 for p in PARENT[:9]])
    assert r["wins"] == 9 and not r["claim"]


def test_higher_is_better_flips_the_direction():
    up = [p + 10 for p in PARENT]
    assert ab_pairs.compare(PARENT, up, better="higher")["claim"]
    assert not ab_pairs.compare(PARENT, up, better="lower")["claim"]
    assert ab_pairs.compare(PARENT, up, better="lower")["wins"] == 0


def test_a_median_worse_by_more_than_the_bound_is_worse():
    # bound 0.25 of the parent median 14.5 allows 3.625; the change is 4 worse
    r = ab_pairs.compare(PARENT, [p + 4 for p in PARENT], bound=0.25)
    assert r["verdict"] == "worse"
    assert ab_pairs.compare(PARENT, PARENT)["verdict"] is None


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # the parent IQR 4.5 exceeds the allowed 3.625: a change 1 worse is unresolved
    r = ab_pairs.compare(PARENT, [p + 1 for p in PARENT], bound=0.25)
    assert r["verdict"] == "unresolved"
    # unless every change run beats every parent run
    r = ab_pairs.compare(PARENT, [p - 10 for p in PARENT], bound=0.25)
    assert r["verdict"] == "within bound"


def test_a_change_inside_a_wide_bound_is_within_bound():
    # bound 0.5 allows 7.25, wider than the parent IQR
    r = ab_pairs.compare(PARENT, [p + 1 for p in PARENT], bound=0.5)
    assert r["verdict"] == "within bound"


def test_the_verdict_follows_higher_is_better():
    assert ab_pairs.compare(PARENT, [p - 4 for p in PARENT], "higher", 0.25)["verdict"] == "worse"
    assert ab_pairs.compare(PARENT, [p + 4 for p in PARENT], "lower", 0.25)["verdict"] == "worse"
    r = ab_pairs.compare(PARENT, [p + 10 for p in PARENT], "higher", 0.25)
    assert r["verdict"] == "within bound"


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        ab_pairs.compare(PARENT, PARENT[:-1])
    with pytest.raises(ValueError):
        ab_pairs.compare([], [])

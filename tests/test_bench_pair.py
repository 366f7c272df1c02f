"""The summariser of scripts/bench_pair.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_quartiles():
    q = bench_pair.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q["q1"], q["median"], q["q3"]) == (2.75, 5.5, 8.25)
    assert q["iqr"] == 5.5
    assert q["runs"] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_claim_met_with_nine_of_ten():
    change = [p - 0.1 for p in PARENT]
    change[3] = PARENT[3] + 0.01                  # one pair lost
    s = bench_pair.summarise(PARENT, change, "lower", 0.25)
    assert (s["pairs_won"], s["pairs_lost"], s["ties"]) == (9, 1, 0)
    assert s["parent"]["median"] == 1.0
    assert s["parent"]["iqr"] == pytest.approx(0.04)
    assert s["change"]["median"] == pytest.approx(0.9)
    assert s["relative_change"] == pytest.approx(-0.1)
    assert s["regression_check"] == "within bound"
    verdict = bench_pair.claim_verdict(s, "lower")
    assert verdict["met"]
    assert (verdict["pairs_won"], verdict["pairs"]) == (9, 10)
    assert verdict["median_gain"] == pytest.approx(0.1)


def test_claim_not_met_with_eight_of_ten():
    change = [p - 0.1 for p in PARENT]
    change[3] = PARENT[3]                         # a tie
    change[5] = PARENT[5] + 0.01                  # a loss
    s = bench_pair.summarise(PARENT, change, "lower", 0.25)
    assert (s["pairs_won"], s["pairs_lost"], s["ties"]) == (8, 1, 1)
    assert not bench_pair.claim_verdict(s, "lower")["met"]


def test_claim_not_met_within_the_parents_spread():
    change = [p - 0.01 for p in PARENT]           # wins every pair
    s = bench_pair.summarise(PARENT, change, "lower", 0.25)
    assert s["pairs_won"] == 10
    verdict = bench_pair.claim_verdict(s, "lower")
    assert verdict["median_gain"] < verdict["parent_iqr"]
    assert not verdict["met"]


def test_higher_is_better():
    change = [p + 0.1 for p in PARENT]
    s = bench_pair.summarise(PARENT, change, "higher", 0.05)
    assert s["pairs_won"] == 10
    assert s["regression_check"] == "within bound"
    assert bench_pair.claim_verdict(s, "higher")["met"]
    assert not bench_pair.claim_verdict(
        bench_pair.summarise(PARENT, change, "lower", 0.25), "lower")["met"]


def test_regression_beyond_bound():
    change = [p * 1.3 for p in PARENT]
    s = bench_pair.summarise(PARENT, change, "lower", 0.25)
    assert s["pairs_lost"] == 10
    assert s["regression_check"] == "beyond bound"
    assert bench_pair.summarise(PARENT, change, "lower", 0.35)[
        "regression_check"] == "within bound"


def test_summarise_workload():
    def line(value, failed):
        return {"correct": failed == 0, "attempted": 12, "failed": failed,
                "metrics": {"setup_s": {"value": value, "unit": "s"}}}

    results = {"parent": [line(1.0, 0), line(1.2, 0), line(1.1, 0)],
               "change": [line(0.9, 0), line(1.0, 1), line(1.0, 0)]}
    order = [("parent", "change"), ("change", "parent"),
             ("parent", "change")]
    end_to_end = [{"name": "setup_s", "unit": "s", "better": "lower",
                   "bound": 0.25}]
    rec = bench_pair.summarise_workload(end_to_end, results, [91, 92, 93],
                                        order)
    assert rec["first_in_pair"] == ["parent", "change", "parent"]
    assert not rec["correct"]
    assert rec["failed_operations"] == {"parent": 0, "change": 1}
    assert rec["attempted_operations"] == {"parent": 36, "change": 36}
    metric = rec["metrics"]["setup_s"]
    assert metric["unit"] == "s"
    assert metric["pairs_won"] == 3
    assert metric["parent"]["runs"] == [1.0, 1.2, 1.1]

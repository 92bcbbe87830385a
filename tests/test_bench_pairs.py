"""The verdicts of tools/bench_pairs.py's summary, on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

TIME = {"name": "t_s", "better": "lower", "bound": 0.25}
FRAC = {"name": "ok_frac", "better": "higher", "bound": 0.01}


def pairs(parent, change, name="t_s"):
    return [{"parent": {name: a}, "change": {name: b}, "digests_compared": 1, "digests_equal": True}
            for a, b in zip(parent, change)]


def summary(parent, change, metric=TIME):
    return bench_pairs.summarise(pairs(parent, change, metric["name"]), {metric["name"]: metric})[metric["name"]]


# the parent's runs: median 1.0, quartiles 0.9825 and 1.0175
PARENT = [0.95, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.05]


def test_nine_wins_and_a_gap_beyond_the_iqr_meet_the_claim():
    got = summary(PARENT, [p * 0.8 for p in PARENT[:9]] + [PARENT[9]])
    assert got["pairs_change_won"] == 9
    assert got["claim_met"] and not got["regressed"]


def test_ties_count_for_neither_side():
    got = summary(PARENT, [p * 0.8 for p in PARENT[:8]] + PARENT[8:])
    assert got["pairs_change_won"] == 8
    assert not got["claim_met"]


def test_a_gap_within_the_parent_iqr_is_no_claim():
    # the change wins every pair, but by 2%, under the parent's IQR of 3.5%
    got = summary(PARENT, [p * 0.98 for p in PARENT])
    assert got["pairs_change_won"] == 10
    assert got["parent_iqr_over_median"] == pytest.approx(0.035)
    assert not got["claim_met"]


@pytest.mark.parametrize("factor, regressed", [(1.2, False), (1.3, True)])
def test_regressed_beyond_the_bound(factor, regressed):
    got = summary(PARENT, [p * factor for p in PARENT])
    assert got["pairs_change_won"] == 0
    assert got["regressed"] is regressed
    assert not got["claim_met"]


def test_higher_is_better():
    # a lower ok_frac is worse; 2% worse passes a bound of 1% of the median
    assert summary([1.0] * 10, [0.98] * 10, FRAC)["regressed"]
    assert not summary([1.0] * 10, [0.995] * 10, FRAC)["regressed"]
    got = summary([0.9] * 10, [1.0] * 10, FRAC)
    assert got["claim_met"] and not got["regressed"]


def test_a_failed_run_counts_against_the_claim():
    # nine pairs won, of eleven run: two runs gave no value
    failed = {"parent": {}, "change": {}, "digests_compared": 0, "digests_equal": None}
    got = bench_pairs.summarise(pairs(PARENT[:9], [p * 0.8 for p in PARENT[:9]]) + [failed] * 2, {"t_s": TIME})
    assert got["pairs"] == 11 and got["digests_compared"] == 9 and got["digests_equal"]
    assert got["t_s"]["pairs_change_won"] == 9
    assert not got["t_s"]["claim_met"] and not got["t_s"]["regressed"]

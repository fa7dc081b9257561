"""The statistics of `tools/bench_pairs.py` on synthetic paired values; no
benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summary = bench_pairs.summary

PARENT = [float(v) for v in range(1, 11)]  # median 5.5, quartiles 3.25 and 7.75


def test_median_and_quartiles_of_the_parent():
    s = summary(PARENT, PARENT, "lower", 0.25)
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (3.25, 5.5, 7.75)
    assert s["change_median"] == 5.5 and s["relative"] == 0.0 and s["paired"] == 0.0
    assert s["pairs"] == 10


def test_ties_count_for_neither_side():
    s = summary(PARENT, PARENT, "lower", 0.25)
    assert s["wins"] == 0 and not s["claim"] and s["within_bound"]


@pytest.mark.parametrize("losses, claim", [(0, True), (1, True), (2, False)])
def test_claim_needs_nine_tenths_of_the_pairs(losses, claim):
    # each win by 10, a median gap of 8 or more against an IQR of 4.5
    change = [v - 10.0 for v in PARENT]
    for i in range(losses):
        change[i] = PARENT[i] + 1.0
    s = summary(PARENT, change, "lower", 0.25)
    assert s["wins"] == 10 - losses
    assert s["claim"] is claim


@pytest.mark.parametrize("shift, claim", [(4.5, False), (4.75, True)])
def test_claim_needs_a_median_gap_past_the_parent_iqr(shift, claim):
    # the change wins every pair; the parent's IQR is 4.5
    s = summary(PARENT, [v - shift for v in PARENT], "lower", 0.25)
    assert s["wins"] == 10
    assert s["claim"] is claim


def test_higher_is_better():
    s = summary(PARENT, [v + 5.0 for v in PARENT], "higher", 0.1)
    assert s["wins"] == 10 and s["claim"] and s["within_bound"]
    s = summary(PARENT, [v - 5.0 for v in PARENT], "higher", 0.1)
    assert s["wins"] == 0 and not s["claim"] and not s["within_bound"]


@pytest.mark.parametrize("better, factor, within", [
    ("lower", 1.25, True), ("lower", 1.26, False), ("lower", 0.5, True),
    ("higher", 0.75, True), ("higher", 0.74, False), ("higher", 2.0, True)])
def test_bound_is_a_fraction_of_the_parent_median(better, factor, within):
    parent = [4.0] * 5
    s = summary(parent, [4.0 * factor] * 5, better, 0.25)
    assert s["within_bound"] is within
    assert s["relative"] == pytest.approx(factor - 1.0)


def test_paired_is_the_median_of_the_per_pair_ratios():
    # three pairs 10 % faster, two 20 % slower: the per-pair median is -10 %
    # while the change's median is 20 % above the parent's
    parent = [10.0, 20.0, 30.0, 40.0, 50.0]
    change = [12.0, 18.0, 36.0, 36.0, 45.0]
    s = summary(parent, change, "lower", 0.25)
    assert s["paired"] == pytest.approx(-0.1)
    assert s["relative"] == pytest.approx(0.2)
    assert s["wins"] == 3

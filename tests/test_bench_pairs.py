"""The summary of `tools/bench_pairs.py` on canned perfbench result lines;
no benchmark process is started."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402


def _lines(ops, rss, correct=True):
    record = {"record": {"workload": "period-map-1e5"}}
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
              "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return [record, result]


RUNS = {"parent": [_lines(1.0, 220.0), _lines(0.9, 210.0), _lines(1.1, 215.0)],
        "change": [_lines(2.0, 200.0), _lines(1.8, 212.0), _lines(0.8, 190.0)]}
BETTER = {"ops_per_s": "higher", "peak_rss_mb": "lower"}
BOUND = {"ops_per_s": 0.25, "peak_rss_mb": 0.1}


def test_medians_ratio_and_wins():
    s = bench_pairs.summarize(RUNS, BETTER, BOUND)
    assert s["pairs"] == 3 and s["all_correct"] is True
    ops = s["metrics"]["ops_per_s"]
    assert ops["parent_median"] == 1.0 and ops["change_median"] == 1.8
    assert ops["ratio"] == pytest.approx(1.8)
    assert ops["change_wins"] == 2  # the third pair is slower
    rss = s["metrics"]["peak_rss_mb"]
    assert rss["parent"] == [220.0, 210.0, 215.0]
    assert rss["change_median"] == 200.0 and rss["change_wins"] == 2


def test_pair_ratios_and_parent_spread():
    s = bench_pairs.summarize(RUNS, BETTER, BOUND)
    ops = s["metrics"]["ops_per_s"]
    assert ops["pair_ratios"] == pytest.approx([2.0, 2.0, 0.8 / 1.1], rel=1e-15, abs=0.0)
    assert ops["pair_ratio_median"] == 2.0
    assert ops["pair_ratio_quartiles"] == pytest.approx(
        [(2.0 + 0.8 / 1.1) / 2.0, 2.0], rel=1e-15, abs=0.0)
    assert ops["parent_quartiles"] == pytest.approx([0.95, 1.05], rel=1e-15, abs=0.0)
    assert ops["parent_spread"] == pytest.approx(0.1, rel=1e-12, abs=0.0)
    assert ops["clears_parent_spread"] is True
    text = bench_pairs.format_summary(s)
    assert "2.000 [1.364, 2.000]" in text
    # medians 1.0 and 1.05 differ by less than the parent's spread of 0.1
    close = {"parent": RUNS["parent"],
             "change": [_lines(1.1, 220.0), _lines(1.05, 210.0), _lines(0.9, 215.0)]}
    assert bench_pairs.summarize(close, BETTER, BOUND)["metrics"]["ops_per_s"][
        "clears_parent_spread"] is False


def test_quartiles_match_numpy_and_a_zero_parent_has_no_pair_ratio():
    import numpy as np
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert bench_pairs.quartiles(values) == pytest.approx(
        list(np.percentile(values, [25, 75])), rel=1e-15, abs=0.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0)
    runs = {"parent": [_lines(0.0, 1.0)], "change": [_lines(1.0, 1.0)]}
    ops = bench_pairs.summarize(runs, BETTER, BOUND)["metrics"]["ops_per_s"]
    assert ops["ratio"] is None and "pair_ratios" not in ops
    assert "-" in bench_pairs.format_summary(bench_pairs.summarize(runs, BETTER, BOUND))


def test_unknown_direction_and_failed_run():
    runs = {"parent": RUNS["parent"], "change": RUNS["change"][:2] + [_lines(1.0, 1.0, False)]}
    s = bench_pairs.summarize(runs, {}, {})
    assert s["all_correct"] is False
    assert "change_wins" not in s["metrics"]["ops_per_s"]
    text = bench_pairs.format_summary(s)
    assert "all runs correct: False" in text
    assert text.splitlines()[2].split()[0] == "ops_per_s"


def test_directions_read_from_benchmark_spec(tmp_path):
    assert bench_pairs.directions(tmp_path) == {}
    assert bench_pairs.bounds(tmp_path) == {}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    assert bench_pairs.directions(tmp_path) == BETTER
    assert bench_pairs.bounds(tmp_path) == BOUND


def test_relative_gain_and_bound_gate():
    s = bench_pairs.summarize(RUNS, BETTER, BOUND)
    ops, rss = s["metrics"]["ops_per_s"], s["metrics"]["peak_rss_mb"]
    assert ops["relative_gain"] == pytest.approx(0.8, rel=1e-15, abs=0.0)
    assert ops["bound"] == 0.25 and ops["within_bound"] is True
    # lower is better: 215 -> 200 MB is a gain of 15/215
    assert rss["relative_gain"] == pytest.approx(15.0 / 215.0, rel=1e-15, abs=0.0)
    assert rss["within_bound"] is True
    # a 20 % slower median is within 25 %; 240 MB against 215 is a loss of
    # 25/215 = 11.6 %, beyond 10 %
    worse = {"parent": RUNS["parent"],
             "change": [_lines(0.8, 240.0), _lines(0.7, 240.0), _lines(0.9, 240.0)]}
    w = bench_pairs.summarize(worse, BETTER, BOUND)["metrics"]
    assert w["ops_per_s"]["relative_gain"] == pytest.approx(-0.2, rel=1e-14, abs=0.0)
    assert w["ops_per_s"]["within_bound"] is True
    assert w["peak_rss_mb"]["relative_gain"] == pytest.approx(-25.0 / 215.0,
                                                              rel=1e-14, abs=0.0)
    assert w["peak_rss_mb"]["within_bound"] is False
    rows = bench_pairs.format_summary(
        bench_pairs.summarize(worse, BETTER, BOUND)).splitlines()
    assert "-20.0%" in rows[2] and "True (25%)" in rows[2]
    assert "-11.6%" in rows[3] and "False (10%)" in rows[3]
    # no direction: no gain and no gate; a zero parent median: no gain
    assert "relative_gain" not in bench_pairs.summarize(RUNS, {}, BOUND)[
        "metrics"]["ops_per_s"]
    zero = {"parent": [_lines(0.0, 1.0)], "change": [_lines(1.0, 1.0)]}
    ops = bench_pairs.summarize(zero, BETTER, BOUND)["metrics"]["ops_per_s"]
    assert ops["relative_gain"] is None and ops["within_bound"] is None

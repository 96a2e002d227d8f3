"""tools/bench_pairs.py, which alternates benchmark runs of two checkouts."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_seed_range_includes_both_ends():
    assert bench_pairs.seed_range("2601-2603") == [2601, 2602, 2603]
    assert bench_pairs.seed_range("7") == [7]
    for bad in ("5-3", "a-b", "1-"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.seed_range(bad)


def _pair(parent, change):
    side = lambda values: {"metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}
    return {"parent": side(parent), "change": side(change)}


def test_summary_counts_wins_in_the_better_direction():
    pairs = [_pair({"total_s": p, "ratio": 0.5}, {"total_s": c, "ratio": r})
             for p, c, r in ((1.0, 0.9, 0.6), (2.0, 2.0, 0.4), (3.0, 2.5, 0.7), (4.0, 4.5, 0.5), (5.0, 4.0, 0.6))]
    summary = bench_pairs.summarize(pairs, {"ratio": "higher"})
    total = summary["total_s"]
    assert total["pairs_parent_change"] == [(1.0, 0.9), (2.0, 2.0), (3.0, 2.5), (4.0, 4.5), (5.0, 4.0)]
    assert total["change_better_in"] == "3/5 pairs"  # the tie counts for neither side
    assert (total["parent_median"], total["parent_quartiles"]) == (3.0, [2.0, 4.0])
    assert total["parent_quartile_distance"] == 2.0
    assert total["change_median"] == 2.5
    assert summary["ratio"]["better"] == "higher"
    assert summary["ratio"]["change_better_in"] == "3/5 pairs"


def test_a_metric_missing_on_one_run_is_left_out():
    pairs = [_pair({"total_s": 1.0, "layer_s": 0.5}, {"total_s": 0.9}), _pair({"total_s": 1.0}, {"total_s": 0.8})]
    assert list(bench_pairs.summarize(pairs, {})) == ["total_s"]

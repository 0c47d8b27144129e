"""Tests for ``tools/time_runs.py``: the ratio interval and its record."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "time_runs.py")
_SPEC = importlib.util.spec_from_file_location("time_runs", _PATH)
time_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(time_runs)


def test_ratio_interval_is_seeded_and_brackets_the_ratio():
    parent = [33.8, 33.9, 32.3, 34.0, 33.0]
    change = [26.5, 26.7, 25.4, 27.0, 26.0]
    ratio = time_runs.ratio_interval(parent, change)
    assert ratio == time_runs.ratio_interval(parent, change)  # seeded
    assert ratio["median_ratio"] == round(26.7 / 33.9, 4)  # pair 2
    low, high = ratio["ci95"]
    assert low <= ratio["median_ratio"] <= high < 1.0
    # Every resampled median is a pair's ratio, so the bounds are too.
    pairs = [round(c / p, 4) for p, c in zip(parent, change)]
    assert min(pairs) <= low
    assert high <= max(pairs)
    assert time_runs.ratio_interval([2.0] * 3, [2.0] * 3)["ci95"] == [1.0,
                                                                     1.0]


def test_overlapping_runs_give_an_interval_across_one():
    ratio = time_runs.ratio_interval([10.0, 11.0, 12.0, 13.0, 14.0],
                                     [10.5, 11.5, 12.5, 13.5, 9.5])
    low, high = ratio["ci95"]
    assert low < 1.0 < high


def test_drift_that_hits_both_runs_of_a_pair_cancels():
    """The machine slows 40% over the runs while the change runs a
    steady 0.8x of the parent: resampling each side's runs alone would
    give an interval as wide as the drift, but the pair ratios give one
    that excludes 1.0."""
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [0.8 * seconds * jitter for seconds, jitter
              in zip(parent, [1.01, 0.99, 1.0, 1.02, 0.98])]
    ratio = time_runs.ratio_interval(parent, change)
    assert ratio["median_ratio"] == 0.8
    low, high = ratio["ci95"]
    assert 0.78 <= low <= 0.8 <= high <= 0.82 < 1.0


def test_ratio_interval_needs_pairs():
    with pytest.raises(ValueError, match="pairs"):
        time_runs.ratio_interval([1.0, 2.0], [1.0])


@pytest.mark.parametrize("labels,of", [
    (("parent", "change"), "change/parent"),
    (("change",), None),
])
def test_main_records_the_ratio_for_two_sides(labels, of, tmp_path,
                                              monkeypatch):
    seconds = {"parent": iter([10.0, 12.0, 11.0]),
               "change": iter([8.0, 9.0, 8.5])}

    def fake_run_once(checkout, run_args):
        return {"seconds": next(seconds[os.path.basename(checkout)]),
                "peak_rss_mb": 50.0, "experiments": {"t1": 1.0},
                "digest": "d"}

    monkeypatch.setattr(time_runs, "run_once", fake_run_once)
    record = tmp_path / "BENCH_e2e.json"
    # A ratio left by earlier runs must not outlive them.
    record.write_text(json.dumps({"t1": {"ratio": {"of": "stale"}}}))
    sides = [arg for label in labels
             for arg in ("--side", f"{label}={tmp_path / label}")]
    assert time_runs.main(["t1", "--runs", "3", "--record", str(record),
                           *sides]) == 0
    entry = json.loads(record.read_text())["t1"]
    if of is None:
        assert "ratio" not in entry
        return
    ratio = entry["ratio"]
    assert ratio["of"] == of
    assert ratio["median_ratio"] == round(8.5 / 11.0, 4)
    assert ratio["ci95"][1] < 1.0

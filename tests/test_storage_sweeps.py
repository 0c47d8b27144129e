"""Tests for the sweep utility."""

import pytest

from repro.exec import TrialSpec
from repro.harness import aggregate_rows, grid_points, sweep


class TestGridPoints:
    def test_cartesian_product(self):
        points = grid_points({"a": [1, 2], "b": ["x", "y"]})
        assert points == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                          {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]

    def test_empty_grid(self):
        assert grid_points({}) == [{}]

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            grid_points({"a": []})
        with pytest.raises(TypeError):
            grid_points({"a": 5})


class TestSweep:
    def _build(self, point):
        n = point["n"]
        return TrialSpec(
            schedule="fresh_spanning", schedule_params={"n": n},
            nodes="exact_count", node_params={"n": n},
            max_rounds=4000, until="quiescent", quiescence_window=32,
            oracle="count_exact")

    def test_rows_carry_grid_point_and_seed(self):
        rows = sweep({"n": [8, 12]}, self._build, seeds=[1, 2])
        assert len(rows) == 4
        assert {r["n"] for r in rows} == {8, 12}
        assert all(r["correct"] for r in rows)

    def test_progress_callback(self):
        calls = []
        sweep({"n": [8]}, self._build, seeds=[1, 2],
              progress=lambda point, seed: calls.append((point["n"], seed)))
        assert calls == [(8, 1), (8, 2)]

    def test_aggregate(self):
        rows = sweep({"n": [8]}, self._build, seeds=[1, 2, 3])
        agg = aggregate_rows(rows, group_by=["n"], value="rounds")
        assert len(agg) == 1
        assert agg[0]["replicates"] == 3
        assert agg[0]["rounds_min"] <= agg[0]["rounds_mean"] \
            <= agg[0]["rounds_max"]

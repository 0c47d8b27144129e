"""Tests for schedule serialization and the sweep utility."""

import os

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.dynamics import (
    FreshSpanningAdversary,
    OverlapHandoffAdversary,
    load_schedule,
    save_schedule,
    verify_t_interval_connectivity,
)
from repro.exec import TrialSpec
from repro.harness import aggregate_rows, grid_points, sweep


class TestScheduleStorage:
    def test_roundtrip_bit_identical(self, tmp_path):
        adv = OverlapHandoffAdversary(12, 3, noise_edges=2, seed=5)
        path = save_schedule(adv, horizon=20, path=str(tmp_path / "s.npz"))
        loaded = load_schedule(path)
        assert loaded.num_nodes == 12
        assert loaded.interval == 3
        assert loaded.horizon == 20
        for r in range(1, 21):
            assert (loaded.edges(r) == adv.edges(r)).all(), r

    def test_reloaded_schedule_reverifies(self, tmp_path):
        adv = OverlapHandoffAdversary(10, 2, seed=1)
        path = save_schedule(adv, horizon=16, path=str(tmp_path / "s.npz"))
        ok, _ = verify_t_interval_connectivity(load_schedule(path), 2,
                                               horizon=16)
        assert ok

    def test_not_a_schedule_file(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, x=np.arange(3))
        with pytest.raises(ScheduleError, match="no meta"):
            load_schedule(path)

    def test_appends_npz_suffix(self, tmp_path):
        adv = FreshSpanningAdversary(6, seed=1)
        path = save_schedule(adv, horizon=3, path=str(tmp_path / "plain"))
        assert path.endswith(".npz")
        assert os.path.exists(path)


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

"""Unit tests for schedule base classes and canonicalisation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ScheduleError
from repro.dynamics.schedule import (
    ExplicitSchedule,
    FunctionSchedule,
    canonical_edges,
)
from repro.dynamics import (AdaptiveSchedule, OverlapHandoffAdversary,
                            StaticAdversary, line_graph)


class TestCanonicalEdges:
    def test_orders_endpoints_and_rows(self):
        out = canonical_edges([(2, 1), (0, 3)], 4)
        assert out.tolist() == [[0, 3], [1, 2]]

    def test_merges_duplicates_and_reversed(self):
        out = canonical_edges([(1, 2), (2, 1), (1, 2)], 3)
        assert out.tolist() == [[1, 2]]

    def test_rejects_self_loops(self):
        with pytest.raises(ScheduleError, match="self-loops"):
            canonical_edges([(1, 1)], 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ScheduleError, match="endpoints"):
            canonical_edges([(0, 3)], 3)
        with pytest.raises(ScheduleError):
            canonical_edges([(-1, 0)], 3)

    def test_empty_ok(self):
        out = canonical_edges([], 3)
        assert out.shape == (0, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ScheduleError, match="shape"):
            canonical_edges(np.zeros((2, 3)), 5)

    def test_idempotent(self):
        first = canonical_edges([(3, 1), (0, 2), (2, 0)], 4)
        second = canonical_edges(first, 4)
        assert (first == second).all()

    def test_result_is_read_only(self):
        out = canonical_edges([(3, 1), (0, 2)], 4)
        with pytest.raises(ValueError):
            out[0, 0] = 1


class TestServedEdgesReadOnly:
    """Schedules memoize and share edge arrays, so a caller must not be
    able to corrupt a later round by writing to one it was served."""

    @pytest.mark.parametrize("make", [
        lambda: StaticAdversary(5, line_graph(5)),
        lambda: ExplicitSchedule(3, [[(0, 1), (1, 2)]], cycle=True),
        lambda: FunctionSchedule(3, lambda r: [(0, 1), (1, 2)]),
        lambda: OverlapHandoffAdversary(8, 2, seed=1),
        lambda: OverlapHandoffAdversary(8, 2, noise_edges=3, seed=1),
    ], ids=["static", "explicit", "function", "handoff", "handoff_noise"])
    def test_writing_to_edges_raises(self, make):
        schedule = make()
        for r in (1, 2, 3):
            before = schedule.edges(r).copy()
            with pytest.raises(ValueError):
                schedule.edges(r)[0, 0] = 0
            assert np.array_equal(schedule.edges(r), before)

    def test_block_csr_is_read_only(self):
        schedule = OverlapHandoffAdversary(8, 2, noise_edges=3, seed=1)
        csr = schedule.adjacency(2)
        with pytest.raises(ValueError):
            csr.indices[0] = 0
        with pytest.raises(ValueError):
            csr.indptr[0] = 1


class TestExplicitSchedule:
    def test_round_lookup(self):
        s = ExplicitSchedule(3, [[(0, 1)], [(1, 2)]])
        assert s.edges(1).tolist() == [[0, 1]]
        assert s.edges(2).tolist() == [[1, 2]]
        assert s.horizon == 2

    def test_beyond_horizon_raises_without_cycle(self):
        s = ExplicitSchedule(3, [[(0, 1)]])
        with pytest.raises(ScheduleError, match="beyond explicit horizon"):
            s.edges(2)

    def test_cycle_wraps(self):
        s = ExplicitSchedule(3, [[(0, 1)], [(1, 2)]], cycle=True)
        assert s.edges(3).tolist() == [[0, 1]]
        assert s.edges(4).tolist() == [[1, 2]]

    def test_empty_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            ExplicitSchedule(3, [])

    def test_round_index_must_be_positive(self):
        s = ExplicitSchedule(3, [[(0, 1)]])
        with pytest.raises(ConfigurationError):
            s.edges(0)


class TestNeighbors:
    def test_neighbors_lists(self):
        s = ExplicitSchedule(4, [[(0, 1), (1, 2)]])
        neigh = s.adjacency(1).neighbor_lists()
        assert neigh[1] == [0, 2]
        assert neigh[3] == []

    def test_neighbors_cached_identity(self):
        s = ExplicitSchedule(4, [[(0, 1)]], cycle=True)
        assert s.adjacency(1) is s.adjacency(1)
        csr = s.adjacency(1)
        assert csr.neighbor_lists() is csr.neighbor_lists()

    def test_degrees(self):
        s = ExplicitSchedule(4, [[(0, 1), (1, 2), (1, 3)]])
        assert s.adjacency(1).degrees().tolist() == [1, 3, 1, 1]


class TestFunctionSchedule:
    def test_function_evaluated_per_round(self):
        s = FunctionSchedule(3, lambda r: [(0, 1)] if r % 2 else [(1, 2)])
        assert s.edges(1).tolist() == [[0, 1]]
        assert s.edges(2).tolist() == [[1, 2]]


class _PathAdversary(AdaptiveSchedule):
    """Adaptive schedule serving the path 0-1-2 every round."""

    def decide_edges(self, round_index, nodes):
        return [(0, 1), (1, 2)]


class TestAdaptiveToExplicit:
    def test_records_and_freezes(self):
        adv = _PathAdversary(3)
        adv.bind([object()] * 3)
        adv.edges(1)
        adv.edges(2)
        frozen = adv.to_explicit()
        assert frozen.horizon == 2
        assert frozen.edges(1).tolist() == [[0, 1], [1, 2]]

    def test_gaps_detected(self):
        adv = _PathAdversary(3)
        adv.bind([object()] * 3)
        adv.edges(1)
        adv.edges(3)
        with pytest.raises(ScheduleError, match="gaps"):
            adv.to_explicit()

    def test_nothing_recorded(self):
        with pytest.raises(ScheduleError, match="no rounds realised"):
            _PathAdversary(3).to_explicit()

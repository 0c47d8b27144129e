"""Tests for PipelinedExactCount (exact Count under an id budget)."""

import pytest

from repro import RngRegistry, Simulator
from repro.core import PipelinedExactCount
from repro.simnet.message import ID_BITS
from repro.dynamics import (
    FreshSpanningAdversary,
    OverlapHandoffAdversary,
    StaticAdversary,
    line_graph,
)


def run(sched, w, seed=1, window=96, max_rounds=60_000, **kwargs):
    n = sched.num_nodes
    nodes = [PipelinedExactCount(i, ids_per_message=w, **kwargs)
             for i in range(n)]
    return Simulator(sched, nodes, rng=RngRegistry(seed)).run(
        max_rounds=max_rounds, until="quiescent", quiescence_window=window)


class TestCorrectness:
    @pytest.mark.parametrize("w", [1, 3, 8])
    def test_exact_on_handoff(self, w):
        n = 40
        result = run(OverlapHandoffAdversary(n, 2, seed=2), w)
        assert result.unanimous_output() == n

    def test_exact_on_line(self):
        n = 24
        result = run(StaticAdversary(n, line_graph(n)), 2, window=64)
        assert result.unanimous_output() == n

    def test_exact_on_fresh(self):
        n = 32
        result = run(FreshSpanningAdversary(n, seed=3), 4)
        assert result.unanimous_output() == n

    def test_premature_decisions_get_retracted(self):
        """Tiny initial window forces early decisions; final output is
        still exact (stabilizing contract under a budget)."""
        n = 48
        result = run(OverlapHandoffAdversary(n, 2, seed=4), 1,
                     initial_window=1)
        assert result.unanimous_output() == n
        assert result.metrics.counters.get("retractions", 0) >= 1


class TestComplexity:
    def test_rounds_scale_inversely_with_budget(self):
        n = 96
        sched = OverlapHandoffAdversary(n, 2, seed=1)
        rounds = {w: run(sched, w).metrics.last_decision_round
                  for w in [1, 4, 16]}
        assert rounds[1] > rounds[4] > rounds[16]
        assert rounds[1] > n  # N/w with w=1 is at least N-ish

    def test_messages_respect_budget(self):
        """Every message fits a bit budget sized for w ids."""
        n = 20
        w = 3
        sched = FreshSpanningAdversary(n, seed=1)
        nodes = [PipelinedExactCount(i, ids_per_message=w)
                 for i in range(n)]
        budget = ID_BITS * w + 8  # w NodeIds + tuple framing
        sim = Simulator(sched, nodes, rng=RngRegistry(1))
        result = sim.run(max_rounds=20_000, until="quiescent",
                         quiescence_window=64)
        assert result.unanimous_output() == n
        assert 0 < result.metrics.max_broadcast_bits <= budget

    def test_large_budget_behaves_like_unbounded(self):
        n = 32
        sched = FreshSpanningAdversary(n, seed=5)
        result = run(sched, w=n, window=32)
        # with w >= N everything ships at once: O(d) + window behaviour
        assert result.metrics.last_decision_round <= 32


class TestValidation:
    def test_budget_positive(self):
        with pytest.raises(Exception):
            PipelinedExactCount(0, ids_per_message=0)

    def test_progress_property(self):
        node = PipelinedExactCount(3, ids_per_message=2)
        assert node.progress == 1.0

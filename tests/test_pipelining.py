"""Tests for bandwidth-limited (pipelined) sketch aggregation."""

import pytest

from repro import RngRegistry, Simulator
from repro.analysis import tdm_rounds_bound
from repro.core import PipelinedApproxCount
from repro.dynamics import (
    FreshSpanningAdversary,
    StaticAdversary,
    dynamic_diameter,
    line_graph,
    star_graph,
)
from tests.conftest import run_quiescent


class TestConstruction:
    def test_width_or_accuracy_required(self):
        with pytest.raises(ValueError, match="width or both"):
            PipelinedApproxCount(0, words_per_message=2)

    def test_accuracy_target(self):
        node = PipelinedApproxCount(0, words_per_message=2, eps=0.5,
                                    delta=0.2)
        assert node.sketch.width >= 2

    def test_cycle_lengths(self):
        tdm = PipelinedApproxCount(0, words_per_message=5, width=20,
                                   strategy="tdm")
        assert tdm.cycle == 4
        greedy = PipelinedApproxCount(0, words_per_message=5, width=20,
                                      strategy="greedy")
        # greedy reserves 5//2=2 recency slots, leaving 3 round-robin
        # slots -> a coordinate is guaranteed on the wire every ceil(20/3)
        assert greedy.cycle == 7

    def test_bad_strategy(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            PipelinedApproxCount(0, words_per_message=2, width=8,
                                 strategy="psychic")


class TestCorrectness:
    @pytest.mark.parametrize("strategy", ["tdm", "greedy"])
    def test_unanimous_reasonable_estimate(self, strategy):
        n = 32
        sched = FreshSpanningAdversary(n, seed=3)
        nodes = [PipelinedApproxCount(i, words_per_message=3, width=24,
                                      strategy=strategy) for i in range(n)]
        result = run_quiescent(sched, nodes, max_rounds=20000,
                               window=4 * nodes[0].cycle)
        est = result.unanimous_output()
        assert n / 3 < est < n * 3

    def test_messages_respect_word_budget(self):
        n = 10
        sched = StaticAdversary(n, star_graph(n))
        w = 2
        nodes = [PipelinedApproxCount(i, words_per_message=w, width=8)
                 for i in range(n)]
        # (idx:int ~<=5 bits, value:float 64) * w + tuple framings
        budget = (64 + 16 + 8) * w + 8
        sim = Simulator(sched, nodes, rng=RngRegistry(1))
        result = sim.run(max_rounds=5000, until="quiescent",
                         quiescence_window=4 * nodes[0].cycle)
        result.unanimous_output()
        assert 0 < result.metrics.max_broadcast_bits <= budget

    def test_tdm_respects_analytic_bound(self):
        n = 24
        sched = StaticAdversary(n, line_graph(n))
        d = dynamic_diameter(sched)
        width, w = 12, 3
        nodes = [PipelinedApproxCount(i, words_per_message=w, width=width,
                                      strategy="tdm") for i in range(n)]
        result = run_quiescent(sched, nodes, max_rounds=50000,
                               window=4 * nodes[0].cycle)
        assert (result.metrics.last_decision_round
                <= tdm_rounds_bound(d, width, w) + 4 * nodes[0].cycle)

    def test_greedy_beats_tdm_on_line(self):
        n = 32
        sched = StaticAdversary(n, line_graph(n))

        def run(strategy):
            nodes = [PipelinedApproxCount(i, words_per_message=4, width=32,
                                          strategy=strategy)
                     for i in range(n)]
            result = run_quiescent(sched, nodes, max_rounds=100000,
                                   window=4 * nodes[0].cycle)
            return result.metrics.last_decision_round

        assert run("greedy") < run("tdm")

    def test_full_budget_equals_plain_aggregation_speed(self):
        """With w = width the pipelined node behaves like ApproxCount."""
        n = 24
        sched = FreshSpanningAdversary(n, seed=2)
        d = dynamic_diameter(sched)
        nodes = [PipelinedApproxCount(i, words_per_message=16, width=16)
                 for i in range(n)]
        result = run_quiescent(sched, nodes, max_rounds=5000, window=16)
        assert result.metrics.last_decision_round <= 3 * d + 4

"""Tests for the flooding baselines: FloodToken, the known-bound floods
(MaxKnownBound and ConsensusKnownBound, the folklore known-N baselines
at rounds_bound=N-1) and RandomTokenDissemination."""

import pytest

from repro import RngRegistry, Simulator
from repro.baselines import FloodToken, RandomTokenDissemination
from repro.baselines.token import dissemination_complete
from repro.core import ConsensusKnownBound, MaxKnownBound
from repro.errors import ConfigurationError
from repro.simnet.message import ID_BITS
from repro.dynamics import (
    FreshSpanningAdversary,
    StaticAdversary,
    line_graph,
    star_graph,
)


class TestFloodToken:
    def test_spreads_on_line(self):
        n = 12
        sched = StaticAdversary(n, line_graph(n))
        nodes = [FloodToken(i, informed=(i == 0)) for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=n, until="decided")
        assert all(result.outputs[i] is True for i in range(n))
        assert result.metrics.decision_rounds[n - 1] == n - 1

    def test_seed_decides_immediately(self):
        node = FloodToken(0, informed=True)
        assert node.decided and node.output is True

    def test_multiple_seeds(self):
        n = 9
        sched = StaticAdversary(n, line_graph(n))
        nodes = [FloodToken(i, informed=(i in (0, n - 1))) for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=n, until="decided")
        # two wavefronts meet in the middle
        assert result.metrics.last_decision_round == (n - 1) // 2


class TestFloodMax:
    """The known-N flooding Max baseline: ``MaxKnownBound`` with its
    bound set to N-1 (or to a known diameter bound)."""

    def test_known_n_bound_correct(self):
        n = 20
        sched = StaticAdversary(n, line_graph(n))
        nodes = [MaxKnownBound(i, value=i % 7, rounds_bound=n - 1)
                 for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=n)
        assert result.unanimous_output() == 6
        assert result.rounds == n - 1

    def test_diameter_bound_variant(self):
        n = 20
        sched = StaticAdversary(n, star_graph(n))
        nodes = [MaxKnownBound(i, value=i, rounds_bound=2) for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=3)
        assert result.unanimous_output() == n - 1
        assert result.rounds == 2

    def test_insufficient_bound_can_be_wrong(self):
        n = 10
        sched = StaticAdversary(n, line_graph(n))
        # Max sits at node n-1; a 2-round bound cannot reach node 0.
        nodes = [MaxKnownBound(i, value=i, rounds_bound=2) for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=3)
        assert result.outputs[0] != n - 1  # documented failure mode

    def test_validation(self):
        # Floats and bools used to be truncated to a bound silently.
        for bound in (0, -1, 2.7, 2.0, True, False, "3", None):
            with pytest.raises(ConfigurationError, match="rounds_bound"):
                MaxKnownBound(0, value=1, rounds_bound=bound)


class TestFloodConsensus:
    """The known-N flood consensus baseline: ``ConsensusKnownBound``."""

    def test_agreement_and_validity(self):
        n = 16
        sched = FreshSpanningAdversary(n, seed=2)
        nodes = [ConsensusKnownBound(i + 10, proposal=f"v{i}",
                                     rounds_bound=n)
                 for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=n + 1)
        assert result.unanimous_output() == "v0"  # min id 10 proposes v0

    def test_known_n_bound_correct(self):
        n = 12
        sched = StaticAdversary(n, line_graph(n))
        # The minimum id sits at one end of the line: n-1 hops from the
        # other end.
        nodes = [ConsensusKnownBound(i, proposal=f"v{i}", rounds_bound=n - 1)
                 for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=n)
        assert result.unanimous_output() == "v0"
        assert result.rounds == n - 1

    def test_halts_exactly_at_bound(self):
        n = 6
        sched = StaticAdversary(n, line_graph(n))
        nodes = [ConsensusKnownBound(i, proposal=i, rounds_bound=9)
                 for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=20)
        assert result.rounds == 9

    def test_insufficient_bound_can_be_wrong(self):
        n = 10
        sched = StaticAdversary(n, line_graph(n))
        # The minimum id sits at node 0; 2 rounds cannot reach node n-1.
        nodes = [ConsensusKnownBound(i, proposal=f"v{i}", rounds_bound=2)
                 for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=3)
        assert result.outputs[1] == "v0"
        assert result.outputs[n - 1] != "v0"  # documented failure mode


class TestRandomTokenDissemination:
    def test_known_n_decides_count(self):
        n = 20
        sched = FreshSpanningAdversary(n, seed=1)
        nodes = [RandomTokenDissemination(i, target_count=n)
                 for i in range(n)]
        sim = Simulator(sched, nodes, rng=RngRegistry(5))
        result = sim.run(max_rounds=5000, until="decided")
        assert result.unanimous_output() == n

    def test_oracle_predicate(self):
        n = 10
        sched = FreshSpanningAdversary(n, seed=1)
        nodes = [RandomTokenDissemination(i) for i in range(n)]
        sim = Simulator(sched, nodes, rng=RngRegistry(5))
        result = sim.run(max_rounds=5000,
                         stop_when=dissemination_complete,
                         allow_timeout=True)
        assert result.stop_reason == "predicate"
        assert all(len(node.tokens) == n for node in nodes)

    def test_progress_property(self):
        node = RandomTokenDissemination(3)
        assert node.progress == 1
        node.tokens.update({7, 9})
        assert node.progress == 3

    def test_messages_are_single_tokens(self):
        n = 6
        sched = StaticAdversary(n, star_graph(n))
        nodes = [RandomTokenDissemination(i, target_count=n)
                 for i in range(n)]
        sim = Simulator(sched, nodes, rng=RngRegistry(5))
        result = sim.run(max_rounds=1000, until="decided")
        assert result.unanimous_output() == n
        assert result.metrics.max_broadcast_bits == ID_BITS  # one NodeId

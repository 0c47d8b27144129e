"""Tests for flooding baselines: FloodToken, FloodMax, FloodBroadcast,
FloodConsensus, RandomTokenDissemination."""

import pytest

from repro import RngRegistry, Simulator
from repro.baselines import (
    FloodBroadcast,
    FloodConsensus,
    FloodMax,
    FloodToken,
    RandomTokenDissemination,
)
from repro.baselines.token import dissemination_complete
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
    def test_known_n_bound_correct(self):
        n = 20
        sched = StaticAdversary(n, line_graph(n))
        nodes = [FloodMax(i, value=i % 7, rounds_bound=n - 1)
                 for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=n)
        assert result.unanimous_output() == 6
        assert result.rounds == n - 1

    def test_diameter_bound_variant(self):
        n = 20
        sched = StaticAdversary(n, star_graph(n))
        nodes = [FloodMax(i, value=i, rounds_bound=2) for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=3)
        assert result.unanimous_output() == n - 1
        assert result.rounds == 2

    def test_insufficient_bound_can_be_wrong(self):
        n = 10
        sched = StaticAdversary(n, line_graph(n))
        # Max sits at node n-1; a 2-round bound cannot reach node 0.
        nodes = [FloodMax(i, value=i, rounds_bound=2) for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=3)
        assert result.outputs[0] != n - 1  # documented failure mode

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FloodMax(0, value=1, rounds_bound=0)


class TestFloodBroadcast:
    def test_single_source_payload(self):
        n = 8
        sched = StaticAdversary(n, line_graph(n))
        nodes = [FloodBroadcast(i, rounds_bound=n - 1,
                                payload=("cfg" if i == 3 else None))
                 for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=n)
        assert result.unanimous_output() == "cfg"

    def test_smallest_source_wins(self):
        n = 8
        sched = StaticAdversary(n, star_graph(n))
        nodes = [FloodBroadcast(i, rounds_bound=4,
                                payload=f"from{i}" if i in (2, 5) else None)
                 for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=5)
        assert result.unanimous_output() == "from2"

    def test_no_source_yields_none(self):
        n = 4
        sched = StaticAdversary(n, line_graph(n))
        nodes = [FloodBroadcast(i, rounds_bound=3) for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=4)
        assert result.unanimous_output() is None


class TestFloodConsensus:
    def test_agreement_and_validity(self):
        n = 16
        sched = FreshSpanningAdversary(n, seed=2)
        nodes = [FloodConsensus(i + 10, proposal=f"v{i}", rounds_bound=n)
                 for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=n + 1)
        assert result.unanimous_output() == "v0"  # min id 10 proposes v0

    def test_halts_exactly_at_bound(self):
        n = 6
        sched = StaticAdversary(n, line_graph(n))
        nodes = [FloodConsensus(i, proposal=i, rounds_bound=9)
                 for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=20)
        assert result.rounds == 9


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

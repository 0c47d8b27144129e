"""Unit/integration tests for the round engine."""

import pytest

from repro import RngRegistry, Simulator
from repro.errors import (
    ConfigurationError,
    IncorrectOutputError,
    NotTerminatedError,
)
from repro.obs import Recorder
from repro.simnet.engine import ENGINES
from repro.simnet.message import bit_size
from repro.simnet.node import Algorithm
from repro.dynamics import ExplicitSchedule, StaticAdversary, line_graph
from tests.conftest import FunctionalNode


class EchoOnce(Algorithm):
    """Broadcasts its id in round 1, decides on the inbox, halts."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen = []

    def compose(self, ctx):
        return self.node_id if ctx.round_index == 1 else None

    def deliver(self, ctx, inbox):
        self.seen.extend(inbox)
        self.decide(tuple(sorted(self.seen)))
        self.halt()


def make_pair_schedule():
    return ExplicitSchedule(2, [[(0, 1)]], cycle=True)


class TestEngineBasics:
    def test_delivery_between_neighbors(self):
        nodes = [EchoOnce(0), EchoOnce(1)]
        result = Simulator(make_pair_schedule(), nodes).run(max_rounds=5)
        assert result.outputs == {0: (1,), 1: (0,)}
        assert result.stop_reason == "halted"
        assert result.rounds == 1

    def test_node_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="2 nodes"):
            Simulator(make_pair_schedule(), [EchoOnce(0)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            Simulator(make_pair_schedule(), [EchoOnce(0), EchoOnce(0)])

    def test_negative_ids_rejected_before_any_stream_is_built(self):
        with pytest.raises(ConfigurationError, match="node_id must be >= 0"):
            Simulator(make_pair_schedule(), [EchoOnce(0), EchoOnce(-3)])

    def test_silent_nodes_send_nothing(self):
        sent = []

        def compose(state, ctx):
            return None

        def deliver(state, ctx, inbox):
            sent.extend(inbox)

        nodes = [FunctionalNode(i, compose, deliver) for i in range(2)]
        sim = Simulator(make_pair_schedule(), nodes)
        sim.step()
        assert sent == []
        assert sim.metrics.snapshot().broadcasts == 0

    def test_timeout_raises_with_undecided_ids(self):
        def compose(state, ctx):
            return None

        def deliver(state, ctx, inbox):
            pass

        nodes = [FunctionalNode(i, compose, deliver) for i in range(2)]
        with pytest.raises(NotTerminatedError) as exc:
            Simulator(make_pair_schedule(), nodes).run(max_rounds=3)
        assert exc.value.undecided == (0, 1)
        assert exc.value.rounds_executed == 3

    def test_allow_timeout_returns_result(self):
        def compose(state, ctx):
            return None

        def deliver(state, ctx, inbox):
            pass

        nodes = [FunctionalNode(i, compose, deliver) for i in range(2)]
        result = Simulator(make_pair_schedule(), nodes).run(
            max_rounds=3, allow_timeout=True)
        assert result.stop_reason == "max_rounds"
        assert result.rounds == 3


class TestStopConditions:
    def test_until_decided_does_not_require_halt(self):
        class DecideKeepRunning(Algorithm):
            def compose(self, ctx):
                return 1

            def deliver(self, ctx, inbox):
                self.decide("ok")

        nodes = [DecideKeepRunning(i) for i in range(2)]
        result = Simulator(make_pair_schedule(), nodes).run(
            max_rounds=10, until="decided")
        assert result.stop_reason == "decided"
        assert result.rounds == 1

    def test_until_quiescent_waits_for_window(self):
        class QuietAfter3(Algorithm):
            def compose(self, ctx):
                return 1

            def deliver(self, ctx, inbox):
                self.mark_changed(ctx.round_index <= 3)
                if not self.decided:
                    self.decide("ok")

        nodes = [QuietAfter3(i) for i in range(2)]
        result = Simulator(make_pair_schedule(), nodes).run(
            max_rounds=50, until="quiescent", quiescence_window=5)
        assert result.stop_reason == "quiescent"
        assert result.rounds == 8  # 3 noisy + 5 quiet

    def test_stop_when_predicate(self):
        class Forever(Algorithm):
            def compose(self, ctx):
                return 1

            def deliver(self, ctx, inbox):
                pass

        nodes = [Forever(i) for i in range(2)]
        result = Simulator(make_pair_schedule(), nodes).run(
            max_rounds=100, stop_when=lambda r, progress: r >= 7,
            allow_timeout=True)
        assert result.stop_reason == "predicate"
        assert result.rounds == 7

    def test_invalid_until_rejected(self):
        nodes = [EchoOnce(0), EchoOnce(1)]
        with pytest.raises(ConfigurationError):
            Simulator(make_pair_schedule(), nodes).run(
                max_rounds=1, until="whenever")


class TestBandwidth:
    def _big_sender(self):
        class Big(Algorithm):
            def compose(self, ctx):
                return tuple(range(100))  # large message

            def deliver(self, ctx, inbox):
                self.decide(True)
                self.halt()

        return [Big(0), Big(1)]

    def test_wide_messages_are_measured_not_refused(self):
        """Every tier accounts message width and enforces no budget."""
        for engine in ENGINES:
            sim = Simulator(make_pair_schedule(), self._big_sender(),
                            engine=engine)
            result = sim.run(max_rounds=2)
            assert result.stop_reason == "halted"
            assert (result.metrics.max_broadcast_bits
                    == bit_size(tuple(range(100))))


class TestHaltedNodes:
    def test_halted_nodes_neither_send_nor_receive(self):
        class HaltRound1(Algorithm):
            def compose(self, ctx):
                return "x"

            def deliver(self, ctx, inbox):
                self.decide("done")
                self.halt()

        class Listener(Algorithm):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.heard = []

            def compose(self, ctx):
                return "y"

            def deliver(self, ctx, inbox):
                self.heard.append(list(inbox))
                if ctx.round_index >= 3:
                    self.decide(self.heard)
                    self.halt()

        nodes = [HaltRound1(0), Listener(1)]
        result = Simulator(make_pair_schedule(), nodes).run(max_rounds=5)
        heard = result.outputs[1]
        assert heard[0] == ["x"]   # round 1: node 0 still alive
        assert heard[1] == []      # rounds 2+: node 0 halted
        assert heard[2] == []

    def test_halted_decision_still_in_outputs(self):
        nodes = [EchoOnce(0), EchoOnce(1)]
        result = Simulator(make_pair_schedule(), nodes).run(max_rounds=2)
        assert set(result.outputs) == {0, 1}


class TestRunResult:
    def test_unanimous_output(self):
        nodes = [EchoOnce(0), EchoOnce(1)]
        result = Simulator(make_pair_schedule(), nodes).run(max_rounds=2)
        with pytest.raises(IncorrectOutputError, match="disagree"):
            result.unanimous_output()

    def test_metrics_bits_counted(self):
        nodes = [EchoOnce(0), EchoOnce(1)]
        result = Simulator(make_pair_schedule(), nodes).run(max_rounds=2)
        assert result.metrics.broadcasts == 2
        assert result.metrics.broadcast_bits > 0

    def test_trace_integration(self):
        rec = Recorder.in_memory()
        nodes = [EchoOnce(0), EchoOnce(1)]
        Simulator(make_pair_schedule(), nodes, recorder=rec).run(max_rounds=2)
        assert {"round", "delivery", "decision"} <= {e.kind for e in rec.events}
        actions = {e.action for e in rec.of_kind("decision")}
        assert {"decide", "halt"} <= actions


class TestDeterminism:
    def test_same_seed_same_run(self):
        from repro.core import ApproxCount
        from repro.dynamics import OverlapHandoffAdversary

        def run(seed):
            sched = OverlapHandoffAdversary(16, 2, seed=5)
            nodes = [ApproxCount(i, width=8) for i in range(16)]
            sim = Simulator(sched, nodes, rng=RngRegistry(seed))
            return sim.run(max_rounds=2000, until="quiescent",
                           quiescence_window=16)

        a, b = run(3), run(3)
        assert a.outputs == b.outputs
        assert a.rounds == b.rounds

    def test_different_seed_different_estimates(self):
        from repro.core import ApproxCount
        from repro.dynamics import OverlapHandoffAdversary

        def run(seed):
            sched = OverlapHandoffAdversary(16, 2, seed=5)
            nodes = [ApproxCount(i, width=8) for i in range(16)]
            sim = Simulator(sched, nodes, rng=RngRegistry(seed))
            return sim.run(max_rounds=2000, until="quiescent",
                           quiescence_window=16).unanimous_output()

        assert run(3) != run(4)

"""Tests for the Algorithm node lifecycle, the error hierarchy, and the
public API surface."""

import pytest

import repro
from repro.errors import (
    AlgorithmViolation,
    ConfigurationError,
    IncorrectOutputError,
    IntervalConnectivityError,
    NotTerminatedError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from repro.simnet.node import Algorithm, FunctionalNode, RoundContext


class TestAlgorithmLifecycle:
    def test_initial_state(self):
        node = FunctionalNode(3, lambda s, c: None, lambda s, c, i: None)
        assert not node.decided
        assert node.output is None
        assert not node.halted
        assert node.state_changed  # conservative default

    def test_decide_sets_output_and_queues_event(self):
        node = FunctionalNode(3, lambda s, c: None, lambda s, c, i: None)
        node.decide("v")
        assert node.decided and node.output == "v"
        assert node._drain_events() == [("decide", "v")]
        assert node._drain_events() == []  # drained

    def test_retract_clears(self):
        node = FunctionalNode(3, lambda s, c: None, lambda s, c, i: None)
        node.decide("v")
        node._drain_events()
        node.retract()
        assert not node.decided and node.output is None
        assert node._drain_events() == [("retract",)]

    def test_retract_without_decision_is_noop(self):
        node = FunctionalNode(3, lambda s, c: None, lambda s, c, i: None)
        node.retract()
        assert node._drain_events() == []

    def test_halt(self):
        node = FunctionalNode(3, lambda s, c: None, lambda s, c, i: None)
        node.decide(1)
        node.halt()
        assert node.halted and node.decided
        assert [e[0] for e in node._drain_events()] == ["decide", "halt"]

    def test_mark_changed(self):
        node = FunctionalNode(3, lambda s, c: None, lambda s, c, i: None)
        node.mark_changed(False)
        assert not node.state_changed
        node.mark_changed()
        assert node.state_changed

    def test_abstract_methods(self):
        node = Algorithm(0)
        with pytest.raises(NotImplementedError):
            node.compose(None)
        with pytest.raises(NotImplementedError):
            node.deliver(None, [])

    def test_functional_node_state(self):
        log = []
        node = FunctionalNode(
            1,
            compose=lambda s, c: s["x"],
            deliver=lambda s, c, inbox: log.append(inbox),
            state={"x": 42},
        )
        assert node.compose(None) == 42
        node.deliver(None, ["m"])
        assert log == [["m"]]


class TestRoundContext:
    def test_incr_delegates(self):
        calls = []
        ctx = RoundContext(3, None, lambda name, amount: calls.append(
            (name, amount)))
        ctx.incr("x")
        ctx.incr("y", 5)
        assert calls == [("x", 1), ("y", 5)]
        assert ctx.round_index == 3


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in [ConfigurationError, ScheduleError,
                    IntervalConnectivityError, SimulationError,
                    AlgorithmViolation,
                    NotTerminatedError, IncorrectOutputError]:
            assert issubclass(exc, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)

    def test_interval_error_is_schedule_error(self):
        assert issubclass(IntervalConnectivityError, ScheduleError)

    def test_payload_attributes(self):
        e = IntervalConnectivityError("x", window_start=3, window_length=2)
        assert e.window_start == 3 and e.window_length == 2
        e3 = NotTerminatedError("x", rounds_executed=5, undecided=(1, 2))
        assert e3.rounds_executed == 5 and e3.undecided == (1, 2)


class TestPublicApi:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackage_exports(self):
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.dynamics
        import repro.harness
        import repro.simnet

        for module in [repro.analysis, repro.baselines, repro.core,
                       repro.dynamics, repro.harness, repro.simnet]:
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_readme_quickstart_snippet_runs(self):
        """The README's quickstart must stay executable."""
        from repro import Simulator, RngRegistry
        from repro.core import ExactCount
        from repro.dynamics import OverlapHandoffAdversary, dynamic_diameter

        N, T = 32, 2
        net = OverlapHandoffAdversary(N, T, noise_edges=4, seed=42)
        assert dynamic_diameter(net) < N
        nodes = [ExactCount(i) for i in range(N)]
        res = Simulator(net, nodes, rng=RngRegistry(42)).run(
            max_rounds=10_000, until="quiescent", quiescence_window=64)
        assert res.unanimous_output() == N

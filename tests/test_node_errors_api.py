"""Tests for the Algorithm node lifecycle, the error hierarchy, and the
public API surface."""

import pytest

import repro
from repro.analysis import complexity, fitting, plotting, stats
from repro.baselines import klo
from repro.core import (aggregation, approx_count, hybrid_count, pipelining,
                        sketches)
from repro.dynamics import (StaticAdversary, WindowedThrottleAdversary,
                            diameter, line_graph)
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
from repro._validate import require_positive_float, require_probability
from repro.exec import TrialSpec
from repro.simnet import Simulator
from repro.simnet.node import Algorithm, RoundContext
from tests.conftest import FunctionalNode

LINE3 = StaticAdversary(3, line_graph(3))


def _idle_nodes(n):
    """*n* nodes that broadcast nothing and ignore their inbox."""
    return [FunctionalNode(i, lambda s, c: None, lambda s, c, i: None)
            for i in range(n)]


def _bound_throttle():
    """A windowed-throttle adversary bound to a flat progress vector."""
    schedule = WindowedThrottleAdversary(4, 2)
    schedule.bind(lambda: [0.0] * 4)
    return schedule


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

    @pytest.mark.parametrize("call", [
        lambda: klo.KCommitteeCount(0, guess_growth=1),
        lambda: klo.total_rounds_prediction(8, guess_growth=1),
        lambda: hybrid_count.HybridCount(0, safety_factor=1.0),
        lambda: approx_count.ApproxCount(0),
        lambda: approx_count.ApproxCount(0, width=8, family="bogus"),
        lambda: pipelining.PipelinedApproxCount(0, words_per_message=2),
        lambda: sketches.required_width(0, 0.1),
        lambda: sketches.required_width(0.1, 0),
        lambda: sketches.required_width(0.25, "0.05"),
        lambda: sketches.estimate_from_minima([1.0]),
        lambda: sketches.estimate_from_minima([0.0, 1.0]),
        lambda: sketches.ExponentialCountSketch(1),
        lambda: sketches.GeometricCountSketch(4).estimate([]),
        lambda: aggregation.MinVectorAggregate(0),
        lambda: aggregation.MinVectorAggregate(2).decode((1.0,)),
        lambda: fitting.power_law_fit([1], [1]),
        lambda: fitting.power_law_fit([1, 2], [1]),
        lambda: fitting.power_law_fit([1, 2], [0, 1]),
        lambda: stats.summarize([]),
        lambda: hybrid_count.HybridCount(0, safety_factor="2"),
        lambda: plotting.ascii_plot({}),
        lambda: plotting.ascii_plot({str(i): ([1], [1])
                                     for i in range(9)}),
        lambda: plotting.ascii_plot({"a": ([1, 2], [1])}),
        lambda: plotting.ascii_plot({"a": ([], [])}),
        lambda: plotting.ascii_plot({"s": ([0], [1])}, logx=True),
        lambda: complexity.crossover_n(abs, abs, n_min=4, n_max=2),
        lambda: require_probability(True, "p"),
        lambda: diameter.dynamic_diameter(LINE3, start_rounds=()),
        lambda: WindowedThrottleAdversary(5, 0),
        lambda: WindowedThrottleAdversary(5, 2.7),
        lambda: WindowedThrottleAdversary(5, True),
        lambda: WindowedThrottleAdversary(5, "3"),
        lambda: _bound_throttle().edges(0),
        lambda: _bound_throttle().edges(-1),
        lambda: _bound_throttle().edges(2.5),
        lambda: _bound_throttle().edges(True),
        lambda: require_positive_float(True, "x"),
        lambda: require_positive_float("2", "x"),
        lambda: require_probability("0.5", "p"),
        lambda: Simulator(LINE3, _idle_nodes(3), loss_rate="0.1"),
        lambda: Simulator(LINE3, _idle_nodes(3), loss_rate=False),
        lambda: TrialSpec(schedule="fresh_spanning", nodes="exact_count",
                          max_rounds=10, loss_rate="0.1"),
        lambda: TrialSpec(schedule="fresh_spanning", nodes="exact_count",
                          max_rounds=10, loss_rate=True),
        lambda: TrialSpec(schedule="fresh_spanning", nodes="exact_count",
                          max_rounds=10, loss_rate=1.0),
        lambda: sketches.required_width(1e-3, 1e-9),
        lambda: sketches.required_width("0.25", 0.05),
        lambda: sketches.required_width(True, 0.05),
    ])
    def test_invalid_arguments_raise_repro_error(self, call):
        """Every error the library raises on purpose derives from
        ``ReproError``; argument errors are ``ConfigurationError``s, which
        are also ``ValueError``s."""
        with pytest.raises(ReproError) as info:
            call()
        assert isinstance(info.value, ConfigurationError)

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


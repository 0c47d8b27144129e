"""Unit tests for metrics accounting."""

from repro.simnet.metrics import MetricsCollector


class TestMetricsCollector:
    def test_broadcast_accounting(self):
        m = MetricsCollector()
        m.on_broadcast(bits=10, degree=3)
        m.on_broadcast(bits=5, degree=0)
        snap = m.snapshot()
        assert snap.broadcasts == 2
        assert snap.delivered_messages == 3
        assert snap.broadcast_bits == 15
        assert snap.delivered_bits == 30
        assert snap.max_broadcast_bits == 10

    def test_round_counter(self):
        m = MetricsCollector()
        for _ in range(4):
            m.on_round_executed()
        assert m.snapshot().rounds == 4

    def test_decisions_first_and_last(self):
        m = MetricsCollector()
        m.on_decision(1, 5)
        m.on_decision(2, 9)
        snap = m.snapshot()
        assert snap.first_decision_round == 5
        assert snap.last_decision_round == 9
        assert snap.decision_rounds == {1: 5, 2: 9}

    def test_retraction_clears_decision_and_counts(self):
        m = MetricsCollector()
        m.on_decision(1, 5)
        m.on_retraction(1)
        m.on_decision(1, 12)
        snap = m.snapshot()
        assert snap.decision_rounds == {1: 12}
        assert snap.counters["retractions"] == 1

    def test_no_decisions_yields_none(self):
        snap = MetricsCollector().snapshot()
        assert snap.first_decision_round is None
        assert snap.last_decision_round is None

    def test_custom_counters(self):
        m = MetricsCollector()
        m.incr("phases")
        m.incr("phases", 4)
        assert m.snapshot().counters["phases"] == 5

    def test_as_dict_flattens(self):
        m = MetricsCollector()
        m.incr("x")
        d = m.snapshot().as_dict()
        assert d["counter.x"] == 1
        assert "rounds" in d and "broadcast_bits" in d

    def test_decided_nodes_sorted(self):
        m = MetricsCollector()
        m.on_decision(5, 1)
        m.on_decision(2, 1)
        assert sorted(m.snapshot().decision_rounds) == [2, 5]


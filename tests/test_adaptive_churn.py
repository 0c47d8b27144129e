"""Tests for adaptive adversaries and churn/mobility models."""

import numpy as np
import pytest

from repro import RngRegistry, Simulator
from repro.baselines import FloodToken, RandomTokenDissemination
from repro.baselines.token import dissemination_complete
from repro.errors import ConfigurationError, ScheduleError
from repro.dynamics import (
    CutThrottleAdversary,
    EdgeChurnAdversary,
    PathHiderAdversary,
    RepairedMobilityAdversary,
    WindowedThrottleAdversary,
    random_tree_graph,
    verify_t_interval_connectivity,
)


class TestPathHider:
    def test_forces_linear_flooding(self):
        n = 40
        nodes = [FloodToken(i, informed=(i == 0)) for i in range(n)]
        adv = PathHiderAdversary(n)
        result = Simulator(adv, nodes).run(max_rounds=3 * n, until="decided")
        assert result.metrics.last_decision_round == n - 1

    def test_realized_schedule_is_one_interval(self):
        n = 20
        nodes = [FloodToken(i, informed=(i == 0)) for i in range(n)]
        adv = PathHiderAdversary(n)
        result = Simulator(adv, nodes).run(max_rounds=3 * n, until="decided")
        ok, _ = verify_t_interval_connectivity(
            adv.to_explicit(), 1, horizon=result.rounds)
        assert ok

    def test_query_before_bind_raises(self):
        adv = PathHiderAdversary(5)
        with pytest.raises(ScheduleError, match="before being bound"):
            adv.edges(1)

    def test_bind_size_mismatch(self):
        adv = PathHiderAdversary(5)
        adv.bind(lambda: np.zeros(3))
        with pytest.raises(ScheduleError, match="bound 3 nodes"):
            adv.edges(1)

    def test_custom_predicate(self):
        """Informed means progress above 0: the informed nodes (3 and 7)
        lead the path, then the rest, each block in index order."""
        n = 10
        adv = PathHiderAdversary(n)
        progress = np.zeros(n)
        progress[[3, 7]] = [0.5, 2.0]
        adv.bind(lambda: progress)
        order = [3, 7, 0, 1, 2, 4, 5, 6, 8, 9]
        assert adv.edges(1).tolist() == sorted(
            sorted(pair) for pair in zip(order, order[1:]))


class TestCutThrottle:
    def test_slows_token_dissemination(self):
        n = 24
        seeds = [1, 2, 3]

        def run(factory):
            rounds = []
            for seed in seeds:
                nodes = [RandomTokenDissemination(i) for i in range(n)]
                sim = Simulator(factory(n), nodes, rng=RngRegistry(seed))
                res = sim.run(
                    max_rounds=50_000,
                    stop_when=dissemination_complete,
                    allow_timeout=True)
                rounds.append(res.rounds)
            return float(np.mean(rounds))

        from repro.dynamics import FreshSpanningAdversary

        throttled = run(lambda n_: CutThrottleAdversary(n_))
        friendly = run(lambda n_: FreshSpanningAdversary(n_, seed=0))
        assert throttled > 1.5 * friendly


class TestWindowedThrottle:
    @pytest.mark.parametrize("T", [1, 2, 4])
    def test_realized_promise(self, T):
        n = 16
        adv = WindowedThrottleAdversary(n, T)
        nodes = [RandomTokenDissemination(i) for i in range(n)]
        sim = Simulator(adv, nodes, rng=RngRegistry(1))
        res = sim.run(max_rounds=5000,
                      stop_when=dissemination_complete,
                      allow_timeout=True)
        ok, bad = verify_t_interval_connectivity(
            adv.to_explicit(), T, horizon=res.rounds, raise_on_failure=False)
        assert ok, f"window {bad}"

    def test_path_stable_within_window(self):
        n = 10
        adv = WindowedThrottleAdversary(n, 4)
        adv.bind(lambda: np.arange(n, dtype=float))
        # within one window the backbone part is identical
        e1 = {tuple(e) for e in adv.edges(1)}
        e2 = {tuple(e) for e in adv.edges(2)}
        assert e1 <= e2 or e2 <= e1

    def test_invalid_T(self):
        with pytest.raises(ConfigurationError):
            WindowedThrottleAdversary(5, 0)

    def test_repeat_rounds_reuse_the_previous_rounds_csr(self):
        """The first T-1 rounds of a window carry the same two paths, so
        a token run reuses the previous round's CSR object there, and
        builds exactly where the edges change."""
        n = 16
        adv = WindowedThrottleAdversary(n, 4)
        adjacency, served = adv.adjacency, []

        def recording_adjacency(r):
            repeats = adv.adjacency_stats["repeat_hits"]
            csr = adjacency(r)
            served.append(
                (r, csr, adv.adjacency_stats["repeat_hits"] > repeats))
            return csr

        adv.adjacency = recording_adjacency
        nodes = [RandomTokenDissemination(i) for i in range(n)]
        res = Simulator(adv, nodes, rng=RngRegistry(1)).run(
            max_rounds=5000, stop_when=dissemination_complete,
            allow_timeout=True)
        stats = adv.adjacency_stats
        assert stats["repeat_hits"] > 0 and stats["span_hits"] == 0
        assert sum(stats.values()) == len(served) == res.rounds
        for (r0, prev, _), (r1, csr, repeat) in zip(served, served[1:]):
            assert r1 == r0 + 1
            assert (csr is prev) == repeat
            assert np.array_equal(adv.edges(r1), adv.edges(r0)) == repeat


class TestEdgeChurn:
    def test_backbone_always_present(self, rng):
        backbone = random_tree_graph(15, rng)
        adv = EdgeChurnAdversary(15, backbone, seed=2)
        backbone_set = {tuple(e) for e in adv.edges(1)}
        for e in backbone:
            assert tuple(e) in backbone_set

    def test_dwell_blocks_stable(self, rng):
        backbone = random_tree_graph(15, rng)
        adv = EdgeChurnAdversary(15, backbone, dwell=5, seed=2)
        # rounds 0..4 share a block; 5..9 another (r // dwell)
        assert (adv.edges(1) == adv.edges(4)).all()

    def test_promise_every_T(self, rng):
        backbone = random_tree_graph(15, rng)
        adv = EdgeChurnAdversary(15, backbone, seed=2)
        ok, _ = verify_t_interval_connectivity(adv, 7, horizon=30)
        assert ok

    def test_explicit_candidates(self, rng):
        backbone = random_tree_graph(6, rng)
        adv = EdgeChurnAdversary(6, backbone, candidates=[(0, 5)], p_on=1.0)
        assert [0, 5] in adv.edges(1).tolist()


class TestRepairedMobility:
    def test_positions_deterministic_and_bounded(self):
        adv = RepairedMobilityAdversary(20, T=2, seed=5)
        p1 = adv.positions(7)
        p2 = RepairedMobilityAdversary(20, T=2, seed=5).positions(7)
        assert np.allclose(p1, p2)
        assert (p1 >= 0).all() and (p1 <= 1).all()

    def test_positions_move(self):
        adv = RepairedMobilityAdversary(20, T=2, seed=5)
        assert not np.allclose(adv.positions(1), adv.positions(50))

    @pytest.mark.parametrize("T", [1, 2, 4])
    def test_promise(self, T):
        adv = RepairedMobilityAdversary(14, T=T, seed=3)
        ok, _ = verify_t_interval_connectivity(adv, T, horizon=5 * T + 8)
        assert ok

    def test_geometric_edges_respect_radius(self):
        adv = RepairedMobilityAdversary(20, T=2, radius=0.0001, seed=5)
        # With a tiny radius almost all edges come from the backbone path.
        assert len(adv.edges(1)) <= 2 * 20

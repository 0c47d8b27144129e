"""Tests for the T-interval verifier and the dynamic-diameter computation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Simulator
from repro.baselines import FloodToken
from repro.errors import IntervalConnectivityError, NotTerminatedError
from repro.dynamics import (
    ExplicitSchedule,
    FreshSpanningAdversary,
    FunctionSchedule,
    OverlapHandoffAdversary,
    StaticAdversary,
    complete_graph,
    dynamic_diameter,
    flooding_time_from,
    is_connected_spanning,
    line_graph,
    star_graph,
    verify_t_interval_connectivity,
)
from tests.conftest import fuzz_examples, window_intersection_edges


class TestIsConnectedSpanning:
    def test_connected(self):
        assert is_connected_spanning(line_graph(5), 5)

    def test_disconnected(self):
        assert not is_connected_spanning(np.array([[0, 1]]), 3)

    def test_empty_edges(self):
        assert not is_connected_spanning(np.empty((0, 2), int), 2)
        assert is_connected_spanning(np.empty((0, 2), int), 1)


class TestWindowIntersection:
    def test_direct_intersection(self):
        sched = ExplicitSchedule(3, [[(0, 1), (1, 2)], [(1, 2)]])
        inter = window_intersection_edges(sched, 1, 2)
        assert inter.tolist() == [[1, 2]]

    def test_empty_intersection(self):
        sched = ExplicitSchedule(3, [[(0, 1), (1, 2)], [(0, 2)]])
        inter = window_intersection_edges(sched, 1, 2)
        assert inter.shape == (0, 2)


class TestVerifier:
    def test_accepts_valid_schedule(self):
        adv = OverlapHandoffAdversary(12, 3, seed=1)
        ok, bad = verify_t_interval_connectivity(adv, 3, horizon=30)
        assert ok and bad is None

    def test_detects_violation_with_window_position(self):
        # rounds: connected, connected, then a window [2,3] with empty
        # intersection
        rounds = [
            [(0, 1), (1, 2)],
            [(0, 1), (1, 2)],
            [(0, 2), (1, 2)],
        ]
        sched = ExplicitSchedule(3, rounds)
        ok, bad = verify_t_interval_connectivity(
            sched, 2, horizon=3, raise_on_failure=False)
        assert not ok
        assert bad == 2

    def test_raises_with_details(self):
        sched = ExplicitSchedule(3, [[(0, 1)], [(1, 2)]])
        with pytest.raises(IntervalConnectivityError) as exc:
            verify_t_interval_connectivity(sched, 2, horizon=2)
        assert exc.value.window_start == 1
        assert exc.value.window_length == 2

    def test_horizon_shorter_than_T_vacuous(self):
        sched = ExplicitSchedule(3, [[(0, 1)]])
        ok, _ = verify_t_interval_connectivity(sched, 5, horizon=1)
        assert ok

    def test_single_node_always_ok(self):
        sched = ExplicitSchedule(1, [[]])
        ok, _ = verify_t_interval_connectivity(sched, 1, horizon=1)
        assert ok

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=500))
    def test_agrees_with_direct_intersection(self, n, T, seed):
        """The incremental verifier matches the brute-force oracle."""
        rng = np.random.default_rng(seed)
        horizon = 3 * T + 2
        rounds = []
        for _ in range(horizon):
            m = rng.integers(0, n * 2)
            u = rng.integers(0, n, size=m)
            v = rng.integers(0, n, size=m)
            keep = u != v
            rounds.append(np.stack([u[keep], v[keep]], axis=1))
        sched = ExplicitSchedule(n, rounds)
        ok_fast, bad_fast = verify_t_interval_connectivity(
            sched, T, horizon, raise_on_failure=False)
        # brute-force: every window via direct intersection
        ok_slow, bad_slow = True, None
        for start in range(1, horizon - T + 2):
            inter = window_intersection_edges(sched, start, T)
            if not is_connected_spanning(inter, n):
                ok_slow, bad_slow = False, start
                break
        assert ok_fast == ok_slow
        assert bad_fast == bad_slow


def _oracle_first_bad_window(schedule, T, horizon):
    """Earliest window start whose direct intersection is not a
    connected spanning graph, or None."""
    for start in range(1, horizon - T + 2):
        inter = window_intersection_edges(schedule, start, T)
        if not is_connected_spanning(inter, schedule.num_nodes):
            return start
    return None


class TestVerifierDifferential:
    """The chunked verifier against the direct per-window oracle, on
    horizons longer than its 256-round chunk."""

    @settings(max_examples=fuzz_examples(25), deadline=None)
    @given(n=st.integers(2, 9), T=st.sampled_from([1, 2, 3, 4, 8]),
           horizon=st.integers(250, 530), seed=st.integers(0, 2 ** 16),
           breaks=st.lists(st.one_of(st.integers(245, 270),
                                     st.integers(500, 525),
                                     st.integers(1, 530)), max_size=3),
           raise_on_failure=st.booleans())
    def test_matches_direct_oracle(self, n, T, horizon, seed, breaks,
                                   raise_on_failure):
        """Handoff rounds keep the promise; dropping a few edges from a
        few rounds (often next to a chunk boundary) may break it."""
        adversary = OverlapHandoffAdversary(n, T, noise_edges=1, seed=seed)
        rng = np.random.default_rng(seed)
        rounds = [adversary.edges(r) for r in range(1, horizon + 1)]
        for r in breaks:
            if r <= horizon and len(rounds[r - 1]):
                keep = rng.random(len(rounds[r - 1])) < 0.6
                rounds[r - 1] = rounds[r - 1][keep]
        schedule = ExplicitSchedule(n, rounds)
        expected = _oracle_first_bad_window(schedule, T, horizon)
        if expected is None or not raise_on_failure:
            assert verify_t_interval_connectivity(
                schedule, T, horizon, raise_on_failure=raise_on_failure) \
                == (expected is None, expected)
        else:
            with pytest.raises(IntervalConnectivityError) as exc:
                verify_t_interval_connectivity(schedule, T, horizon)
            assert exc.value.window_start == expected
            assert exc.value.window_length == T

    @pytest.mark.parametrize("first_bad", [254, 255, 256, 257, 258])
    def test_violation_straddling_chunk_boundary(self, first_bad):
        """Only window ``[first_bad, first_bad+3]`` (T=4) loses its
        spanning intersection; it may straddle rounds 256 and 257."""
        n, T, horizon = 4, 4, 600
        # A 4-cycle every round, except that the window's first round
        # lacks (1, 2) and its last round lacks (0, 3): a window holding
        # one of the two rounds keeps a spanning path, one holding both
        # keeps only (0, 1) and (2, 3).
        rounds = [[(0, 1), (1, 2), (2, 3), (0, 3)]] * horizon
        rounds[first_bad - 1] = [(0, 1), (2, 3), (0, 3)]
        rounds[first_bad + T - 2] = [(0, 1), (1, 2), (2, 3)]
        schedule = ExplicitSchedule(n, rounds)
        expected = _oracle_first_bad_window(schedule, T, horizon)
        assert expected == first_bad
        assert verify_t_interval_connectivity(
            schedule, T, horizon, raise_on_failure=False) == (False, expected)
        with pytest.raises(IntervalConnectivityError) as exc:
            verify_t_interval_connectivity(schedule, T, horizon)
        assert (exc.value.window_start, exc.value.window_length) == (
            expected, T)

    @pytest.mark.parametrize("ring", [False, True])
    def test_window_longer_than_a_chunk(self, ring):
        """T = 300: every window spans two or three chunks, so its runs
        are carried across one or two chunk boundaries.  Dropping one
        line edge at round 450 breaks every window holding that round;
        dropping one ring edge breaks none."""
        n, T, horizon = 5, 300, 900
        graph = [(i, (i + 1) % n) for i in range(n if ring else n - 1)]
        rounds = [graph] * horizon
        rounds[449] = graph[1:]
        schedule = ExplicitSchedule(n, rounds)
        expected = _oracle_first_bad_window(schedule, T, horizon)
        assert expected == (None if ring else 450 - T + 1)
        assert verify_t_interval_connectivity(
            schedule, T, horizon, raise_on_failure=False) == (
            expected is None, expected)

    def test_carried_run_stays_apart_from_the_previous_key(self):
        """Key 2's run carried into rounds 257.. sorts right after key
        1's entry for round 512, the second chunk's last round; the two
        runs must not join.  Edge (0, 2) is present only in rounds
        255..257 and (1, 2) lacks round 257, so window [254, 257] is
        the first without a spanning intersection."""
        n, T, horizon = 3, 4, 600
        rounds = [[(0, 1), (1, 2)]] * horizon
        rounds[254:256] = [[(0, 1), (0, 2), (1, 2)]] * 2
        rounds[256] = [(0, 1), (0, 2)]
        schedule = ExplicitSchedule(n, rounds)
        expected = _oracle_first_bad_window(schedule, T, horizon)
        assert expected == 254
        assert verify_t_interval_connectivity(
            schedule, T, horizon, raise_on_failure=False) == (False, 254)

    def test_keys_packed_past_int32(self):
        """At n = 3000 the packed entries of the top edges exceed
        ``2**31``; dropping the top line edge at round 4 breaks the
        windows holding round 4."""
        n, T, horizon = 3000, 2, 6
        line = line_graph(n)
        assert (int(line[-1, 0]) * n + int(line[-1, 1])) * 258 > 2 ** 31
        rounds = [line] * horizon
        rounds[3] = line[:-1]
        schedule = ExplicitSchedule(n, rounds)
        expected = _oracle_first_bad_window(schedule, T, horizon)
        assert expected == 3
        assert verify_t_interval_connectivity(
            schedule, T, horizon, raise_on_failure=False) == (False, 3)
        intact = ExplicitSchedule(n, [line] * horizon)
        assert _oracle_first_bad_window(intact, T, horizon) is None
        assert verify_t_interval_connectivity(intact, T, horizon) == (
            True, None)

    def test_runs_carried_across_chunks(self):
        """A static graph keeps every run alive across every chunk."""
        sched = StaticAdversary(6, line_graph(6))
        assert verify_t_interval_connectivity(sched, 8, 1000) == (True, None)

    def test_single_node_long_horizon(self):
        sched = ExplicitSchedule(1, [[]] * 600)
        assert verify_t_interval_connectivity(sched, 3, 600) == (True, None)

    def test_horizon_shorter_than_T_never_reads_rounds(self):
        sched = FunctionSchedule(3, lambda r: 1 / 0)
        assert verify_t_interval_connectivity(sched, 5, 4) == (True, None)


class TestFloodingTime:
    def test_line_exact(self):
        sched = StaticAdversary(10, line_graph(10))
        assert flooding_time_from(sched) == 9

    def test_star_two_hops(self):
        sched = StaticAdversary(10, star_graph(10))
        assert flooding_time_from(sched) == 2

    def test_complete_one_hop(self):
        sched = StaticAdversary(10, complete_graph(10))
        assert flooding_time_from(sched) == 1

    def test_single_node_zero(self):
        sched = ExplicitSchedule(1, [[]], cycle=True)
        assert flooding_time_from(sched) == 0

    def test_disconnected_raises(self):
        sched = ExplicitSchedule(3, [[(0, 1)]], cycle=True)
        with pytest.raises(NotTerminatedError):
            flooding_time_from(sched, max_rounds=20)

    def test_dynamic_diameter_max_over_starts(self):
        adv = FreshSpanningAdversary(20, seed=3)
        d = dynamic_diameter(adv, start_rounds=(1, 5, 9))
        assert d >= flooding_time_from(adv, start_round=5)

    def test_start_rounds_empty_rejected(self):
        with pytest.raises(ValueError):
            dynamic_diameter(StaticAdversary(4, line_graph(4)),
                             start_rounds=())

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=24),
           st.integers(min_value=0, max_value=100))
    def test_matches_flood_token_simulation(self, n, seed):
        """The closure computation agrees with actual protocol floods:
        the slowest of the *n* single-source token floods."""
        closure = flooding_time_from(FreshSpanningAdversary(n, seed=seed))
        slowest = 0
        for source in range(n):
            nodes = [FloodToken(i, informed=(i == source)) for i in range(n)]
            result = Simulator(FreshSpanningAdversary(n, seed=seed), nodes).run(
                max_rounds=4 * n, until="decided")
            slowest = max(slowest, result.metrics.last_decision_round or 0)
        assert slowest == closure


class TestVerifierCatchesBrokenHandoff:
    """Mutation test: an OverlapHandoff-style adversary WITHOUT the
    overlap must violate T-interval connectivity (and the verifier must
    say so) — this guards both the verifier and the reasoning behind the
    handoff construction."""

    def test_no_overlap_violates_promise(self):
        import numpy as np
        from repro.dynamics import FunctionSchedule
        from repro.dynamics.topologies import random_tree_graph

        n, T = 12, 3

        def broken(r):
            w = (r - 1) // T
            rng = np.random.default_rng(w)
            return random_tree_graph(n, rng)  # fresh tree, NO overlap

        sched = FunctionSchedule(n, broken, interval=T)
        ok, bad = verify_t_interval_connectivity(
            sched, T, horizon=6 * T, raise_on_failure=False)
        assert not ok
        # the violated window must straddle a window boundary
        assert bad is not None
        assert (bad - 1) // T != (bad + T - 2) // T

    def test_fixed_by_adding_overlap(self):
        from repro.dynamics import OverlapHandoffAdversary

        adv = OverlapHandoffAdversary(12, 3, seed=0)
        ok, _ = verify_t_interval_connectivity(adv, 3, horizon=18)
        assert ok

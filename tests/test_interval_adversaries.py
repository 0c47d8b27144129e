"""Tests for the oblivious T-interval adversaries: promises, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.dynamics import (
    AlternatingMatchingsAdversary,
    FreshSpanningAdversary,
    OverlapHandoffAdversary,
    StaticAdversary,
    line_graph,
    random_noise_edges,
    verify_t_interval_connectivity,
)
from repro.dynamics.verifier import is_connected_spanning
from tests.conftest import window_intersection_edges


class TestStaticAdversary:
    def test_same_graph_every_round(self):
        adv = StaticAdversary(5, line_graph(5))
        assert (adv.edges(1) == adv.edges(100)).all()

    def test_interval_none_means_every_T(self):
        adv = StaticAdversary(5, line_graph(5))
        for T in [1, 3, 7]:
            ok, _ = verify_t_interval_connectivity(adv, T, horizon=20)
            assert ok


class TestOverlapHandoff:
    @pytest.mark.parametrize("T", [1, 2, 3, 5, 8])
    def test_promise_holds(self, T):
        adv = OverlapHandoffAdversary(20, T, noise_edges=3, seed=4)
        ok, _ = verify_t_interval_connectivity(adv, T, horizon=6 * T + 10)
        assert ok

    def test_windows_use_fresh_backbones(self):
        T = 3
        adv = OverlapHandoffAdversary(30, T, seed=2)
        first = {tuple(e) for e in adv.edges(1)}
        later = {tuple(e) for e in adv.edges(T * 10 + 1)}
        assert first != later

    def test_promise_is_exactly_T_not_much_more(self):
        # Consecutive backbones are independent random trees, so a window
        # of length 3T should (for this seed) have no common spanning
        # subgraph: the adversary really is "only" T-interval connected.
        T = 3
        adv = OverlapHandoffAdversary(30, T, seed=2)
        inter = window_intersection_edges(adv, 1, 3 * T)
        assert not is_connected_spanning(inter, 30)

    def test_deterministic(self):
        a = OverlapHandoffAdversary(16, 4, noise_edges=2, seed=9)
        b = OverlapHandoffAdversary(16, 4, noise_edges=2, seed=9)
        for r in [1, 4, 5, 17]:
            assert (a.edges(r) == b.edges(r)).all()


class TestFreshSpanning:
    def test_every_round_connected(self):
        adv = FreshSpanningAdversary(15, noise_edges=2, seed=3)
        for r in range(1, 12):
            assert is_connected_spanning(adv.edges(r), 15)

    def test_changes_every_round(self):
        adv = FreshSpanningAdversary(15, seed=3)
        assert adv.edges(1).tolist() != adv.edges(2).tolist()

    def test_one_interval_promise(self):
        adv = FreshSpanningAdversary(15, seed=3)
        ok, _ = verify_t_interval_connectivity(adv, 1, horizon=25)
        assert ok


class TestAlternatingMatchings:
    def test_two_interval_promise(self):
        adv = AlternatingMatchingsAdversary(9)
        ok, _ = verify_t_interval_connectivity(adv, 2, horizon=40)
        assert ok

    def test_even_rounds_drop_one_edge(self):
        adv = AlternatingMatchingsAdversary(9)
        assert len(adv.edges(1)) == 9
        assert len(adv.edges(2)) == 8

    def test_requires_three_nodes(self):
        with pytest.raises(ConfigurationError):
            AlternatingMatchingsAdversary(2)


class TestNoiseEdges:
    def test_no_self_loops(self, rng):
        edges = random_noise_edges(10, 200, rng)
        assert (edges[:, 0] != edges[:, 1]).all()

    def test_zero_count(self, rng):
        assert random_noise_edges(10, 0, rng).shape == (0, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=30),
           st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=10**6))
    def test_endpoints_in_range(self, n, count, seed):
        edges = random_noise_edges(n, count, np.random.default_rng(seed))
        if count:
            assert edges.min() >= 0 and edges.max() < n
            assert (edges[:, 0] != edges[:, 1]).all()


class TestPromisePropertyBased:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=16),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=1000))
    def test_handoff_promise_random_params(self, n, T, seed):
        adv = OverlapHandoffAdversary(n, T, noise_edges=seed % 3, seed=seed)
        ok, bad = verify_t_interval_connectivity(
            adv, T, horizon=4 * T + 6, raise_on_failure=False)
        assert ok, f"window at {bad} violated (n={n}, T={T}, seed={seed})"

"""Unit + property tests for the static topology zoo."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.dynamics import (
    StaticAdversary,
    TOPOLOGY_BUILDERS,
    build_topology,
    complete_graph,
    dynamic_diameter,
    line_graph,
    random_regular_expander,
    random_tree_graph,
    ring_graph,
    ring_of_cliques,
    star_graph,
)
from repro.dynamics.verifier import is_connected_spanning


def diameter_of(edges, n):
    return dynamic_diameter(StaticAdversary(n, edges))


class TestShapes:
    def test_line_edge_count_and_diameter(self):
        edges = line_graph(6)
        assert len(edges) == 5
        assert diameter_of(edges, 6) == 5

    def test_single_node_graphs(self):
        assert line_graph(1).shape == (0, 2)
        assert star_graph(1).shape == (0, 2)

    def test_ring(self):
        edges = ring_graph(6)
        assert len(edges) == 6
        assert diameter_of(edges, 6) == 3
        with pytest.raises(ConfigurationError):
            ring_graph(2)

    def test_star_center(self):
        edges = star_graph(5, center=2)
        assert len(edges) == 4
        assert diameter_of(edges, 5) == 2
        with pytest.raises(ConfigurationError):
            star_graph(5, center=5)

    def test_complete(self):
        edges = complete_graph(5)
        assert len(edges) == 10
        assert diameter_of(edges, 5) == 1

    def test_ring_of_cliques_diameter_sweep(self):
        n = 48
        diam_2 = diameter_of(ring_of_cliques(n, 2), n)
        diam_8 = diameter_of(ring_of_cliques(n, 8), n)
        diam_48 = diameter_of(ring_of_cliques(n, 48), n)
        assert diam_2 < diam_8 < diam_48
        assert diam_48 == n // 2  # degenerates to a ring

    def test_ring_of_cliques_validation(self):
        with pytest.raises(ConfigurationError):
            ring_of_cliques(4, 5)
        assert is_connected_spanning(ring_of_cliques(10, 1), 10)


class TestRandomBuilders:
    def test_random_tree_is_tree(self, rng):
        edges = random_tree_graph(20, rng)
        assert len(edges) == 19
        assert is_connected_spanning(edges, 20)

    def test_expander_regular_and_connected(self, rng):
        n, k = 40, 4
        edges = random_regular_expander(n, k, rng)
        assert is_connected_spanning(edges, n)
        deg = np.zeros(n, int)
        np.add.at(deg, edges[:, 0], 1)
        np.add.at(deg, edges[:, 1], 1)
        assert deg.max() <= k  # configuration model never exceeds k

    def test_expander_validation(self, rng):
        with pytest.raises(ConfigurationError):
            random_regular_expander(5, 5, rng)
        with pytest.raises(ConfigurationError):
            random_regular_expander(5, 3, rng)  # odd n*degree

    def test_expander_low_diameter(self, rng):
        edges = random_regular_expander(128, 4, rng)
        assert diameter_of(edges, 128) <= 10

    def test_expander_low_diameter_at_512(self):
        edges = random_regular_expander(512, 4, np.random.default_rng(1))
        assert diameter_of(edges, 512) < 16


class TestRegistry:
    def test_all_builders_produce_connected_graphs(self, rng):
        for name in TOPOLOGY_BUILDERS:
            n = 16
            edges = build_topology(name, n, rng)
            assert is_connected_spanning(edges, n), name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            build_topology("mobius", 8)

    def test_default_rng(self):
        a = build_topology("random_tree", 12)
        b = build_topology("random_tree", 12)
        assert (a == b).all()  # deterministic default


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=40))
    def test_line_always_spanning(self, n):
        assert is_connected_spanning(line_graph(n), n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=10**6))
    def test_random_tree_always_tree(self, n, seed):
        rng = np.random.default_rng(seed)
        edges = random_tree_graph(n, rng)
        assert len(edges) == n - 1
        assert is_connected_spanning(edges, n)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=30),
           st.integers(min_value=1, max_value=30))
    def test_ring_of_cliques_always_connected(self, n, m):
        if m > n:
            m = n
        edges = ring_of_cliques(n, m)
        assert is_connected_spanning(edges, n)

"""Unit tests for the deterministic RNG registry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simnet.rng import RngRegistry


class TestDeterminism:
    def test_same_seed_same_streams(self):
        a = RngRegistry(7).for_node("sketch", 3).integers(1 << 30, size=8)
        b = RngRegistry(7).for_node("sketch", 3).integers(1 << 30, size=8)
        assert (a == b).all()

    def test_different_seed_different_streams(self):
        a = RngRegistry(7).for_node("sketch", 3).integers(1 << 30, size=8)
        b = RngRegistry(8).for_node("sketch", 3).integers(1 << 30, size=8)
        assert not (a == b).all()

    def test_component_streams_independent_of_each_other(self):
        reg = RngRegistry(7)
        a = reg.for_component("adversary").integers(1 << 30, size=8)
        b = reg.for_component("noise").integers(1 << 30, size=8)
        assert not (a == b).all()

    def test_draw_order_between_components_does_not_matter(self):
        r1 = RngRegistry(3)
        _ = r1.for_component("a").integers(1 << 30, size=100)
        x1 = r1.for_component("b").integers(1 << 30, size=4)
        r2 = RngRegistry(3)
        x2 = r2.for_component("b").integers(1 << 30, size=4)
        assert (x1 == x2).all()


class TestStreams:
    def test_repeated_get_continues_stream(self):
        reg = RngRegistry(1)
        g = reg.for_node("n", 0)
        first = g.integers(1 << 30, size=4)
        again = reg.for_node("n", 0).integers(1 << 30, size=4)
        assert not (first == again).all()  # continued, not restarted

    def test_per_node_independence(self):
        reg = RngRegistry(1)
        a = reg.for_node("n", 0).random(64)
        b = reg.for_node("n", 1).random(64)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.5


class TestValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RngRegistry(-1)

    def test_negative_node_id_rejected(self):
        with pytest.raises(ConfigurationError):
            RngRegistry(0).for_node("x", -2)

    def test_seed_property(self):
        assert RngRegistry(42).seed == 42

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro import RngRegistry, Simulator
from repro.dynamics import (
    OverlapHandoffAdversary,
    StaticAdversary,
    line_graph,
    random_regular_expander,
)
from repro.simnet.engine import set_profile_default


@pytest.fixture
def rng():
    """A deterministic numpy generator for test-local randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_line():
    """Static 10-node line schedule (d = 9)."""
    return StaticAdversary(10, line_graph(10))


@pytest.fixture
def small_expander(rng):
    """Static 32-node 4-regular expander schedule (small d)."""
    return StaticAdversary(32, random_regular_expander(32, 4, rng))


@pytest.fixture
def handoff_t2():
    """48-node overlap-handoff adversary with T=2."""
    return OverlapHandoffAdversary(48, 2, noise_edges=4, seed=99)


def run_quiescent(schedule, nodes, seed=1, max_rounds=20_000, window=48):
    """Run stabilizing nodes until quiescent; return the RunResult."""
    sim = Simulator(schedule, nodes, rng=RngRegistry(seed))
    return sim.run(max_rounds=max_rounds, until="quiescent",
                   quiescence_window=window)


@pytest.fixture
def quiescent_runner():
    """Expose the helper as a fixture for terser tests."""
    return run_quiescent


@contextmanager
def profiling():
    """Per-phase timing on for the simulators constructed inside."""
    set_profile_default(True)
    try:
        yield
    finally:
        set_profile_default(False)

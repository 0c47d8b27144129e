"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro import RngRegistry, Simulator
from repro.simnet.node import Algorithm
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


class FunctionalNode(Algorithm):
    """Adapter turning a pair of callables into an :class:`Algorithm`,
    for tiny ad-hoc protocols::

        node = FunctionalNode(3, compose=lambda s, ctx: s["x"],
                              deliver=my_deliver, state={"x": 0})
    """

    name = "functional"

    def __init__(self, node_id, compose, deliver, state=None):
        super().__init__(node_id)
        self.state = dict(state or {})
        self._compose = compose
        self._deliver = deliver

    def compose(self, ctx):
        return self._compose(self.state, ctx)

    def deliver(self, ctx, inbox):
        self._deliver(self.state, ctx, inbox)


def fuzz_examples(default):
    """A property's ``max_examples``: ``REPRO_FUZZ_EXAMPLES`` when set
    (``make fuzz``), else tier 1's *default*."""
    return int(os.environ.get("REPRO_FUZZ_EXAMPLES", default))


def window_intersection_edges(schedule, start, T):
    """Edges present in **every** round of ``[start, start+T-1]``.

    Direct (non-incremental) computation: the oracle the fast verifier
    is property-tested against.
    """
    n = schedule.num_nodes
    common = None
    for r in range(start, start + T):
        keys = {int(u) * n + int(v) for u, v in schedule.edges(r)}
        common = keys if common is None else (common & keys)
        if not common:
            break
    common = common or set()
    out = np.array(sorted((k // n, k % n) for k in common), dtype=np.int32)
    return out.reshape(-1, 2)

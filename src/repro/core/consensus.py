"""Consensus in ``O(d)`` rounds — no ``Ω(N)`` term (RECONSTRUCTION).

Consensus reduces to an idempotent aggregate by electing the
minimum-id proposer: the aggregate is the **min over ``(id, proposal)``
pairs** (lexicographic), whose global value is the smallest node id
together with its input.  Every node decides that proposal:

* *validity* — the decision is the input of the minimum-id node;
* *agreement* — all final decisions equal the same global aggregate
  (termination/stabilization exactly as in
  :mod:`repro.core.termination`);
* *complexity* — ``O(d)`` rounds, ``O(log N + |value|)``-bit messages.

:class:`SublinearConsensus` is the zero-knowledge stabilizing variant;
:class:`ConsensusKnownBound` halts under a known bound ``D >= d``;
run with ``rounds_bound = N - 1`` it is the folklore known-``N`` flood
consensus baseline (``Θ(N)`` rounds, same message pattern).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..simnet.message import NodeId
from .aggregation import Aggregate, AggregateNode, KnownBoundAggregateNode

__all__ = ["SublinearConsensus", "ConsensusKnownBound", "MinPairAggregate"]


class MinPairAggregate(Aggregate):
    """Lexicographic minimum over ``(id, proposal)`` pairs.

    Ids are unique in any valid run, but the merge is still made total
    (ties broken on the proposal's ``repr``, which is deterministic even
    for proposals of incomparable types) so the aggregate laws hold
    unconditionally — the property tests exercise duplicate-id states.

    Encodes the id as :class:`~repro.simnet.message.NodeId` so bandwidth
    accounting charges the model's ``Θ(log N)`` id width.
    """

    def merge(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        if a[0] != b[0]:
            return a if a[0] < b[0] else b
        return a if repr(a[1]) <= repr(b[1]) else b

    def encode(self, state) -> Any:
        return (NodeId(state[0]), state[1])

    def decode(self, payload):
        return (int(payload[0]), payload[1])


class SublinearConsensus(AggregateNode):
    """Stabilizing consensus with no knowledge of ``N`` or ``d``.

    Parameters
    ----------
    node_id:
        Node id (doubles as the election key).
    proposal:
        The node's input value.
    """

    name = "sublinear_consensus"

    def __init__(self, node_id: int, proposal: Any, initial_window: int = 1,
                 window_growth: int = 2) -> None:
        super().__init__(node_id, MinPairAggregate(),
                         initial_window=initial_window,
                         window_growth=window_growth)
        self.proposal = proposal

    def make_contribution(self, rng: np.random.Generator):
        return (self.node_id, self.proposal)

    def extract_output(self, state):
        return state[1]


class ConsensusKnownBound(KnownBoundAggregateNode):
    """Halting consensus under a known dynamic-diameter bound ``D >= d``."""

    name = "consensus_known_bound"

    def __init__(self, node_id: int, proposal: Any,
                 rounds_bound: int) -> None:
        super().__init__(node_id, MinPairAggregate(), rounds_bound)
        self.proposal = proposal

    def make_contribution(self, rng: np.random.Generator):
        return (self.node_id, self.proposal)

    def extract_output(self, state):
        return state[1]

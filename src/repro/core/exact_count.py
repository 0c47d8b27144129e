"""Exact Count in ``O(d)`` rounds — no ``Ω(N)`` term (RECONSTRUCTION).

The exact count is extracted from the **id-set union aggregate**: every
node contributes ``{own id}``; the global aggregate is the full id set,
whose size is ``N``.  Union of sets is idempotent, so the whole framework
of :mod:`repro.core.aggregation` + :mod:`repro.core.termination` applies:

* :class:`ExactCount` — stabilizing, zero-knowledge, final (correct,
  unanimous) decisions by ``O(d)`` rounds;
* :class:`ExactCountKnownBound` — halting after a known bound ``D >= d``.

Bandwidth regime.  Messages carry id sets (up to ``N·Θ(log N)`` bits) —
the **same unbounded-bandwidth regime as the KLO baseline**
(:class:`repro.baselines.klo.KCommitteeCount`), whose grant/request floods
also ship ``Θ(N)``-entry sets.  The apples-to-apples comparison of
experiment T1 is therefore: identical message regime, ``Θ(N²)`` rounds
(KLO, any topology) vs ``O(d)`` rounds (this algorithm) — the abstract's
"no ``Ω(N)`` term under constant T" claim in its purest form.  For the
bandwidth-frugal regime see :mod:`repro.core.approx_count`, and F6
quantifies the bit costs of all of them.
"""

from __future__ import annotations

import numpy as np

from ..simnet.batch import IdSetBatchKernel, aggregate_batch_kernel
from ..simnet.message import NodeId
from .aggregation import (
    AggregateNode,
    KnownBoundAggregateNode,
    SetUnionAggregate,
)

__all__ = ["ExactCount", "ExactCountKnownBound", "IdSetAggregate"]


class IdSetAggregate(SetUnionAggregate):
    """Set union whose encoding tags members as node ids for bit costing."""

    def encode(self, state: frozenset):
        return tuple(NodeId(x) for x in sorted(state))


class ExactCount(AggregateNode):
    """Stabilizing exact Count with no knowledge of ``N`` or ``d``.

    Output: the exact integer ``N`` (the size of the believed-global id
    set).  Final decisions are exact and unanimous; stabilization within
    ``O(d)`` rounds (see :mod:`repro.core.termination`).
    """

    name = "exact_count"

    def __init__(self, node_id: int, initial_window: int = 1,
                 window_growth: int = 2) -> None:
        super().__init__(node_id, IdSetAggregate(),
                         initial_window=initial_window,
                         window_growth=window_growth)

    @property
    def progress(self) -> float:
        """Heard-set size (what adaptive throttling adversaries sort on)."""
        return float(len(self.state) if self.state is not None else 0)

    def make_contribution(self, rng: np.random.Generator) -> frozenset:
        return frozenset((self.node_id,))

    def extract_output(self, state: frozenset) -> int:
        return len(state)

    @classmethod
    def __batch_kernel__(cls, nodes):
        """Bitset-union batch kernel (see :mod:`repro.simnet.batch`)."""
        if cls is not ExactCount:
            return None
        return aggregate_batch_kernel(IdSetBatchKernel.build, nodes,
                                      known_bound=False)


class ExactCountKnownBound(KnownBoundAggregateNode):
    """Halting exact Count under a known dynamic-diameter bound ``D >= d``."""

    name = "exact_count_known_bound"

    def __init__(self, node_id: int, rounds_bound: int) -> None:
        super().__init__(node_id, IdSetAggregate(), rounds_bound)

    def make_contribution(self, rng: np.random.Generator) -> frozenset:
        return frozenset((self.node_id,))

    def extract_output(self, state: frozenset) -> int:
        return len(state)

    @classmethod
    def __batch_kernel__(cls, nodes):
        """Bitset-union batch kernel (see :mod:`repro.simnet.batch`)."""
        if cls is not ExactCountKnownBound:
            return None
        return aggregate_batch_kernel(IdSetBatchKernel.build, nodes,
                                      known_bound=True)

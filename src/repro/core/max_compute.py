"""Max in ``O(d)`` rounds — no ``Ω(N)`` term (RECONSTRUCTION).

The Max problem is the cleanest illustration of the reconstructed
framework: the maximum is itself an idempotent aggregate, so

* :class:`SublinearMax` = max-aggregation + quiescence controller →
  stabilizing decisions, final decision by ``O(d)`` rounds, **zero
  knowledge** of ``N`` or ``d``;
* :class:`MaxKnownBound` = max-aggregation + a known bound ``D >= d`` →
  irrevocable halting after exactly ``D`` rounds.

Contrast with :class:`repro.baselines.flooding.FloodMax` run with the
standard known-``N`` assumption (``rounds_bound = N - 1``): same messages,
but ``Θ(N)`` rounds even when ``d`` is constant.  Experiments T1/F3
measure exactly this gap.
"""

from __future__ import annotations

import numpy as np

from ..simnet.batch import MaxBatchKernel, aggregate_batch_kernel
from .aggregation import AggregateNode, KnownBoundAggregateNode, MaxAggregate

__all__ = ["SublinearMax", "MaxKnownBound"]


class SublinearMax(AggregateNode):
    """Stabilizing Max with no knowledge of ``N`` or ``d``.

    Parameters
    ----------
    node_id:
        Node id.
    value:
        The node's input (any totally ordered value).
    initial_window / window_growth:
        Quiescence-controller knobs (see
        :class:`~repro.core.termination.QuiescenceController`); the
        defaults give final decisions within ``~3d`` rounds.
    """

    name = "sublinear_max"

    def __init__(self, node_id: int, value, initial_window: int = 1,
                 window_growth: int = 2) -> None:
        super().__init__(node_id, MaxAggregate(),
                         initial_window=initial_window,
                         window_growth=window_growth)
        self.value = value

    def make_contribution(self, rng: np.random.Generator):
        return self.value

    def extract_output(self, state):
        return state

    @classmethod
    def __batch_kernel__(cls, nodes):
        """Segment-max batch kernel (see :mod:`repro.simnet.batch`)."""
        if cls is not SublinearMax:
            return None
        return aggregate_batch_kernel(MaxBatchKernel.build, nodes,
                                      known_bound=False)


class MaxKnownBound(KnownBoundAggregateNode):
    """Halting Max under a known dynamic-diameter bound ``D >= d``.

    Decides (and halts) after exactly ``rounds_bound`` rounds — correct by
    flood closure.  Round complexity ``D``: sublinear in ``N`` whenever
    the known bound is.
    """

    name = "max_known_bound"

    def __init__(self, node_id: int, value, rounds_bound: int) -> None:
        super().__init__(node_id, MaxAggregate(), rounds_bound)
        self.value = value

    def make_contribution(self, rng: np.random.Generator):
        return self.value

    def extract_output(self, state):
        return state

    @classmethod
    def __batch_kernel__(cls, nodes):
        """Segment-max batch kernel (see :mod:`repro.simnet.batch`)."""
        if cls is not MaxKnownBound:
            return None
        return aggregate_batch_kernel(MaxBatchKernel.build, nodes,
                                      known_bound=True)

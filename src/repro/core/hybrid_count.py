"""HybridCount: halting, zero-knowledge, w.h.p.-exact Count in ``O(N)``.

RECONSTRUCTION-ADJACENT (labelled extension, DESIGN.md S8).  The
stabilizing core achieves ``O(d)`` but never halts; KLO halts with zero
knowledge but pays ``Θ(N²)``.  This algorithm sits between them and
shows what the sketch machinery buys for *halting*:

Protocol.  Every node aggregates, in one combined state, (a) the id-set
union and (b) an exponential-minima count sketch: it is an
:class:`~repro.core.aggregation.AggregateNode` over
``ProductAggregate(IdSetAggregate(), MinVectorAggregate(width))``, and
its one addition is the halt rule.  At round ``r`` a node halts and
outputs ``|ids|`` as soon as::

    r >= c · N̂(r)        (N̂ = the sketch estimate of its current state)

Why this halts correctly w.h.p. (proof sketch, tested empirically):

* *The rule cannot fire early.*  By the per-round connectivity cut
  argument, after ``r`` rounds a node has merged contributions from at
  least ``min(N, r+1)`` nodes; the sketch estimate of a ``m``-contribution
  state is ``≥ m(1-ε)`` w.h.p. (uniformly over the ``≤ cN`` relevant
  rounds, by a union bound over the exact Gamma tail).  So while the
  heard-set is still growing, ``N̂(r) ≥ (r+1)(1-ε)`` and the trigger
  ``r ≥ c·N̂(r)`` is impossible whenever ``c(1-ε) > 1``.
* *The rule fires by ``≈ c·N(1+ε)``.*  Once the heard-set is complete
  (round ``≤ N-1``), ``N̂`` freezes at a value ``≤ N(1+ε)`` w.h.p., and
  the trigger fires at ``r = ⌈c·N̂⌉ = O(N)``.
* *When it fires, the output is exact.*  Firing at ``r ≥ c·N̂ ≥
  c(1-ε)·N > N - 1 ≥ d`` means flood closure has completed, so the
  id-set is the full node set.

With the default ``c = 1.5`` and sketch width for ``ε = 0.2, δ = 1e-4``,
the failure probability is far below a percent per run.  Complexity:
``≈ 1.5·N`` rounds — linear, halting, no knowledge: a factor-``N``
improvement over the KLO baseline in the same (unbounded-bandwidth,
zero-knowledge, halting) regime, at the price of a w.h.p. (rather than
deterministic) guarantee.  Experiment X1 measures the resulting
"cost-of-halting" ladder: ``O(d)`` stabilizing < ``O(N)`` halting-whp <
``Θ(N²)`` halting-deterministic.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from .._validate import require_positive_float
from ..errors import ConfigurationError
from ..simnet.node import RoundContext
from .aggregation import (
    AggregateNode,
    IdSetAggregate,
    MinVectorAggregate,
    ProductAggregate,
)
from .sketches import ExponentialCountSketch

__all__ = ["HybridCount"]


class HybridCount(AggregateNode):
    """Halting w.h.p.-exact Count without knowledge (see module docstring).

    Payloads are ``(tuple of NodeId, tuple of float)``.

    Parameters
    ----------
    node_id:
        Node id.
    safety_factor:
        The ``c`` in the halt rule ``r >= c·N̂``; must be > 1 (values
        close to 1 risk early halts when the sketch underestimates,
        values larger just wait longer).  Default 1.5.
    width:
        Sketch width; default 180 (``ε = 0.2`` at ``δ = 1e-4``).
    """

    name = "hybrid_count"

    def __init__(self, node_id: int, safety_factor: float = 1.5,
                 width: int = 180) -> None:
        self.safety_factor = require_positive_float(
            safety_factor, "safety_factor")
        if self.safety_factor <= 1.0:
            raise ConfigurationError(
                f"safety_factor must be > 1, got {safety_factor}")
        self.sketch = ExponentialCountSketch(width)
        super().__init__(node_id, ProductAggregate(
            IdSetAggregate(), MinVectorAggregate(self.sketch.width)))

    def make_contribution(self, rng: np.random.Generator) -> tuple:
        return frozenset((self.node_id,)), self.sketch.draw(rng)

    def extract_output(self, state: tuple) -> int:
        return len(state[0])

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        self._merge_inbox(inbox)
        estimate = self.sketch.estimate(self.state[1])
        if ctx.round_index >= self.safety_factor * estimate:
            self.decide(self.extract_output(self.state))
            self.halt()

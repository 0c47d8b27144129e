"""All-to-all token dissemination by random forwarding (bounded bandwidth).

Token dissemination ("gossip") is the substrate of the pipelined
``O(N + N²/T)`` counting upper bounds for T-interval dynamic networks
(Kuhn–Lynch–Oshman): every node holds a token and every node must learn
every token, but each message may carry only **one** token (``Θ(log N)``
bits).  This module implements the classic randomized forwarding protocol
— each round every node broadcasts a token drawn uniformly from the set it
knows — which adapts automatically to whatever stability the schedule
offers (stable backbones let tokens pipeline; fully fresh graphs do not).

As a Count baseline it comes in two knowledge flavours:

* ``target_count=N`` (known ``N``): a node decides ``N`` once it has
  collected ``N`` distinct tokens (run with ``until="decided"`` — nodes
  keep forwarding after deciding so laggards can finish);
* ``target_count=None`` (oracle-measured): nodes never decide; the
  experiment harness measures the round in which the last node completed
  via :func:`dissemination_complete`.  This matches how dissemination
  *time* (the quantity the ``Ω(N²/T)`` lower bounds speak about) is
  reported in the literature.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, List, Optional

import numpy as np

from .._validate import require_positive_int
from ..simnet.batch import TokenBatchKernel
from ..simnet.message import NodeId
from ..simnet.node import Algorithm, RoundContext

__all__ = ["RandomTokenDissemination", "dissemination_complete"]


class RandomTokenDissemination(Algorithm):
    """One-token-per-round random forwarding (see module docstring).

    The public ``progress`` attribute (number of distinct tokens known) is
    what :class:`~repro.dynamics.adaptive.CutThrottleAdversary` throttles.
    """

    name = "token_dissemination"

    def __init__(self, node_id: int,
                 target_count: Optional[int] = None) -> None:
        super().__init__(node_id)
        if target_count is not None:
            require_positive_int(target_count, "target_count")
        self.target_count = target_count
        self.tokens = {self.node_id}
        # ``tokens`` in ascending order, kept in step by ``deliver`` so
        # compose does not re-sort the set each round.  ``tokens`` stays
        # the source of truth: tokens only ever grow, so a size mismatch
        # means the set was updated directly and the list is rebuilt.
        self._sorted_tokens = [self.node_id]

    @property
    def progress(self) -> float:
        """Distinct tokens known (adaptive adversaries sort by this)."""
        return float(len(self.tokens))

    def compose(self, ctx: RoundContext) -> Any:
        known = self._sorted_tokens
        if len(known) != len(self.tokens):
            known = self._sorted_tokens = sorted(self.tokens)
        pick = known[int(ctx.rng.integers(0, len(known)))]
        return NodeId(pick)

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        tokens = self.tokens
        before = len(tokens)
        for token in inbox:
            token = int(token)
            if token not in tokens:
                tokens.add(token)
                insort(self._sorted_tokens, token)
        self.mark_changed(len(tokens) != before)
        if (self.target_count is not None and not self.decided
                and len(self.tokens) >= self.target_count):
            self.decide(len(self.tokens))

    @classmethod
    def __batch_kernel__(cls, nodes):
        """Membership-row kernel (:mod:`repro.simnet.batch`)."""
        return TokenBatchKernel.build(nodes)


def dissemination_complete(round_index: int, progress: np.ndarray) -> bool:
    """Stop predicate: every node knows every one of the ``N`` tokens.

    Pass as ``stop_when`` to :meth:`repro.simnet.engine.Simulator.run`
    to measure pure dissemination time; *progress* is the engine's
    progress vector, one token count per node.
    """
    return bool(progress.min() >= len(progress))

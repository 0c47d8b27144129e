"""Flooding primitives and the classic known-``N`` baselines.

In a 1-interval connected dynamic network, flooding makes progress one
node per round in the worst case (every round's cut between informed and
uninformed nodes contains an edge), so:

* a token floods to all nodes within ``N - 1`` rounds — and an adaptive
  adversary (:class:`~repro.dynamics.adaptive.PathHiderAdversary`) forces
  exactly that;
* the max-of-inputs stabilises within ``N - 1`` rounds;

hence the classic baselines below decide after exactly ``rounds_bound``
rounds, where ``rounds_bound`` is ``N - 1`` when ``N`` is known (the
standard assumption of the folklore algorithm) or any known upper bound on
the dynamic diameter ``d``.  Their round complexity is ``Θ(N)``
regardless of how small ``d`` is — the additive ``Ω(N)`` term the paper
removes.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .._validate import require_positive_int
from ..simnet.batch import (
    FloodBroadcastBatchKernel,
    FloodMaxBatchKernel,
    FloodTokenBatchKernel,
)
from ..simnet.message import NodeId
from ..simnet.node import Algorithm, RoundContext

__all__ = ["FloodToken", "FloodMax", "FloodBroadcast"]


class FloodToken(Algorithm):
    """Epidemic spreading of a single bit ("have you heard the token?").

    The microscope used to *measure* flooding: seeded nodes start
    ``informed``; every informed node broadcasts the token every round; a
    node decides (value ``True``) the round it becomes informed.  Its
    ``progress`` (1.0 once informed) is what
    :class:`~repro.dynamics.adaptive.PathHiderAdversary` throttles.

    This node never halts on its own — run it with ``until="decided"``.
    """

    name = "flood_token"

    def __init__(self, node_id: int, informed: bool = False) -> None:
        super().__init__(node_id)
        self.informed = bool(informed)
        if self.informed:
            self.decide(True)

    @property
    def progress(self) -> float:
        """1.0 once informed, else 0.0."""
        return float(self.informed)

    def compose(self, ctx: RoundContext) -> Any:
        return True if self.informed else None

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        if not self.informed and inbox:
            self.informed = True
            self.decide(True)
            self.mark_changed(True)
        else:
            self.mark_changed(False)

    @classmethod
    def __batch_kernel__(cls, nodes):
        """Boolean-OR reach batch kernel (see :mod:`repro.simnet.batch`)."""
        if cls is not FloodToken:
            return None
        return FloodTokenBatchKernel.build(nodes)


class FloodMax(Algorithm):
    """Known-bound flooding Max: broadcast the running max, halt on a timer.

    Parameters
    ----------
    node_id:
        Node id.
    value:
        The node's input.
    rounds_bound:
        Number of rounds to run before deciding.  Correct whenever
        ``rounds_bound >= N - 1`` (the folklore known-``N`` setting) or
        ``rounds_bound >= d`` (known dynamic-diameter bound).  The caller
        chooses which knowledge assumption to encode.

    Complexity: exactly ``rounds_bound`` rounds; one ``(id, value)``-sized
    message per node per round.
    """

    name = "flood_max"

    def __init__(self, node_id: int, value: int, rounds_bound: int) -> None:
        super().__init__(node_id)
        self.value = value
        self.rounds_bound = require_positive_int(rounds_bound, "rounds_bound")
        self.best = value

    def compose(self, ctx: RoundContext) -> Any:
        return self.best

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        new_best = max(inbox, default=self.best)
        changed = new_best > self.best
        if changed:
            self.best = new_best
        self.mark_changed(changed)
        if ctx.round_index >= self.rounds_bound:
            self.decide(self.best)
            self.halt()

    @classmethod
    def __batch_kernel__(cls, nodes):
        """Segment-max batch kernel (see :mod:`repro.simnet.batch`)."""
        if cls is not FloodMax:
            return None
        return FloodMaxBatchKernel.build(nodes)


class FloodBroadcast(Algorithm):
    """Known-bound broadcast of a payload from source nodes to everyone.

    Source nodes carry a payload; all nodes forward any payload heard;
    every node decides on the (unique) payload after ``rounds_bound``
    rounds and halts.  Correct for ``rounds_bound >= N - 1`` (or ``>= d``).
    With several distinct sources, nodes decide on the payload attached to
    the smallest source id (deterministic tie-break), which makes this
    double as a leader-value broadcast.
    """

    name = "flood_broadcast"

    def __init__(self, node_id: int, rounds_bound: int,
                 payload: Optional[Any] = None) -> None:
        super().__init__(node_id)
        self.rounds_bound = require_positive_int(rounds_bound, "rounds_bound")
        # (source id, payload); smallest source id wins.
        self.best: Optional[tuple] = None
        if payload is not None:
            self.best = (NodeId(node_id), payload)

    def compose(self, ctx: RoundContext) -> Any:
        return self.best  # None when nothing heard yet

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        changed = False
        for item in inbox:
            if item is not None and (self.best is None or item < self.best):
                self.best = item
                changed = True
        self.mark_changed(changed)
        if ctx.round_index >= self.rounds_bound:
            self.decide(None if self.best is None else self.best[1])
            self.halt()

    @classmethod
    def __batch_kernel__(cls, nodes):
        """Min-source-id reach batch kernel (see :mod:`repro.simnet.batch`)."""
        if cls is not FloodBroadcast:
            return None
        return FloodBroadcastBatchKernel.build(nodes)

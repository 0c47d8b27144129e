"""Epidemic token flooding, the microscope that measures flooding time.

In a 1-interval connected dynamic network, flooding makes progress one
node per round in the worst case (every round's cut between informed and
uninformed nodes contains an edge), so a token floods to all nodes
within ``N - 1`` rounds — and an adaptive adversary
(:class:`~repro.dynamics.adaptive.PathHiderAdversary`) forces exactly
that.

The classic known-``N`` baselines built on this fact (flood Max,
Broadcast or Consensus for ``N - 1`` rounds, then decide) are the core's
known-bound aggregates run with ``rounds_bound = N - 1``:
:class:`~repro.core.max_compute.MaxKnownBound` and
:class:`~repro.core.consensus.ConsensusKnownBound`.  Their round
complexity is ``Θ(N)`` regardless of how small ``d`` is — the additive
``Ω(N)`` term the paper removes.
"""

from __future__ import annotations

from typing import Any, List

from ..simnet.node import Algorithm, RoundContext

__all__ = ["FloodToken"]


class FloodToken(Algorithm):
    """Epidemic spreading of a single bit ("have you heard the token?").

    The microscope used to *measure* flooding: seeded nodes start
    ``informed``; every informed node broadcasts the token every round; a
    node decides (value ``True``) the round it becomes informed.  Its
    ``progress`` (1.0 once informed) is what
    :class:`~repro.dynamics.adaptive.PathHiderAdversary` throttles.

    This node never halts on its own — run it with ``until="decided"``.
    It has no batch kernel: it runs on the engine's reference tier.
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

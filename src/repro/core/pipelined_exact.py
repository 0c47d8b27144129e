"""PipelinedExactCount: exact counting under a hard ids-per-message budget.

Completes the bandwidth picture (F6): exact Count needs the id-set to
travel, and under a ``w``-ids-per-message budget that *is* token
dissemination — so the best possible behaviour is
``≈ d + N/w``-flavoured (pipelined), with ``Ω(N/w)`` unavoidable because
``N`` distinct ids must cross any single-edge cut.

Protocol: the union aggregate of :class:`~repro.core.exact_count.ExactCount`,
transmitted ``w`` ids at a time — half the budget goes to the ids most
recently *learned* (fresh information chases itself outward, wavefront
style, exactly as in :class:`~repro.core.pipelining.PipelinedApproxCount`),
half to a round-robin sweep over the node's whole set (guaranteeing every
id it holds is on the wire at least every ``⌈|ids|/⌈w/2⌉⌉`` rounds, which
keeps worst-case convergence bounded).  Termination: the same quiescence
controller; same stabilizing guarantees (final decisions exact and
unanimous).

Comparison points measured by the tests: messages are ``O(w log N)``
bits (vs ``Θ(N log N)`` for the unbounded variant), and rounds grow like
``N/w`` once ``w ≪ N`` (vs ``O(d)`` unbounded) — the price of exactness
in the CONGEST regime, which is exactly why the sketch-based approximate
counters exist.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .._validate import require_positive_int
from ..simnet.message import NodeId
from ..simnet.node import Algorithm, RoundContext
from .termination import QuiescenceController

__all__ = ["PipelinedExactCount"]


class PipelinedExactCount(Algorithm):
    """Stabilizing exact Count with ``w`` ids per message (see module docs).

    Parameters
    ----------
    node_id:
        Node id (its own first token).
    ids_per_message:
        The bandwidth budget ``w >= 1``.
    initial_window / window_growth:
        Quiescence-controller knobs.  The default initial window is 8:
        under a budget a node can see several quiet rounds while
        information is still in flight, but a premature decision is
        always retracted when the next id arrives (round-robin
        transmission guarantees every id keeps flowing), so the window
        only tunes decision churn, not correctness.
    """

    name = "pipelined_exact_count"

    def __init__(self, node_id: int, ids_per_message: int,
                 initial_window: Optional[int] = None,
                 window_growth: int = 2) -> None:
        super().__init__(node_id)
        self.w = require_positive_int(ids_per_message, "ids_per_message")
        self.controller = QuiescenceController(
            initial_window=(initial_window if initial_window is not None
                            else 8),
            growth=window_growth)
        self.ids: List[int] = [node_id]     # insertion order = learn order
        self._known = {node_id}
        self._rr_cursor = 0

    @property
    def progress(self) -> float:
        """Heard-set size (adaptive adversaries sort on this)."""
        return float(len(self._known))

    def compose(self, ctx: RoundContext) -> Any:
        recent_share = self.w // 2
        recent = self.ids[-recent_share:] if recent_share else []
        rr_share = self.w - len(recent)
        picked = list(recent)
        seen = set(recent)
        total = len(self.ids)
        for _ in range(min(rr_share, total)):
            candidate = self.ids[self._rr_cursor % total]
            self._rr_cursor += 1
            if candidate not in seen:
                picked.append(candidate)
                seen.add(candidate)
        return tuple(NodeId(x) for x in picked)

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        changed = False
        for payload in inbox:
            for raw in payload:
                token = int(raw)
                if token not in self._known:
                    self._known.add(token)
                    self.ids.append(token)
                    changed = True
        self.mark_changed(changed)
        self.controller.settle(self, ctx, changed,
                               lambda: len(self._known))

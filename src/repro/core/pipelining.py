"""Bandwidth-limited sketch aggregation — pipelining the min-vector.

:class:`~repro.core.approx_count.ApproxCount` broadcasts its full
``k``-coordinate sketch every round, which honours the spirit of "small
messages" only when ``k`` fits the channel.  This module aggregates the
same sketch under a hard **words-per-message budget** ``w < k``, the
regime where T-interval stability starts to matter (a coordinate's
min-flood can only progress in rounds when that coordinate is on the
wire).  Two scheduling strategies, compared in ablation T3:

* ``"tdm"`` — time-division multiplexing: all nodes broadcast coordinate
  block ``(r mod ⌈k/w⌉)`` in round ``r``.  Deterministic and analysable:
  each coordinate progresses every ``⌈k/w⌉``-th round, so the global
  minima are reached within ``d · ⌈k/w⌉`` rounds — a clean upper bound,
  but it wastes slots once most coordinates have stabilised.
* ``"greedy"`` — half the budget goes to the coordinates the node
  updated most recently (fresh improvements chase each other down the
  network like a wavefront), the other half to a strict round-robin over
  all coordinates (guaranteeing every coordinate — including the node's
  *own* initial draws — is on the wire at least every
  ``⌈k/(w - ⌊w/2⌋)⌉`` rounds, which keeps the TDM-style correctness
  bound while usually finishing much earlier on stable backbones).

Termination uses the same quiescence controller, with the initial window
defaulting to one full TDM cycle (``⌈k/w⌉``) so that "quiet" means "every
coordinate had a chance to speak" rather than "the currently scheduled
block happened to be stale".
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

import numpy as np

from .._validate import require_choice, require_positive_int
from ..simnet.batch import PipelinedSketchBatchKernel
from ..simnet.node import Algorithm, RoundContext
from .approx_count import _make_sketch
from .termination import QuiescenceController

__all__ = ["PipelinedApproxCount"]


class PipelinedApproxCount(Algorithm):
    """``(1±ε)`` Count under a words-per-message budget (see module docs).

    Parameters
    ----------
    node_id:
        Node id.
    eps, delta / width:
        Accuracy target or explicit sketch width (as in
        :class:`~repro.core.approx_count.ApproxCount`).
    words_per_message:
        How many ``(coordinate, value)`` pairs fit in one broadcast.
    strategy:
        ``"tdm"`` or ``"greedy"``.
    """

    name = "pipelined_approx_count"

    def __init__(self, node_id: int, words_per_message: int,
                 eps: Optional[float] = None, delta: Optional[float] = None,
                 width: Optional[int] = None, strategy: str = "tdm",
                 initial_window: Optional[int] = None,
                 window_growth: int = 2) -> None:
        super().__init__(node_id)
        self.sketch = _make_sketch(width, eps, delta, "exponential")
        self.w = require_positive_int(words_per_message, "words_per_message")
        self.strategy = require_choice(strategy, "strategy", ("tdm", "greedy"))
        if self.strategy == "greedy":
            self._recent_share = self.w // 2
            rr_share = self.w - self._recent_share
            self.cycle = math.ceil(self.sketch.width / rr_share)
        else:
            self.cycle = math.ceil(self.sketch.width / self.w)
        self.controller = QuiescenceController(
            initial_window=(initial_window if initial_window is not None
                            else self.cycle),
            growth=window_growth)
        self.state: Optional[np.ndarray] = None
        # last round each coordinate improved locally (greedy priority)
        self._last_update: Optional[np.ndarray] = None

    def compose(self, ctx: RoundContext) -> Any:
        if self.state is None:
            self.state = self.sketch.draw(ctx.rng)
            self._last_update = np.zeros(self.sketch.width, dtype=np.int64)
        k = self.sketch.width
        if self.strategy == "tdm":
            block = (ctx.round_index - 1) % self.cycle
            idx = np.arange(block * self.w, min((block + 1) * self.w, k))
        else:
            # Greedy: recency-priority half + guaranteed round-robin half.
            rr_share = self.w - self._recent_share
            block = (ctx.round_index - 1) % self.cycle
            rr_idx = np.arange(block * rr_share,
                               min((block + 1) * rr_share, k))
            if self._recent_share:
                order = np.argsort(-self._last_update, kind="stable")
                recent = [int(j) for j in order[: self.w]
                          if j not in set(rr_idx.tolist())][: self._recent_share]
            else:
                recent = []
            idx = np.concatenate([rr_idx, np.asarray(recent, dtype=np.int64)]) \
                if recent else rr_idx
        return tuple((int(j), float(self.state[j])) for j in idx)

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        changed = False
        state = self.state
        last = self._last_update
        for payload in inbox:
            for j, value in payload:
                if value < state[j]:
                    state[j] = value
                    last[j] = ctx.round_index
                    changed = True
        self.mark_changed(changed)
        self.controller.settle(self, ctx, changed,
                               lambda: self.sketch.estimate(state))

    __batch_kernel__ = PipelinedSketchBatchKernel.build

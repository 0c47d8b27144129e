"""Adaptive adversaries.

The abstract's adversary chooses each round's topology "arbitrarily"; an
*adaptive* adversary does so after inspecting the nodes' current
progress: the engine's per-node progress vector
(:meth:`repro.simnet.engine.Simulator.progress`), which every engine
tier serves, so adaptive runs stay on the batch tier.
These are the instances that realise worst-case lower bounds (e.g. the
``Ω(N)`` flooding bound even under per-round topology change), used by the
evaluation's adversary-robustness table (T2).

Model note.  The engine reveals the round's graph *after* nodes compose
their messages; an adaptive schedule bound to the engine therefore sees
node progress as of the start of the round (plus any bookkeeping
``compose`` did), which is the standard "strongly adaptive" adversary of
the literature.  Adaptive schedules are not replayable pure functions, so they
record every round they generate; wrap-free verification is available via
:meth:`AdaptiveSchedule.to_explicit`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from .._validate import require_positive_int
from ..errors import ScheduleError
from .schedule import ExplicitSchedule, GraphSchedule, canonical_edges

__all__ = [
    "AdaptiveSchedule",
    "PathHiderAdversary",
    "CutThrottleAdversary",
    "WindowedThrottleAdversary",
]


class AdaptiveSchedule(GraphSchedule):
    """Base class for adversaries that inspect node progress.

    Subclasses implement :meth:`decide_edges`, which receives a callable
    returning the per-node progress vector (set by the engine through
    :meth:`bind`) and calls it only when it needs the vector.  Every
    generated round is recorded so the realised schedule can be certified
    afterwards.
    """

    def __init__(self, num_nodes: int, interval: Optional[int] = 1) -> None:
        super().__init__(num_nodes, interval)
        self._progress: Optional[Callable[[], np.ndarray]] = None
        self._recorded: Dict[int, np.ndarray] = {}

    def bind(self, progress: Callable[[], np.ndarray]) -> None:
        """Called by the engine with its progress-vector callable."""
        self._progress = progress

    def _read_progress(self) -> np.ndarray:
        """The bound progress vector, checked against the node count."""
        progress = self._progress()
        if len(progress) != self.num_nodes:
            raise ScheduleError(
                f"bound {len(progress)} nodes to an adversary over "
                f"{self.num_nodes}")
        return progress

    def decide_edges(self, round_index: int,
                     progress: Callable[[], np.ndarray]) -> object:
        """Choose the round's edge set; *progress* returns the vector."""
        raise NotImplementedError

    def edges(self, round_index: int) -> np.ndarray:
        require_positive_int(round_index, "round_index")
        cached = self._recorded.get(round_index)
        if cached is not None:
            return cached
        if self._progress is None:
            raise ScheduleError(
                "adaptive schedule queried before being bound to nodes "
                "(pass it to a Simulator first)")
        out = canonical_edges(
            self.decide_edges(round_index, self._read_progress),
            self.num_nodes)
        self._recorded[round_index] = out
        return out

    def stable_until(self, round_index: int) -> int:
        """No stability promise — adaptive graphs depend on node state.

        The conservative hint makes :meth:`adjacency` query (and hence
        record) every round, which both keeps the adversary adaptive and
        keeps the recording gap-free for :meth:`to_explicit`.  A round
        whose graph equals the previous round's still reuses that
        round's CSR.
        """
        return round_index

    def to_explicit(self) -> ExplicitSchedule:
        """Freeze the realised rounds for offline verification."""
        if not self._recorded:
            raise ScheduleError("no rounds realised yet")
        horizon = max(self._recorded)
        missing = [r for r in range(1, horizon + 1) if r not in self._recorded]
        if missing:
            raise ScheduleError(f"realised rounds have gaps: {missing[:5]} ...")
        return ExplicitSchedule(
            self.num_nodes,
            [self._recorded[r] for r in range(1, horizon + 1)],
            interval=self.interval,
        )


def _path(order: np.ndarray) -> List[tuple]:
    """The path visiting the nodes in *order*."""
    return list(zip(order[:-1].tolist(), order[1:].tolist()))


class PathHiderAdversary(AdaptiveSchedule):
    """The classic ``Ω(N)`` flooding adversary (1-interval).

    Each round it arranges the nodes on a path with all *informed* nodes
    (progress above 0, e.g. :class:`repro.baselines.flooding.FloodToken`
    nodes holding the token) contiguous at one end, each block in index
    order: exactly one uninformed node is adjacent to the informed block,
    so at most one node becomes informed per round, forcing ``Θ(N)``
    flooding time even though the graph changes every round.  This is the
    instance showing that "topology changes arbitrarily" genuinely costs
    ``Ω(N)`` *in the worst case* and why the paper's bounds are
    parameterised by the dynamic diameter ``d``.
    """

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes, interval=1)

    def decide_edges(self, round_index: int,
                     progress: Callable[[], np.ndarray]) -> object:
        return _path(np.argsort(progress() <= 0, kind="stable"))


class CutThrottleAdversary(AdaptiveSchedule):
    """Generalised progress-sorting adversary (1-interval).

    Sorts nodes by progress (e.g. "how many distinct ids this node has
    heard"), ties by index, and arranges them on a path in that order, so
    information only crosses between adjacent progress levels — a smooth
    generalisation of :class:`PathHiderAdversary` that also slows
    multi-token and aggregate protocols.
    """

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes, interval=1)

    def decide_edges(self, round_index: int,
                     progress: Callable[[], np.ndarray]) -> object:
        return _path(np.argsort(progress(), kind="stable"))


class WindowedThrottleAdversary(AdaptiveSchedule):
    """Adaptive progress-throttling constrained by a T-interval promise.

    The experiment that shows *why T matters* (F2): the adversary wants to
    re-sort the path by node progress every round (as
    :class:`CutThrottleAdversary` does), but the T-interval promise only
    lets it commit to a fresh spanning backbone once per ``T``-round
    window.  Construction: at the first round of each window it computes a
    path over the nodes sorted by progress *at that moment*; the
    first ``T - 1`` rounds of each window additionally carry the
    **previous** window's path.

    Promise proof (past-overlap variant of
    :class:`~repro.dynamics.interval.OverlapHandoffAdversary`): any ``T``
    consecutive rounds touch at most two windows ``w-1, w``; the rounds
    taken from window ``w`` are its first ``≤ T-1`` rounds, which all
    carry the ``w-1`` path, and the rounds from window ``w-1`` carry it
    too — a connected spanning common subgraph.  (Past-overlap is what an
    *adaptive* adversary can implement: the future window's backbone
    depends on states it has not seen yet.)

    Effect: the larger ``T``, the longer each throttling arrangement goes
    stale and the faster protocols make progress — the measured rounds
    fall as ``T`` grows, reproducing the ``N²/T``-flavoured trade-off of
    the prior-work bounds.
    """

    def __init__(self, num_nodes: int, T: int) -> None:
        self.T = require_positive_int(T, "T")
        super().__init__(num_nodes, interval=self.T)
        self._paths: Dict[int, List[tuple]] = {}

    def _path_for_window(self, window: int,
                         progress: Callable[[], np.ndarray]) -> List[tuple]:
        path = self._paths.get(window)
        if path is None:
            path = _path(np.argsort(progress(), kind="stable"))
            self._paths[window] = path
            stale = [w for w in self._paths if w < window - 1]
            for w in stale:
                del self._paths[w]
        return path

    def decide_edges(self, round_index: int,
                     progress: Callable[[], np.ndarray]) -> object:
        w = (round_index - 1) // self.T
        pos = (round_index - 1) % self.T
        edges = list(self._path_for_window(w, progress))
        if self.T > 1 and pos < self.T - 1 and w > 0:
            prev = self._paths.get(w - 1)
            if prev is not None:
                edges.extend(prev)
        return edges


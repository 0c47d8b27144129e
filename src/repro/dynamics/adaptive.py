"""Adaptive adversaries.

The abstract's adversary chooses each round's topology "arbitrarily"; an
*adaptive* adversary does so after inspecting the nodes' current states.
These are the instances that realise worst-case lower bounds (e.g. the
``Ω(N)`` flooding bound even under per-round topology change), used by the
evaluation's adversary-robustness table (T2).

Model note.  The engine reveals the round's graph *after* nodes compose
their messages; an adaptive schedule bound to the engine therefore sees
node state as of the start of the round (plus any bookkeeping ``compose``
did), which is the standard "strongly adaptive" adversary of the
literature.  Adaptive schedules are not replayable pure functions, so they
record every round they generate; wrap-free verification is available via
:meth:`AdaptiveSchedule.to_explicit`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ScheduleError
from .schedule import ExplicitSchedule, GraphSchedule, canonical_edges

__all__ = [
    "AdaptiveSchedule",
    "PathHiderAdversary",
    "CutThrottleAdversary",
    "WindowedThrottleAdversary",
]


class AdaptiveSchedule(GraphSchedule):
    """Base class for adversaries that inspect node state.

    Subclasses implement :meth:`decide_edges`, which receives the bound
    node list (set by the engine through :meth:`bind`).  Every generated
    round is recorded so the realised schedule can be certified afterwards.
    """

    def __init__(self, num_nodes: int, interval: Optional[int] = 1) -> None:
        super().__init__(num_nodes, interval)
        self._nodes: Optional[Sequence[object]] = None
        self._recorded: Dict[int, np.ndarray] = {}

    def bind(self, nodes: Sequence[object]) -> None:
        """Called by the engine with the live node list."""
        if len(nodes) != self.num_nodes:
            raise ScheduleError(
                f"bound {len(nodes)} nodes to an adversary over "
                f"{self.num_nodes}")
        self._nodes = nodes

    def decide_edges(self, round_index: int,
                     nodes: Sequence[object]) -> object:
        """Choose the round's edge set given the live nodes."""
        raise NotImplementedError

    def edges(self, round_index: int) -> np.ndarray:
        cached = self._recorded.get(round_index)
        if cached is not None:
            return cached
        if self._nodes is None:
            raise ScheduleError(
                "adaptive schedule queried before being bound to nodes "
                "(pass it to a Simulator first)")
        out = canonical_edges(
            self.decide_edges(round_index, self._nodes), self.num_nodes)
        self._recorded[round_index] = out
        return out

    def stable_until(self, round_index: int) -> int:
        """No stability promise — adaptive graphs depend on node state.

        The conservative hint forces the interval-aware adjacency cache
        to query (and hence record) every round, which both keeps the
        adversary adaptive and keeps the recording gap-free for
        :meth:`to_explicit`.  Identical consecutive graphs are still
        deduplicated downstream by content fingerprint.
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


class PathHiderAdversary(AdaptiveSchedule):
    """The classic ``Ω(N)`` flooding adversary (1-interval).

    Each round it sorts the nodes by an *informedness predicate* and
    arranges them on a path with all informed nodes contiguous at one end:
    exactly one uninformed node is adjacent to the informed block, so at
    most one node becomes informed per round, forcing ``Θ(N)`` flooding
    time even though the graph changes every round.  This is the instance
    showing that "topology changes arbitrarily" genuinely costs ``Ω(N)``
    *in the worst case* and why the paper's bounds are parameterised by
    the dynamic diameter ``d``.

    Parameters
    ----------
    num_nodes:
        Number of nodes.
    informed:
        Predicate mapping a node object to "has the information".  The
        default inspects a boolean ``informed`` attribute (as used by
        :class:`repro.baselines.flooding.FloodToken` nodes).
    """

    def __init__(self, num_nodes: int,
                 informed: Optional[Callable[[object], bool]] = None) -> None:
        super().__init__(num_nodes, interval=1)
        self._informed = informed or (
            lambda node: bool(getattr(node, "informed", False)))

    def decide_edges(self, round_index: int,
                     nodes: Sequence[object]) -> object:
        order = sorted(range(self.num_nodes),
                       key=lambda i: (not self._informed(nodes[i]), i))
        return [(order[i], order[i + 1]) for i in range(self.num_nodes - 1)]


class CutThrottleAdversary(AdaptiveSchedule):
    """Generalised progress-sorting adversary (1-interval).

    Sorts nodes by a numeric *progress key* (e.g. "how many distinct ids
    this node has heard") and arranges them on a path in key order, so
    information only crosses between adjacent progress levels — a smooth
    generalisation of :class:`PathHiderAdversary` that also slows
    multi-token and aggregate protocols.

    Parameters
    ----------
    num_nodes:
        Number of nodes.
    key:
        Progress key per node object; default reads a numeric ``progress``
        attribute (0 when absent).
    descending:
        Sort direction; the direction only mirrors the path, the throttling
        effect is identical.
    """

    def __init__(self, num_nodes: int,
                 key: Optional[Callable[[object], float]] = None,
                 descending: bool = False) -> None:
        super().__init__(num_nodes, interval=1)
        self._key = key or (lambda node: float(getattr(node, "progress", 0.0)))
        self._descending = bool(descending)

    def decide_edges(self, round_index: int,
                     nodes: Sequence[object]) -> object:
        keys = [self._key(nodes[i]) for i in range(self.num_nodes)]
        order = sorted(range(self.num_nodes),
                       key=lambda i: (keys[i], i),
                       reverse=self._descending)
        return [(order[i], order[i + 1]) for i in range(self.num_nodes - 1)]


class WindowedThrottleAdversary(AdaptiveSchedule):
    """Adaptive progress-throttling constrained by a T-interval promise.

    The experiment that shows *why T matters* (F2): the adversary wants to
    re-sort the path by node progress every round (as
    :class:`CutThrottleAdversary` does), but the T-interval promise only
    lets it commit to a fresh spanning backbone once per ``T``-round
    window.  Construction: at the first round of each window it computes a
    path over the nodes sorted by the progress key *at that moment*; the
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

    def __init__(self, num_nodes: int, T: int,
                 key: Optional[Callable[[object], float]] = None) -> None:
        super().__init__(num_nodes, interval=max(1, int(T)))
        if T < 1:
            raise ScheduleError(f"T must be >= 1, got {T}")
        self.T = int(T)
        self._key = key or (lambda node: float(getattr(node, "progress", 0.0)))
        self._paths: Dict[int, List[tuple]] = {}

    def _path_for_window(self, window: int,
                         nodes: Sequence[object]) -> List[tuple]:
        path = self._paths.get(window)
        if path is None:
            keys = [self._key(nodes[i]) for i in range(self.num_nodes)]
            order = sorted(range(self.num_nodes), key=lambda i: (keys[i], i))
            path = [(order[i], order[i + 1])
                    for i in range(self.num_nodes - 1)]
            self._paths[window] = path
            stale = [w for w in self._paths if w < window - 1]
            for w in stale:
                del self._paths[w]
        return path

    def decide_edges(self, round_index: int,
                     nodes: Sequence[object]) -> object:
        w = (round_index - 1) // self.T
        pos = (round_index - 1) % self.T
        edges = list(self._path_for_window(w, nodes))
        if self.T > 1 and pos < self.T - 1 and w > 0:
            prev = self._paths.get(w - 1)
            if prev is not None:
                edges.extend(prev)
        return edges


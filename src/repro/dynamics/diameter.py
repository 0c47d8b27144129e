"""Exact dynamic diameter (flooding time) of a schedule.

The complexity bounds of the paper (as reconstructed in DESIGN.md §1) are
parameterised by the **dynamic diameter** ``d``: the number of rounds
needed, in the worst case over source nodes (and optionally over start
rounds), for information flooded from a source to reach every node, when
every node forwards everything it knows each round.

This module computes ``d`` exactly by simulating the *flood closure* of
all sources simultaneously with bit-packed reachability sets: row ``v`` of
a ``(n, ⌈n/64⌉)`` ``uint64`` matrix is the set of sources whose token node
``v`` holds; each round the matrix rows of edge endpoints are OR-ed into
each other (vectorised with ``np.bitwise_or.at``).  One round of the
closure costs ``O(|E| · n / 64)`` word operations; in an always-connected
schedule the closure completes within ``n - 1`` rounds.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .._validate import require_positive_int
from ..errors import ConfigurationError, NotTerminatedError
from .schedule import GraphSchedule

__all__ = ["flooding_time_from", "dynamic_diameter"]


def flooding_time_from(
    schedule: GraphSchedule,
    start_round: int = 1,
    max_rounds: Optional[int] = None,
) -> int:
    """Rounds until every node holds the token of every node.

    Every node's token originates at the start of *start_round*; in each
    round every node broadcasts everything it holds.  Returns the number
    of rounds executed when the last ``(source, node)`` pair completes.
    For ``n == 1`` the answer is 0.

    Raises
    ------
    NotTerminatedError
        If the closure does not complete within *max_rounds* (default
        ``4n + 16``) — which for a schedule that is connected every round
        cannot happen before ``n - 1`` rounds elapse, so hitting the
        default budget indicates a disconnected schedule.
    """
    require_positive_int(start_round, "start_round")
    n = schedule.num_nodes
    if n == 1:
        return 0
    # Node v starts holding exactly its own token; the target row holds
    # every node's.
    nodes = np.arange(n)
    informed = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    informed[nodes, nodes // 64] = (
        np.uint64(1) << (nodes % 64).astype(np.uint64))
    target = np.bitwise_or.reduce(informed, axis=0)

    if max_rounds is None:
        max_rounds = 4 * n + 16

    for step in range(1, max_rounds + 1):
        edge_arr = schedule.edges(start_round + step - 1)
        if edge_arr.size:
            src = np.concatenate([edge_arr[:, 0], edge_arr[:, 1]])
            dst = np.concatenate([edge_arr[:, 1], edge_arr[:, 0]])
            contributions = informed[src]
            np.bitwise_or.at(informed, dst, contributions)
        if bool((informed == target).all()):
            return step
    raise NotTerminatedError(
        f"flood closure incomplete after {max_rounds} rounds from round "
        f"{start_round}; is the schedule connected every round?",
        rounds_executed=max_rounds,
    )


def dynamic_diameter(
    schedule: GraphSchedule,
    start_rounds: Sequence[int] = (1,),
    max_rounds: Optional[int] = None,
) -> int:
    """Max flooding time over the given *start_rounds* (all sources).

    The paper's ``d`` is a worst case over when the algorithm's
    information happens to originate; sampling several start rounds
    approximates that worst case for time-varying adversaries (for static
    and backbone-stable schedules one start round is exact).
    """
    if not start_rounds:
        raise ConfigurationError("start_rounds must be non-empty")
    return max(
        flooding_time_from(schedule, start_round=r, max_rounds=max_rounds)
        for r in start_rounds
    )

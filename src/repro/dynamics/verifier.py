"""Machine-checking the adversary's promise.

The paper's adversary promises: *in every T consecutive rounds, the T
topologies contain a common connected subgraph spanning all nodes*.
:func:`verify_t_interval_connectivity` checks that promise exactly, for
every sliding window in a horizon, in ``O(horizon · |E| · α(n))`` total
time using consecutive-presence run lengths (an edge belongs to the
intersection of window ``[r, r+T-1]`` iff its consecutive-presence run
ending at ``r+T-1`` has length ``≥ T``).

All schedule generators in :mod:`repro.dynamics` are tested against this
verifier.  The experiment grids do not call it; the end-to-end benchmark
(``perfbench/run.py``) certifies every schedule its cells ran on.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .._validate import require_positive_int
from ..errors import IntervalConnectivityError
from .schedule import GraphSchedule

__all__ = [
    "is_connected_spanning",
    "window_intersection_edges",
    "verify_t_interval_connectivity",
]


class _UnionFind:
    """Array-based union-find with path halving (internal helper)."""

    __slots__ = ("parent", "components")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.components = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.components -= 1


def is_connected_spanning(edges: np.ndarray, num_nodes: int) -> bool:
    """Whether *edges* connect all ``num_nodes`` nodes."""
    require_positive_int(num_nodes, "num_nodes")
    if num_nodes == 1:
        return True
    if edges is None or len(edges) == 0:
        return False
    uf = _UnionFind(num_nodes)
    for u, v in edges:
        uf.union(int(u), int(v))
        if uf.components == 1:
            return True
    return uf.components == 1


def window_intersection_edges(schedule: GraphSchedule, start: int,
                              T: int) -> np.ndarray:
    """Edges present in **every** round of ``[start, start+T-1]``.

    Direct (non-incremental) computation; used for inspection and as the
    oracle the fast verifier is property-tested against.
    """
    require_positive_int(start, "start")
    require_positive_int(T, "T")
    n = schedule.num_nodes
    common: Optional[set] = None
    for r in range(start, start + T):
        keys = {int(u) * n + int(v) for u, v in schedule.edges(r)}
        common = keys if common is None else (common & keys)
        if not common:
            break
    common = common or set()
    out = np.array(sorted((k // n, k % n) for k in common), dtype=np.int32)
    return out.reshape(-1, 2)


def verify_t_interval_connectivity(
    schedule: GraphSchedule,
    T: int,
    horizon: int,
    raise_on_failure: bool = True,
) -> Tuple[bool, Optional[int]]:
    """Check the T-interval promise over rounds ``1 .. horizon``.

    Every sliding window ``[r, r+T-1]`` with ``r + T - 1 <= horizon`` is
    checked for a connected spanning intersection.

    Returns
    -------
    ``(ok, first_bad_window_start)`` — ``(True, None)`` if the promise
    holds; otherwise ``(False, r)`` for the earliest violated window
    (or raises :class:`~repro.errors.IntervalConnectivityError` when
    *raise_on_failure* is set).
    """
    require_positive_int(T, "T")
    require_positive_int(horizon, "horizon")
    n = schedule.num_nodes
    if horizon < T:
        return True, None  # no complete window exists

    run_len: Dict[int, int] = {}
    for end in range(1, horizon + 1):
        edge_arr = schedule.edges(end)
        keys = edge_arr[:, 0].astype(np.int64) * n + edge_arr[:, 1]
        new_run: Dict[int, int] = {}
        for k in keys.tolist():
            new_run[k] = run_len.get(k, 0) + 1
        run_len = new_run
        if end >= T:
            window_start = end - T + 1
            surviving = [k for k, c in run_len.items() if c >= T]
            uf = _UnionFind(n)
            for k in surviving:
                uf.union(k // n, k % n)
                if uf.components == 1:
                    break
            if uf.components != 1 and n > 1:
                if raise_on_failure:
                    raise IntervalConnectivityError(
                        f"window [{window_start}, {end}] of schedule "
                        f"{schedule!r} has no connected spanning "
                        f"intersection (T={T})",
                        window_start=window_start, window_length=T,
                    )
                return False, window_start
    return True, None

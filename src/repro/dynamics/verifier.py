"""Machine-checking the adversary's promise.

The paper's adversary promises: *in every T consecutive rounds, the T
topologies contain a common connected subgraph spanning all nodes*.
:func:`verify_t_interval_connectivity` checks that promise exactly, for
every sliding window in a horizon.  An edge belongs to the intersection
of window ``[r, r+T-1]`` iff its consecutive-presence run ending at
``r+T-1`` has length ``≥ T``.

Method.  Rounds are read in chunks of 256.  Each edge-round of a chunk
is packed into one ``int64`` as ``key * 258 + offset``, where ``key =
u * n + v`` and ``offset`` is the round's position in the chunk from 1;
runs still alive at the previous chunk's last round enter as weighted
entries at offset 0.  One ``np.sort`` of those values lays every edge's
presence runs out as stretches of entries that step by exactly 1 (the
unused offset 257 keeps one key's last round and the next key's carried
run apart), and a cumulative sum gives each entry's run length.  The
surviving edges of every window ending in the chunk form one
block-diagonal graph (window ``i`` owns nodes ``i*n .. i*n+n-1``), and
one :func:`scipy.sparse.csgraph.connected_components` call checks all
those windows at once.  Total time is ``O(E log E)`` for ``E`` edge-rounds
in the horizon, with a constant number of numpy calls per chunk on top
of reading the schedule.

All schedule generators in :mod:`repro.dynamics` are tested against this
verifier, and the verifier against a direct per-window intersection
oracle.  The experiment grids do not call it; the end-to-end benchmark
(``perfbench/run.py``) certifies every schedule its cells ran on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._validate import require_positive_int
from ..errors import IntervalConnectivityError
from .schedule import GraphSchedule

__all__ = [
    "is_connected_spanning",
    "verify_t_interval_connectivity",
]

#: Rounds whose windows are checked together, as one block-diagonal graph.
_CHUNK = 256

#: Offsets per key in a chunk's packed entries: the carried runs' 0, the
#: chunk's rounds 1 .. _CHUNK, and one never used.
_STRIDE = _CHUNK + 2


def is_connected_spanning(edges: np.ndarray, num_nodes: int) -> bool:
    """Whether *edges* connect all ``num_nodes`` nodes."""
    require_positive_int(num_nodes, "num_nodes")
    if num_nodes == 1:
        return True
    if edges is None or len(edges) == 0:
        return False
    edges = np.asarray(edges)
    return _components(edges[:, 0], edges[:, 1], num_nodes)[0] == 1


def _components(u: np.ndarray, v: np.ndarray,
                num_nodes: int) -> Tuple[int, np.ndarray]:
    """Connected components of the undirected graph with edges ``u[i]-v[i]``."""
    # scipy.sparse takes longer to import than the rest of the package
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)),
                       shape=(num_nodes, num_nodes))
    return connected_components(graph, directed=False)


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

    # Presence runs that end at the previous chunk's last round, as
    # (key, length) in key order: they enter the next chunk at offset 0.
    carry_keys = carry_runs = np.empty(0, dtype=np.int64)
    for first in range(1, horizon + 1, _CHUNK):
        last = min(first + _CHUNK - 1, horizon)
        arrays = [schedule.edges(r) for r in range(first, last + 1)]
        edges = np.concatenate(arrays)
        offsets = np.repeat(np.arange(1, last - first + 2),
                            [len(a) for a in arrays])
        packed = np.sort(np.concatenate([
            carry_keys * _STRIDE,
            (edges[:, 0].astype(np.int64) * n + edges[:, 1]) * _STRIDE
            + offsets]))
        offsets = packed % _STRIDE
        weight = np.ones(len(packed), dtype=np.int64)
        weight[offsets == 0] = carry_runs
        # A presence run of one key over consecutive rounds is a stretch
        # of entries stepping by 1; ``run`` is its length through each.
        starts = np.ones(len(packed), dtype=bool)
        starts[1:] = packed[1:] != packed[:-1] + 1
        run_start = np.maximum.accumulate(
            np.where(starts, np.arange(len(packed)), 0))
        total = np.cumsum(weight)
        run = total - total[run_start] + weight[run_start]
        at_last = offsets == last - first + 1
        carry_keys, carry_runs = packed[at_last] // _STRIDE, run[at_last]

        # Windows ending in this chunk, as one block-diagonal graph: the
        # window ending at round ``e`` owns nodes ``(e - e0) * n + v``.
        e0 = max(first, T)
        if e0 > last:
            continue
        survive = (run >= T) & (offsets >= e0 - first + 1)
        owner = (offsets[survive] - (e0 - first + 1)) * n
        k = packed[survive] // _STRIDE
        windows = last - e0 + 1
        _, labels = _components(owner + k // n, owner + k % n, windows * n)
        labels = labels.reshape(windows, n)
        bad = np.flatnonzero((labels != labels[:, :1]).any(axis=1))
        if bad.size:
            window_start = e0 + int(bad[0]) - T + 1
            end = window_start + T - 1
            if raise_on_failure:
                raise IntervalConnectivityError(
                    f"window [{window_start}, {end}] of schedule "
                    f"{schedule!r} has no connected spanning "
                    f"intersection (T={T})",
                    window_start=window_start, window_length=T,
                )
            return False, window_start
    return True, None

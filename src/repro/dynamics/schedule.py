"""Schedule base classes.

A schedule maps 1-based round indices to undirected graphs over node
indices ``0 .. num_nodes-1``.  Graphs are represented as *canonical edge
arrays*: read-only ``numpy`` int32 arrays of shape ``(m, 2)`` with
``u < v`` in every row and rows sorted lexicographically — a unique
representation per graph, which makes window intersection (the heart of
T-interval verification) a sorted-set operation.

Determinism contract
--------------------
``edges(r)`` must be a *pure function* of ``(schedule construction
arguments, r)`` for all oblivious schedules, so that the verifier and the
engine can both replay the same schedule without storing every round.
Adaptive schedules cannot be pure; they derive from
:class:`~repro.dynamics.adaptive.AdaptiveSchedule`, which records its
generated rounds for later verification.

Interval-aware adjacency reuse
------------------------------
The T-interval model's defining property — the graph is *stable across
whole windows of rounds* — is also a performance property: the engine
should not rebuild adjacency for rounds it can prove are identical.
:meth:`GraphSchedule.adjacency` follows one rule:

* serve the round from a **stable span** — :meth:`GraphSchedule.stable_until`
  is a schedule-specific hint, "the graph of round ``r`` is unchanged
  through round ``stable_until(r)``".  Constructive adversaries override
  it (a static graph is stable forever; an overlap-handoff window is
  stable to the window's end); adaptive schedules keep the conservative
  default ``r`` so every round is still generated and recorded;
* else fetch the round's edges and reuse the **previous round's** CSR when
  the two edge arrays are equal (compared exactly, so a reuse can never
  serve another graph);
* else build the CSR once.

The engine's tiers consume the CSR form directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._validate import require_positive_int
from ..errors import ConfigurationError, ScheduleError

__all__ = [
    "canonical_edges",
    "build_csr",
    "CSRAdjacency",
    "STABLE_FOREVER",
    "GraphSchedule",
    "ExplicitSchedule",
    "FunctionSchedule",
]

#: Sentinel round index meaning "this graph never changes again"; used by
#: :meth:`GraphSchedule.stable_until` overrides of static-flavoured
#: schedules.  Any real round index compares smaller.
STABLE_FOREVER = 2 ** 62


class CSRAdjacency:
    """Compressed-sparse-row adjacency of one round's graph.

    ``indices[indptr[j]:indptr[j+1]]`` are node ``j``'s neighbour indices
    in **ascending order** — the inbox order of the engine's reference
    tier, which is what keeps the batch tier's loss draws byte-identical
    to it.

    The object also memoizes the two derived forms the round loops want
    (the degree array for the batch tier's accounting, plain-Python
    neighbour lists for the reference tier's delivery), so the cost of
    materialising them is paid once per *distinct graph*, not once per
    round.
    """

    __slots__ = ("indptr", "indices", "num_nodes",
                 "_degrees", "_neighbor_lists")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 num_nodes: int) -> None:
        self.indptr = indptr
        self.indices = indices
        self.num_nodes = num_nodes
        self._degrees: Optional[np.ndarray] = None
        self._neighbor_lists: Optional[List[List[int]]] = None

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        """Degree of every node, as an int64 array (memoized)."""
        if self._degrees is None:
            indptr = self.indptr
            self._degrees = indptr[1:] - indptr[:-1]
        return self._degrees

    def neighbor_lists(self) -> List[List[int]]:
        """Per-node neighbour lists of plain Python ints (memoized).

        The engine's delivery loop indexes payload lists with these;
        plain ints avoid the per-element numpy-scalar boxing that
        dominates the reference path at large N.
        """
        if self._neighbor_lists is None:
            flat = self.indices.tolist()
            bounds = self.indptr.tolist()
            self._neighbor_lists = [
                flat[bounds[j]:bounds[j + 1]]
                for j in range(self.num_nodes)
            ]
        return self._neighbor_lists

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CSRAdjacency n={self.num_nodes} "
                f"m={self.num_edges}>")


def build_csr(edge_arr: np.ndarray, num_nodes: int) -> CSRAdjacency:
    """Build a :class:`CSRAdjacency` from a canonical edge array.

    Fully vectorized: both directions of every undirected edge are
    packed into one ``node * num_nodes + neighbour`` key and sorted once
    (keys are unique because canonical rows are), so each node's
    neighbour run comes out ascending — matching the ordering contract
    documented on :class:`CSRAdjacency`.
    """
    if edge_arr.size == 0:
        return CSRAdjacency(
            np.zeros(num_nodes + 1, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            num_nodes,
        )
    lo = edge_arr[:, 0].astype(np.int64)
    hi = edge_arr[:, 1].astype(np.int64)
    n = np.int64(num_nodes)
    keys = np.sort(np.concatenate([lo * n + hi, hi * n + lo]))
    indices = (keys % n).astype(np.int32)
    counts = np.bincount(keys // n, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRAdjacency(indptr, indices, num_nodes)


def canonical_edges(edges: object, num_nodes: int) -> np.ndarray:
    """Normalise *edges* into the canonical edge-array representation.

    Accepts any iterable of ``(u, v)`` pairs or an ``(m, 2)`` array.
    Self-loops are rejected; duplicate edges are merged; endpoints are
    validated against ``num_nodes``.  The result is read-only (see
    :func:`_keys_to_edges`).
    """
    return _keys_to_edges(_canonical_keys(edges, num_nodes), num_nodes)


def _canonical_keys(edges: object, num_nodes: int) -> np.ndarray:
    """Sorted distinct packed keys ``lo * num_nodes + hi`` of *edges*,
    validated as :func:`canonical_edges` documents."""
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                     dtype=np.int64)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ScheduleError(f"edge array must have shape (m, 2), got {arr.shape}")
    if (arr < 0).any() or (arr >= num_nodes).any():
        raise ScheduleError(
            f"edge endpoints must be in [0, {num_nodes}), got range "
            f"[{arr.min()}, {arr.max()}]"
        )
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if (lo == hi).any():
        raise ScheduleError("self-loops are not allowed")
    return _sorted_unique(lo * np.int64(num_nodes) + hi)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array.

    Sort plus an adjacent-difference mask: on the few hundred keys of a
    round this is several times faster than :func:`numpy.unique`, whose
    hash path pays a large fixed cost.
    """
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _keys_to_edges(keys: np.ndarray, num_nodes: int) -> np.ndarray:
    """Read-only canonical edge array of sorted unique packed keys.

    A key is ``lo * num_nodes + hi`` with ``lo < hi``; since
    ``hi < num_nodes``, numeric key order is lexicographic row order.
    The result is read-only because schedules memoize and share their
    edge arrays: a caller that wrote to one would corrupt later rounds.
    """
    canon = np.empty((len(keys), 2), dtype=np.int32)
    canon[:, 0] = keys // num_nodes
    canon[:, 1] = keys % num_nodes
    canon.flags.writeable = False
    return canon


class GraphSchedule:
    """Abstract base: a dynamic graph, one canonical edge array per round.

    Subclasses implement :meth:`edges`.  The base provides the CSR
    adjacency the engine consumes (:meth:`adjacency`).

    Attributes
    ----------
    num_nodes:
        Number of nodes (indices ``0 .. num_nodes-1``).
    interval:
        The value of ``T`` this schedule *promises* to satisfy
        (``interval=1`` promises only per-round connectivity; a static
        schedule may promise ``interval=None`` meaning "every T").
    """

    def __init__(self, num_nodes: int, interval: Optional[int] = 1) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        if interval is not None:
            require_positive_int(interval, "interval")
        self.interval = interval
        # (lo, hi, csr): rounds lo..hi are known to share `csr` — set from
        # the stable_until hint so stable windows skip edges() entirely
        self._adj_span: Optional[Tuple[int, int, CSRAdjacency]] = None
        # (edges, csr) of the last round adjacency() fetched edges for
        self._adj_last: Optional[Tuple[np.ndarray, CSRAdjacency]] = None
        #: Lifetime counters of :meth:`adjacency`: ``span_hits`` (served
        #: from a known-stable span without calling ``edges``),
        #: ``repeat_hits`` (same edges as the previous fetched round) and
        #: ``builds`` (CSR constructed).  The engine's observability
        #: layer reports per-run deltas of these as ``CacheEvent``\ s; at
        #: most a few increments per round, so they stay on
        #: unconditionally.
        self.adjacency_stats: Dict[str, int] = {
            "span_hits": 0, "repeat_hits": 0, "builds": 0,
        }

    # -- abstract -------------------------------------------------------------

    def edges(self, round_index: int) -> np.ndarray:
        """Canonical edge array of the graph for 1-based *round_index*."""
        raise NotImplementedError

    # -- stability hints ------------------------------------------------------

    def stable_until(self, round_index: int) -> int:
        """Last round through which the graph of *round_index* is unchanged.

        The stable-span contract: returning ``s >= round_index``
        promises ``edges(r) == edges(round_index)`` for every ``r`` in
        ``[round_index, s]``, letting :meth:`adjacency` serve the whole
        span from one build without re-querying :meth:`edges`.  The
        conservative default is ``round_index`` itself (no promise);
        schedules whose construction guarantees stability — static
        graphs, dwell blocks, the shared portion of overlap-handoff
        windows — override this.  Schedules with side effects on
        :meth:`edges` (adaptive recording) must **not** promise beyond
        ``round_index``.
        """
        return round_index

    # -- derived --------------------------------------------------------------

    def adjacency(self, round_index: int) -> CSRAdjacency:
        """CSR adjacency of the round's graph.

        Rounds inside a known-stable span (per :meth:`stable_until`)
        return the same :class:`CSRAdjacency` object without touching
        :meth:`edges`; a round whose edges equal those of the previous
        round fetched returns that round's object; any other round
        builds once.
        """
        stats = self.adjacency_stats
        span = self._adj_span
        if span is not None and span[0] <= round_index <= span[1]:
            stats["span_hits"] += 1
            return span[2]
        edge_arr = self.edges(round_index)
        last = self._adj_last
        if (last is not None and last[0].shape == edge_arr.shape
                and np.array_equal(last[0], edge_arr)):
            stats["repeat_hits"] += 1
            csr = last[1]
        else:
            stats["builds"] += 1
            csr = self._build_adjacency(round_index, edge_arr)
            self._adj_last = (edge_arr, csr)
        self._adj_span = (
            round_index, max(round_index, self.stable_until(round_index)), csr)
        return csr

    def _build_adjacency(self, round_index: int,
                         edge_arr: np.ndarray) -> CSRAdjacency:
        """CSR of round *round_index*, whose canonical edges are *edge_arr*.

        Called by :meth:`adjacency` when it must build.  Schedules that
        generate many rounds at once override it to serve a CSR they
        already built alongside the edges.
        """
        return build_csr(edge_arr, self.num_nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} n={self.num_nodes} "
                f"T={self.interval}>")


class ExplicitSchedule(GraphSchedule):
    """A schedule stored as an explicit per-round list of edge arrays.

    Parameters
    ----------
    num_nodes:
        Number of nodes.
    rounds:
        One edge collection per round, for rounds ``1 .. len(rounds)``.
    cycle:
        If true, round ``r`` beyond the stored horizon wraps around
        (``rounds[(r-1) % len(rounds)]``); if false, querying beyond the
        horizon raises :class:`~repro.errors.ScheduleError`.
    interval:
        The T the schedule claims to satisfy (verified by tests via
        :func:`~repro.dynamics.verifier.verify_t_interval_connectivity`).
    """

    def __init__(self, num_nodes: int, rounds: Sequence[object],
                 cycle: bool = False, interval: Optional[int] = 1) -> None:
        super().__init__(num_nodes, interval)
        if not rounds:
            raise ConfigurationError("rounds must be non-empty")
        self._rounds = [canonical_edges(e, num_nodes) for e in rounds]
        self.cycle = bool(cycle)
        self._run_end: Optional[List[int]] = None  # lazily computed

    @property
    def horizon(self) -> int:
        """Number of explicitly stored rounds."""
        return len(self._rounds)

    def stable_until(self, round_index: int) -> int:
        """End of the run of identical stored rounds containing *r*.

        Computed once by comparing each stored round with the next one
        exactly; conservative across the cycle wrap (a run never extends
        past the stored horizon).
        """
        rounds = self._rounds
        if len(rounds) == 1:
            return STABLE_FOREVER if self.cycle else round_index
        if self._run_end is None:
            run_end = [len(rounds) - 1] * len(rounds)
            for idx in range(len(rounds) - 2, -1, -1):
                if np.array_equal(rounds[idx], rounds[idx + 1]):
                    run_end[idx] = run_end[idx + 1]
                else:
                    run_end[idx] = idx
            self._run_end = run_end
        idx = round_index - 1
        if idx >= len(rounds):
            if not self.cycle:
                return round_index
            idx %= len(rounds)
        return round_index + (self._run_end[idx] - idx)

    def edges(self, round_index: int) -> np.ndarray:
        require_positive_int(round_index, "round_index")
        idx = round_index - 1
        if idx >= len(self._rounds):
            if not self.cycle:
                raise ScheduleError(
                    f"round {round_index} beyond explicit horizon "
                    f"{len(self._rounds)} (pass cycle=True to wrap)"
                )
            idx %= len(self._rounds)
        return self._rounds[idx]


class FunctionSchedule(GraphSchedule):
    """A schedule computed on demand by a pure function of the round index.

    Parameters
    ----------
    num_nodes:
        Number of nodes.
    fn:
        ``fn(round_index) -> edges``; must be deterministic (the engine and
        the verifier may both evaluate it for the same round).
    interval:
        The T the generator guarantees.
    stable_until:
        Optional stability hint ``fn(round_index) -> last_stable_round``
        (see :meth:`GraphSchedule.stable_until`); combinators use this to
        propagate the hints of the schedules they wrap.  Subclasses may
        equivalently override the method.
    """

    def __init__(self, num_nodes: int, fn: Callable[[int], object],
                 interval: Optional[int] = 1,
                 stable_until: Optional[Callable[[int], int]] = None) -> None:
        super().__init__(num_nodes, interval)
        self._fn = fn
        self._stable_until_fn = stable_until

    def stable_until(self, round_index: int) -> int:
        if self._stable_until_fn is not None:
            return self._stable_until_fn(round_index)
        return round_index

    def edges(self, round_index: int) -> np.ndarray:
        require_positive_int(round_index, "round_index")
        return canonical_edges(self._fn(round_index), self.num_nodes)

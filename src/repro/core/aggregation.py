"""The idempotent-aggregate engine.

A *commutative idempotent aggregate* (max, min, boolean OR, set union,
coordinate-wise minimum of a vector, …) has the property that repeated
merging of partial views never over-counts: ``merge(a, a) = a`` and order
does not matter.  In a dynamic network where every node broadcasts its
current partial aggregate every round and merges what it hears, node
``v``'s state after ``r`` rounds equals the merge of the contributions of
exactly the nodes whose information has *reached* ``v`` within ``r``
rounds — so **every node holds the exact global aggregate after precisely
``d`` rounds**, where ``d`` is the schedule's dynamic diameter
(:mod:`repro.dynamics.diameter` computes the same closure).  No ``Ω(N)``
term appears anywhere: the cost is communication only, ``d`` rounds of
state-sized messages.

What stops this from being a complete algorithm is *termination* — nodes
do not know ``d`` — which is exactly what
:class:`~repro.core.termination.QuiescenceController` adds.

:class:`AggregateNode` is the protocol node gluing an :class:`Aggregate`
to the controller; every problem front-end in :mod:`repro.core` is a thin
subclass of it.
"""

from __future__ import annotations

from typing import Any, Generic, List, Optional, TypeVar

import numpy as np

from .._validate import require_positive_int
from ..errors import ConfigurationError
from ..simnet.message import NodeId
from ..simnet.node import Algorithm, RoundContext
from .termination import QuiescenceController

S = TypeVar("S")

__all__ = [
    "Aggregate",
    "MaxAggregate",
    "IdSetAggregate",
    "MinVectorAggregate",
    "ProductAggregate",
    "AggregateNode",
]


class Aggregate(Generic[S]):
    """A commutative idempotent merge with a message encoding.

    Subclasses provide :meth:`merge` plus (when the natural in-memory
    state is not directly serialisable/costable) :meth:`encode` /
    :meth:`decode`.  ``merge`` must satisfy, for all states ``a, b, c``:

    * ``merge(a, b) == merge(b, a)``      (commutativity)
    * ``merge(a, a) == a``                 (idempotence)
    * ``merge(a, merge(b, c)) == merge(merge(a, b), c)``  (associativity)

    The property-based tests in ``tests/test_aggregates_properties.py``
    check these laws on random states for every concrete aggregate.
    """

    def merge(self, a: S, b: S) -> S:
        """Merge two partial aggregate states."""
        raise NotImplementedError

    def encode(self, state: S) -> Any:
        """State → broadcast payload (default: the state itself)."""
        return state

    def decode(self, payload: Any) -> S:
        """Broadcast payload → state (default: identity)."""
        return payload

    def equals(self, a: S, b: S) -> bool:
        """State equality (override when ``==`` is wrong, e.g. arrays)."""
        return a == b


class MaxAggregate(Aggregate):
    """Maximum of totally ordered values (ints, floats, tuples)."""

    def merge(self, a, b):
        return a if b is None else (b if a is None else max(a, b))


class IdSetAggregate(Aggregate):
    """Union of frozensets of node ids (exact information dissemination).

    The state grows up to the full id set; messages are whole sets, so
    this aggregate lives in the unbounded-bandwidth regime (like the KLO
    baseline it is benchmarked against).  ``encode`` sends a sorted tuple
    of :class:`~repro.simnet.message.NodeId` for stable bit costing.
    """

    def merge(self, a: frozenset, b: frozenset) -> frozenset:
        if a is None:
            return b
        if b is None:
            return a
        if b.issubset(a):
            return a  # preserve identity for cheap change detection
        return a | b

    def encode(self, state: frozenset) -> Any:
        return tuple(NodeId(x) for x in sorted(state))

    def decode(self, payload: Any) -> frozenset:
        return frozenset(payload)


class MinVectorAggregate(Aggregate):
    """Coordinate-wise minimum of fixed-width float vectors.

    The carrier of the count sketches: each node contributes its vector of
    exponential draws; the global coordinate-wise minimum determines the
    cardinality estimate.  States are ``numpy`` float64 arrays of a fixed
    width; encoding sends a tuple of floats (64 bits each under
    :func:`repro.simnet.message.bit_size`).
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        self.width = width

    def merge(self, a: Optional[np.ndarray], b: Optional[np.ndarray]):
        if a is None:
            return b
        if b is None:
            return a
        if (b >= a).all():
            return a  # no improvement: keep identity (change detection)
        return np.minimum(a, b)

    def encode(self, state: np.ndarray) -> Any:
        return tuple(float(x) for x in state)

    def decode(self, payload: Any) -> np.ndarray:
        arr = np.asarray(payload, dtype=np.float64)
        if arr.shape != (self.width,):
            raise ConfigurationError(
                f"expected a vector of width {self.width}, got {arr.shape}")
        return arr

    def equals(self, a, b) -> bool:
        if a is None or b is None:
            return a is b
        return bool((a == b).all())


class ProductAggregate(Aggregate):
    """Several aggregates run side by side; states are tuples of parts.

    Every method works part by part, and a product of commutative
    idempotent merges is one itself.  ``merge`` returns ``a`` itself when
    no part changed, the identity :class:`AggregateNode`'s encode cache
    and change detection rely on.
    """

    def __init__(self, *parts: Aggregate) -> None:
        self.parts = parts

    def merge(self, a: Optional[tuple], b: Optional[tuple]):
        if a is None:
            return b
        if b is None:
            return a
        merged = tuple(p.merge(x, y) for p, x, y in zip(self.parts, a, b))
        if all(m is x for m, x in zip(merged, a)):
            return a
        return merged

    def encode(self, state: tuple) -> Any:
        return tuple(p.encode(x) for p, x in zip(self.parts, state))

    def decode(self, payload: Any) -> tuple:
        return tuple(p.decode(x) for p, x in zip(self.parts, payload))

    def equals(self, a, b) -> bool:
        if a is None or b is None:
            return a is b
        return all(p.equals(x, y) for p, x, y in zip(self.parts, a, b))


class AggregateNode(Algorithm):
    """Protocol node: broadcast-and-merge an aggregate + quiescence control.

    Lifecycle per round: broadcast ``encode(state)``; merge all received
    payloads; report to the :class:`QuiescenceController` whether the
    state changed; adopt the controller's decide/retract verdicts, with
    the node's output computed by :meth:`extract_output`.

    The node's *contribution* (its own input in aggregate form) may need
    private randomness (sketch draws), so it is created lazily on the
    first ``compose`` via :meth:`make_contribution`, which receives the
    node's private generator.

    Parameters
    ----------
    node_id:
        Node id.
    aggregate:
        The aggregate to run.
    initial_window / window_growth:
        Quiescence-controller parameters (see
        :class:`~repro.core.termination.QuiescenceController`).
    """

    name = "aggregate"

    def __init__(self, node_id: int, aggregate: Aggregate,
                 initial_window: int = 1, window_growth: int = 2) -> None:
        super().__init__(node_id)
        self.aggregate = aggregate
        self.state: Any = None
        self._contributed = False
        self.controller = QuiescenceController(
            initial_window=initial_window, growth=window_growth)
        # encode() is re-run every round; merge() preserves object
        # identity on no-change, so caching by state identity removes the
        # dominant cost of long post-convergence phases (sorting/copying
        # large set states each round).
        self._encoded_state: Any = None
        self._encoded_payload: Any = None
        # Same story on the receive side: after convergence neighbours
        # re-send identical payload objects, so memoize decode by payload
        # identity (strong refs keep the ids valid).
        self._decode_cache: dict = {}

    # -- hooks for subclasses -------------------------------------------------

    def make_contribution(self, rng: np.random.Generator) -> Any:
        """The node's own input as an aggregate state."""
        raise NotImplementedError

    def extract_output(self, state: Any) -> Any:
        """Map the (believed-global) aggregate state to the problem output."""
        raise NotImplementedError

    # -- protocol ---------------------------------------------------------------

    def compose(self, ctx: RoundContext) -> Any:
        if not self._contributed:
            self.state = self.aggregate.merge(
                self.state, self.make_contribution(ctx.rng))
            self._contributed = True
        if self.state is None:
            return None
        if self.state is not self._encoded_state:
            self._encoded_state = self.state
            self._encoded_payload = self.aggregate.encode(self.state)
        return self._encoded_payload

    def _merge_inbox(self, inbox: List[Any]) -> bool:
        """Merge every payload of *inbox* into the state; returns (and
        marks) whether the state changed."""
        old = self.state
        state = old
        cache = self._decode_cache
        for payload in inbox:
            entry = cache.get(id(payload))
            if entry is not None and entry[0] is payload:
                decoded = entry[1]
            else:
                decoded = self.aggregate.decode(payload)
                if len(cache) >= 64:
                    cache.clear()
                cache[id(payload)] = (payload, decoded)
            state = self.aggregate.merge(state, decoded)
        changed = not (
            state is old or self.aggregate.equals(state, old))
        if changed:
            self.state = state
        self.mark_changed(changed)
        return changed

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        self.controller.settle(self, ctx, self._merge_inbox(inbox),
                               lambda: self.extract_output(self.state))


class KnownBoundAggregateNode(AggregateNode):
    """Halting variant: decide after a known round bound ``rounds_bound``.

    Correct whenever ``rounds_bound >= d`` (the known-diameter-bound
    knowledge model): by flood closure the state is the global aggregate
    by round ``d``.  Unlike :class:`AggregateNode` this node truly
    **halts**, which is what a known upper bound buys (see the
    termination discussion in :mod:`repro.core.termination`).  Run with
    ``rounds_bound = N - 1`` it is the folklore known-``N`` flood, the
    ``Θ(N)``-round baseline; with ``rounds_bound < d`` some nodes may
    decide a wrong value.  *rounds_bound* must be an ``int >= 1``
    (:class:`~repro.errors.ConfigurationError` otherwise).
    """

    name = "aggregate_known_bound"

    def __init__(self, node_id: int, aggregate: Aggregate,
                 rounds_bound: int) -> None:
        super().__init__(node_id, aggregate)
        self.rounds_bound = require_positive_int(rounds_bound, "rounds_bound")

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        self._merge_inbox(inbox)
        if ctx.round_index >= self.rounds_bound:
            self.decide(self.extract_output(self.state))
            self.halt()

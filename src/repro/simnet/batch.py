"""The batch tier: struct-of-arrays kernels, CSR segment-reduce delivery.

The engine's per-node fast path (see :mod:`repro.simnet.rounds`)
still makes one Python ``compose()`` and one ``deliver()`` call per
active node per round, so for the aggregate-style algorithms the
*algorithm layer* dominates at large ``N``.  Their per-round updates,
however, are associative reductions over neighbour payloads — max,
boolean OR, set union, coordinate-wise min — which evaluate in one shot
as NumPy segment-reduces over the CSR adjacency the fast engine already
caches.  The KLO and random token-dissemination baselines fit the same
mould: phase-structured min-folds, and per-node RNG picks of set bits
(see the baseline kernels below).

This module defines the opt-in **batch kernel protocol**:

* an algorithm class exposes a classmethod hook ``__batch_kernel__(nodes)``
  returning a :class:`BatchKernel` (or ``None`` when the
  concrete node population is not eligible — heterogeneous bounds,
  exotic state types, subclasses with overridden semantics);
* the kernel holds the whole population's state as struct-of-arrays
  (values, bitsets, sketch matrices, decided flags, quiescence windows)
  and implements ``compose``/``deliver`` over the entire active set;
* the engine engages the kernel when :func:`repro.simnet.engine.select_tier`
  picks the batch tier for a run; :func:`run_batch_round` reconciles
  decisions/halts/metrics from the arrays, and :func:`deactivate_batch`
  writes the state back into the node objects before anything else can
  observe them.

Equivalence contract
--------------------
A kernel must be *bit-for-bit* equivalent to running the per-node
``compose``/``deliver`` fold: same per-round changed flags (quiescence),
same decide/retract/halt events with the same values, the same payload
bit costs (:func:`repro.simnet.message.bit_size` of the per-node
encoding), and the same per-node RNG draws, leaving every stream where
the per-node path does (see :class:`BatchContext`).  The three-way golden
grid in ``tests/test_fastpath_equivalence.py`` and the fold-matching
property tests in ``tests/test_batch_kernels.py`` enforce this.

The contract covers node state only for rounds that complete.  When a
round raises :class:`~repro.errors.AlgorithmViolation` (the KLO
kernel's dissemination check), the tiers agree on the error's wording
and on the round it is raised in, but not on node state.  The kernel
raises before the round writes any state; the per-node tiers have by
then delivered to, advanced and possibly decided or halted every node
with a lower index than the raising one.

Message loss
------------
The batch tier executes lossy runs (``loss_rate > 0``) natively: the
per-edge Bernoulli keep mask is drawn **vectorised** from the shared
``"loss"`` RNG stream and applied by handing every kernel a filtered
*delivery view* of the round's CSR (:func:`lossy_delivery_view`).  The
draw order is bit-identical to the per-node engines' — those draw
``rng.random(len(inbox))`` per non-halted receiver in ascending receiver
order, where each inbox holds exactly the payload-bearing edges of the
receiver's CSR row in row order; since NumPy's ``Generator.random``
consumes one state increment per double, one flat draw over the
concatenated sender-edges reproduces the per-receiver stream exactly.
Broadcast accounting stays on the *unfiltered* CSR (loss happens at
delivery; ``delivered_messages`` counts pre-loss degrees, exactly as the
per-node paths do), and the total dropped count feeds the same
``messages_lost`` counter.

Segment reduction over CSR
--------------------------
``np.ufunc.reduceat(data, indptr[:-1])`` mishandles empty segments (it
returns ``data[start]`` for them), so :func:`segment_reduce` passes only
the *non-empty* starts: consecutive non-empty starts span the empty
segments between them correctly, and the results scatter back through
the non-empty mask while empty segments keep the receiver's own state —
exactly the semantics of a node with an empty inbox.  When every inbox
is non-empty, as on any connected round, the reduction folds straight
into the receivers' rows.
"""

from __future__ import annotations

from time import perf_counter
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..errors import AlgorithmViolation
from .message import ID_BITS, bit_size

__all__ = [
    "BatchContext",
    "BatchKernel",
    "BatchQuiescence",
    "build_batch_kernel",
    "engage_batch",
    "run_batch_round",
    "deactivate_batch",
    "aggregate_batch_kernel",
    "lossy_delivery_view",
    "segment_reduce",
    "segment_counts",
    "int_payload_bits",
    "popcount64",
    "MaxBatchKernel",
    "IdSetBatchKernel",
    "MinVectorBatchKernel",
    "FloodMaxBatchKernel",
    "FloodTokenBatchKernel",
    "FloodBroadcastBatchKernel",
    "TokenBatchKernel",
    "KCommitteeBatchKernel",
]

#: Events a kernel reports back: ``(kind, node_index, value)`` with kind
#: one of ``"decide"`` / ``"retract"`` / ``"halt"`` (value ``None`` for
#: the latter two), in ascending node-index order per kind.
Events = List[Tuple[str, int, Any]]

#: Sentinel for "no value" in int64 payload arrays; larger than any
#: eligible real value (eligibility requires ``|v| < 2**62``).
_INT_SENTINEL = np.int64(2 ** 62)

_CONTAINER_FRAMING_BITS = 8  # matches repro.simnet.message


# --------------------------------------------------------------------------
# numeric helpers
# --------------------------------------------------------------------------

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    def popcount64(x: np.ndarray) -> np.ndarray:
        """Per-element population count of a uint64 array (int64 result)."""
        return np.bitwise_count(x).astype(np.int64)
else:  # pragma: no cover - exercised only on numpy < 2
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

    def popcount64(x: np.ndarray) -> np.ndarray:
        """Per-element population count of a uint64 array (int64 result)."""
        flat = np.ascontiguousarray(x).view(np.uint8)
        return _POP8[flat].reshape(x.shape + (8,)).sum(axis=-1)


#: ``2**0 … 2**63`` as unsigned words: the bit length of ``x >= 0`` is the
#: number of entries ``<= x``.
_POWERS_OF_TWO = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def int_payload_bits(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`~repro.simnet.message.bit_size` for int payloads.

    ``bit_size(int)`` is ``max(1, v.bit_length()) + 1``; Python's
    ``bit_length`` of a negative int is that of its absolute value.  The
    bit length is one ``searchsorted`` of the magnitudes' ``uint64`` view
    in the powers of two, integer comparisons only, so it is exact over
    all of ``int64`` (``np.abs(-2**63)`` wraps to ``-2**63``, whose view
    is ``2**63``).  Float tricks (``frexp``/``log2``) are inexact near
    the 2**53 mantissa boundary and would silently mis-cost large
    payloads.
    """
    magnitudes = np.abs(values.astype(np.int64, copy=False)).view(np.uint64)
    lengths = np.searchsorted(_POWERS_OF_TWO, magnitudes, side="right")
    return np.maximum(lengths, 1) + 1


def segment_reduce(ufunc: np.ufunc, data: np.ndarray, indptr: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Merge per-segment reductions of *data* into *out* (in place).

    ``data`` holds one row per delivered message in receiver-grouped CSR
    order; segment ``j`` is ``data[indptr[j]:indptr[j+1]]``.  ``out``
    must be pre-initialised with each receiver's own state: non-empty
    segments are reduced with *ufunc* and merged into the receiver's row
    (again with *ufunc*), empty segments — empty inboxes — are left
    untouched.
    """
    starts = indptr[:-1]
    nonempty = indptr[1:] > starts
    if nonempty.all():  # every inbox heard something (a connected round)
        ufunc(out, ufunc.reduceat(data, starts, axis=0), out=out)
        return out
    if not nonempty.any():
        return out
    reduced = ufunc.reduceat(data, starts[nonempty], axis=0)
    out[nonempty] = ufunc(out[nonempty], reduced)
    return out


def segment_counts(values: np.ndarray, indptr: np.ndarray,
                   indices: np.ndarray) -> np.ndarray:
    """Per-receiver sum of ``values[sender]`` over its CSR neighbours.

    Uses a prefix sum (cumsum is total, so empty segments need no
    special-casing, unlike ``reduceat``).
    """
    cum = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(values[indices], out=cum[1:])
    return cum[indptr[1:]] - cum[indptr[:-1]]


# --------------------------------------------------------------------------
# lossy delivery views
# --------------------------------------------------------------------------

class _DeliveryView:
    """A filtered CSR the kernels consume in place of the round's graph.

    Kernels read only ``indices`` / ``indptr``, so a loss-filtered (or
    sender-filtered) edge set presents as an ordinary CSR — no kernel
    needs to know loss exists.
    """

    __slots__ = ("indices", "indptr")

    def __init__(self, indices: np.ndarray, indptr: np.ndarray) -> None:
        self.indices = indices
        self.indptr = indptr


def lossy_delivery_view(csr: Any, sender_mask: Optional[np.ndarray],
                        loss_rng: np.random.Generator,
                        loss_rate: float) -> Tuple[Any, int]:
    """Draw the round's per-edge Bernoulli loss; returns ``(view, dropped)``.

    The keep mask is drawn over the *sender-bearing* edges (edges whose
    sender broadcast this round) in CSR row-major order — exactly the
    concatenation of the per-receiver inboxes the per-node engines draw
    over, receiver-ascending with in-row inbox order, so the shared
    ``"loss"`` stream is consumed bit-identically.  The returned view's
    rows contain only the kept sender edges; receivers whose inbox was
    emptied become empty CSR segments, which every kernel already treats
    as "keep your own state".
    """
    indices = csr.indices
    indptr = csr.indptr
    if sender_mask is None:
        edge_has_sender = None
        sender_edges = indices
    else:
        edge_has_sender = sender_mask[indices]
        sender_edges = indices[edge_has_sender]
    total = int(sender_edges.shape[0])
    if total == 0:
        empty_indptr = np.zeros(len(indptr), dtype=np.int64)
        return _DeliveryView(indices[:0], empty_indptr), 0
    kept = loss_rng.random(total) >= loss_rate
    dropped = total - int(kept.sum())
    if edge_has_sender is None:
        if dropped == 0:
            return csr, 0
        kept_edges = kept
    else:
        kept_edges = np.zeros(indices.shape[0], dtype=bool)
        kept_edges[edge_has_sender] = kept
    cum = np.zeros(indices.shape[0] + 1, dtype=np.int64)
    np.cumsum(kept_edges, out=cum[1:])
    return _DeliveryView(indices[kept_edges], cum[indptr]), dropped


# --------------------------------------------------------------------------
# the protocol
# --------------------------------------------------------------------------

class BatchContext:
    """Round information handed to a batch kernel by the engine.

    Mirrors :class:`~repro.simnet.node.RoundContext` at the population
    level: the 1-based ``round_index``, the per-node private generators
    (``rngs[i]`` is node *i*'s stream), and the run-level counter hook
    ``incr``.  A kernel must draw the values the per-node path would,
    and by the time :meth:`BatchKernel.finalize` returns every stream
    must stand where the per-node path leaves it.  In between a stream
    may run ahead (see :class:`_BoundedDraws`): no other party draws
    from the node streams while a kernel is engaged.
    """

    __slots__ = ("round_index", "rngs", "incr")

    def __init__(self, round_index: int,
                 rngs: Sequence[np.random.Generator],
                 incr: Callable[..., None]) -> None:
        self.round_index = round_index
        self.rngs = rngs
        self.incr = incr


class BatchKernel:
    """Base class for whole-population round kernels.

    Subclasses maintain struct-of-arrays state for all ``n`` nodes and
    implement:

    * :meth:`compose` — advance the compose phase for every node at
      once, returning ``(sender_mask, bits)``: a boolean mask of nodes
      that broadcast this round (``None`` means *everyone*) and an int64
      array of per-node payload bit costs (read only at sender
      positions), exactly matching ``bit_size(node.compose(ctx))``;
    * :meth:`deliver` — fold every inbox via the CSR in one shot,
      returning ``(changed_any, events)`` where ``changed_any`` mirrors
      the engine's quiescence tracking (true iff any node's
      ``mark_changed(True)``) and *events* reports the round's
      decide/retract/halt lifecycle per node index;
    * :meth:`finalize` — write the array state back into the node
      objects (state, controller fields, changed flags), so that after
      the engine leaves batch mode the nodes are indistinguishable from
      having run the per-node path.

    The ``decided`` attribute (bool array) must mirror
    ``node._decided`` at all times — the engine's stop conditions read
    it instead of touching the node objects.
    """

    decided: np.ndarray

    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        raise NotImplementedError

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        raise NotImplementedError

    def finalize(self, nodes: Sequence[Any]) -> None:
        raise NotImplementedError


def build_batch_kernel(nodes: Sequence[Any]
                       ) -> Tuple[Optional[BatchKernel], str]:
    """Build a kernel for a homogeneous, eligible node population.

    Returns ``(kernel, "")``, or ``(None, reason)`` — and the engine
    stays on the per-node fast path — when the population is empty or
    heterogeneous, any node has already halted, the class exposes no
    ``__batch_kernel__`` hook, or the hook itself declines (state it
    cannot represent exactly).  *reason* is the clause the engine's
    ``engine_tier`` events carry.
    """
    if not nodes:
        return None, "empty node population"
    cls = type(nodes[0])
    hook = getattr(cls, "__batch_kernel__", None)
    if hook is None:
        return None, f"{cls.__name__} exposes no __batch_kernel__ hook"
    for node in nodes:
        if type(node) is not cls:
            return None, (f"heterogeneous population "
                          f"({cls.__name__} + {type(node).__name__})")
        if node._halted:
            return None, "population already contains halted nodes"
    kernel: Optional[BatchKernel] = hook(nodes)
    if kernel is None:
        return None, (f"{cls.__name__}.__batch_kernel__ declined the "
                      f"population (state it cannot represent exactly)")
    return kernel, ""


# --------------------------------------------------------------------------
# vectorised quiescence controller
# --------------------------------------------------------------------------

class BatchQuiescence:
    """Struct-of-arrays mirror of per-node ``QuiescenceController`` state.

    :meth:`observe` advances every node's controller one round and
    returns the ``(decide, retract)`` verdict masks; the update rule is
    the exact vectorisation of
    :meth:`repro.core.termination.QuiescenceController.observe`.
    """

    __slots__ = ("growth", "window", "quiet", "holding", "retractions")

    def __init__(self, controllers: Sequence[Any]) -> None:
        self.growth = controllers[0].growth
        self.window = np.array([c.window for c in controllers],
                               dtype=np.int64)
        self.quiet = np.array([c.quiet_streak for c in controllers],
                              dtype=np.int64)
        self.holding = np.array([c.holding for c in controllers], dtype=bool)
        self.retractions = np.array([c.retraction_count for c in controllers],
                                    dtype=np.int64)

    @classmethod
    def from_controllers(cls, controllers: Sequence[Any]
                         ) -> "Optional[BatchQuiescence]":
        growth = controllers[0].growth
        if any(c.growth != growth for c in controllers):
            return None
        return cls(controllers)

    def observe(self, changed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        retract = changed & self.holding
        np.add(self.quiet, 1, out=self.quiet)
        self.quiet[changed] = 0
        self.holding &= ~changed
        if retract.any():
            self.retractions[retract] += 1
            self.window[retract] *= self.growth
        decide = ~changed & ~self.holding & (self.quiet >= self.window)
        self.holding |= decide
        return decide, retract

    def restore(self, controllers: Sequence[Any]) -> None:
        window = self.window.tolist()
        quiet = self.quiet.tolist()
        holding = self.holding.tolist()
        retractions = self.retractions.tolist()
        for i, controller in enumerate(controllers):
            controller.window = window[i]
            controller.quiet_streak = quiet[i]
            controller.holding = holding[i]
            controller.retraction_count = retractions[i]


# --------------------------------------------------------------------------
# aggregate-family kernels (SublinearMax / ExactCount / ApproxCount + the
# *KnownBound halting variants)
# --------------------------------------------------------------------------

def _uniform_contributed(nodes: Sequence[Any]) -> Optional[bool]:
    """All-or-nothing ``_contributed`` flag, or ``None`` when mixed."""
    first = nodes[0]._contributed
    if any(node._contributed is not first for node in nodes):
        return None
    return bool(first)


class _AggregateKernel(BatchKernel):
    """Common decide/retract/halt plumbing for aggregate-style kernels.

    Subclasses supply the array representation: ``_contribute`` (first
    compose — must draw from ``ctx.rngs`` in ascending node order),
    ``_merge`` (one delivery fold, returns the per-node changed mask),
    ``_bits`` (per-node payload cost), ``_output`` (decide value for one
    node), and ``_restore_state`` (write node *i*'s state back).
    """

    def __init__(self, algs: Sequence[Any],
                 controller: Optional[BatchQuiescence],
                 rounds_bound: Optional[int]) -> None:
        self._algs = list(algs)
        self.n = len(algs)
        self.name = type(algs[0]).name
        self.controller = controller
        self.rounds_bound = rounds_bound
        self.decided = np.array([a._decided for a in algs], dtype=bool)
        self.changed_last = np.array([a._state_changed for a in algs],
                                     dtype=bool)
        self._need_contribution = not algs[0]._contributed

    # hooks ------------------------------------------------------------------
    def _contribute(self, ctx: BatchContext) -> None:
        raise NotImplementedError

    def _merge(self, csr: Any) -> np.ndarray:
        raise NotImplementedError

    def _bits(self) -> np.ndarray:
        raise NotImplementedError

    def _output(self, i: int) -> Any:
        raise NotImplementedError

    def _restore_state(self, node: Any, i: int) -> None:
        raise NotImplementedError

    # protocol ---------------------------------------------------------------
    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        if self._need_contribution:
            self._contribute(ctx)
            self._need_contribution = False
        return None, self._bits()

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        changed = self._merge(csr)
        self.changed_last = changed
        events: Events = []
        if self.controller is not None:
            decide, retract = self.controller.observe(changed)
            if retract.any():
                # The per-node path bumps the counter on every retract
                # verdict but emits the event only when actually decided.
                ctx.incr(f"{self.name}.retractions", int(retract.sum()))
                retract_ev = retract & self.decided
                self.decided &= ~retract
                for i in np.nonzero(retract_ev)[0].tolist():
                    events.append(("retract", i, None))
            decide &= ~self.decided
            if decide.any():
                self.decided |= decide
                for i in np.nonzero(decide)[0].tolist():
                    events.append(("decide", i, self._output(i)))
        elif ctx.round_index >= self.rounds_bound:
            for i in range(self.n):
                events.append(("decide", i, self._output(i)))
                events.append(("halt", i, None))
            self.decided[:] = True
        return bool(changed.any()), events

    def finalize(self, nodes: Sequence[Any]) -> None:
        changed = self.changed_last.tolist()
        contributed = not self._need_contribution
        for i, node in enumerate(nodes):
            self._restore_state(node, i)
            node._contributed = contributed
            node._state_changed = changed[i]
        if self.controller is not None:
            self.controller.restore([node.controller for node in nodes])


def _eligible_int(value: Any) -> bool:
    """Exactly-int payloads the int64 kernels can cost and compare."""
    return type(value) is int and -2 ** 62 < value < 2 ** 62


class MaxBatchKernel(_AggregateKernel):
    """Segment-max kernel for the ``MaxAggregate`` family (int values)."""

    def __init__(self, algs: Sequence[Any],
                 controller: Optional[BatchQuiescence],
                 rounds_bound: Optional[int],
                 values: np.ndarray, state: Optional[np.ndarray]) -> None:
        super().__init__(algs, controller, rounds_bound)
        self._values = values
        self._state = state

    @classmethod
    def build(cls, algs: Sequence[Any],
              controller: Optional[BatchQuiescence],
              rounds_bound: Optional[int]) -> "Optional[MaxBatchKernel]":
        contributed = _uniform_contributed(algs)
        if contributed is None:
            return None
        if not all(_eligible_int(a.value) for a in algs):
            return None
        values = np.array([a.value for a in algs], dtype=np.int64)
        if contributed:
            if not all(_eligible_int(a.state) for a in algs):
                return None
            state = np.array([a.state for a in algs], dtype=np.int64)
        else:
            if any(a.state is not None for a in algs):
                return None
            state = None
        return cls(algs, controller, rounds_bound, values, state)

    def _contribute(self, ctx: BatchContext) -> None:
        # make_contribution returns self.value and draws nothing; the
        # merge with the (None) initial state is the value itself.
        self._state = self._values.copy()

    def _merge(self, csr: Any) -> np.ndarray:
        gathered = self._state[csr.indices]
        new = self._state.copy()
        segment_reduce(np.maximum, gathered, csr.indptr, new)
        changed = new > self._state
        self._state = new
        return changed

    def _bits(self) -> np.ndarray:
        return int_payload_bits(self._state)

    def _output(self, i: int) -> int:
        return int(self._state[i])

    def _restore_state(self, node: Any, i: int) -> None:
        node.state = int(self._state[i]) if self._state is not None else None


class IdSetBatchKernel(_AggregateKernel):
    """uint64-bitset kernel for the id-set union family (exact Count)."""

    def __init__(self, algs: Sequence[Any],
                 controller: Optional[BatchQuiescence],
                 rounds_bound: Optional[int],
                 ids: List[int], rows: Optional[np.ndarray]) -> None:
        super().__init__(algs, controller, rounds_bound)
        self._ids = np.array(ids, dtype=np.int64)
        self._rows = rows  # (n, W) uint64, None before contribution
        self._words = (self.n + 63) // 64

    @classmethod
    def build(cls, algs: Sequence[Any],
              controller: Optional[BatchQuiescence],
              rounds_bound: Optional[int]) -> "Optional[IdSetBatchKernel]":
        contributed = _uniform_contributed(algs)
        if contributed is None:
            return None
        ids = [a.node_id for a in algs]
        pos = {node_id: k for k, node_id in enumerate(ids)}
        n, words = len(algs), (len(algs) + 63) // 64
        rows: Optional[np.ndarray] = None
        if contributed:
            rows = np.zeros((n, words), dtype=np.uint64)
            for i, alg in enumerate(algs):
                state = alg.state
                if not isinstance(state, frozenset):
                    return None
                for member in state:
                    k = pos.get(member)
                    if k is None:  # id outside the population: bail
                        return None
                    rows[i, k >> 6] |= np.uint64(1) << np.uint64(k & 63)
        elif any(a.state is not None for a in algs):
            return None
        return cls(algs, controller, rounds_bound, ids, rows)

    def _contribute(self, ctx: BatchContext) -> None:
        rows = np.zeros((self.n, self._words), dtype=np.uint64)
        k = np.arange(self.n)
        rows[k, k >> 6] = np.uint64(1) << (k & 63).astype(np.uint64)
        self._rows = rows

    def _merge(self, csr: Any) -> np.ndarray:
        gathered = self._rows[csr.indices]
        new = self._rows.copy()
        segment_reduce(np.bitwise_or, gathered, csr.indptr, new)
        changed = (new != self._rows).any(axis=1)
        self._rows = new
        return changed

    def _counts(self) -> np.ndarray:
        return popcount64(self._rows).sum(axis=1)

    def _bits(self) -> np.ndarray:
        return _CONTAINER_FRAMING_BITS + ID_BITS * self._counts()

    def _output(self, i: int) -> int:
        return int(popcount64(self._rows[i]).sum())

    def finalize(self, nodes: Sequence[Any]) -> None:
        self._members = None
        if self._rows is not None:
            unpacked = np.unpackbits(
                np.ascontiguousarray(self._rows).view(np.uint8),
                bitorder="little").reshape(self.n, -1)
            self._members = unpacked
        super().finalize(nodes)

    def _restore_state(self, node: Any, i: int) -> None:
        if self._rows is None:
            node.state = None
            return
        positions = np.nonzero(self._members[i][:self.n])[0]
        node.state = frozenset(self._ids[positions].tolist())


class MinVectorBatchKernel(_AggregateKernel):
    """Coordinate-wise-minimum kernel for the sketch family (approx Count)."""

    def __init__(self, algs: Sequence[Any],
                 controller: Optional[BatchQuiescence],
                 rounds_bound: Optional[int],
                 width: int, matrix: Optional[np.ndarray]) -> None:
        super().__init__(algs, controller, rounds_bound)
        self.width = width
        self._matrix = matrix  # (n, width) float64, None before contribution

    @classmethod
    def build(cls, algs: Sequence[Any],
              controller: Optional[BatchQuiescence],
              rounds_bound: Optional[int]) -> "Optional[MinVectorBatchKernel]":
        contributed = _uniform_contributed(algs)
        if contributed is None:
            return None
        width = algs[0].aggregate.width
        if any(a.aggregate.width != width for a in algs):
            return None
        matrix: Optional[np.ndarray] = None
        if contributed:
            states = [a.state for a in algs]
            if any(not isinstance(s, np.ndarray) or s.shape != (width,)
                   for s in states):
                return None
            matrix = np.array(states, dtype=np.float64)
        elif any(a.state is not None for a in algs):
            return None
        return cls(algs, controller, rounds_bound, width, matrix)

    def _contribute(self, ctx: BatchContext) -> None:
        # One draw per node from its private stream, ascending node
        # order — byte-identical RNG consumption to the per-node path.
        rows = [alg.make_contribution(ctx.rngs[i])
                for i, alg in enumerate(self._algs)]
        self._matrix = np.array(rows, dtype=np.float64)

    def _merge(self, csr: Any) -> np.ndarray:
        gathered = self._matrix[csr.indices]
        new = self._matrix.copy()
        segment_reduce(np.minimum, gathered, csr.indptr, new)
        changed = (new < self._matrix).any(axis=1)
        self._matrix = new
        return changed

    def _bits(self) -> np.ndarray:
        bits = _CONTAINER_FRAMING_BITS + 64 * self.width
        return np.full(self.n, bits, dtype=np.int64)

    def _output(self, i: int) -> float:
        return self._algs[i].sketch.estimate(self._matrix[i])

    def _restore_state(self, node: Any, i: int) -> None:
        node.state = (self._matrix[i].copy()
                      if self._matrix is not None else None)


def aggregate_batch_kernel(build: Callable[..., Optional[BatchKernel]],
                           nodes: Sequence[Any], *,
                           known_bound: bool) -> Optional[BatchKernel]:
    """Shared eligibility plumbing for the aggregate-family hooks.

    *build* is a ``SomeKernel.build``-shaped callable taking
    ``(nodes, controller, rounds_bound)``.  Stabilizing populations get a
    :class:`BatchQuiescence` (bailing on mixed growth factors); halting
    populations require a uniform ``rounds_bound`` — staggered halting
    would break the kernels' all-alive invariant.
    """
    if known_bound:
        bound = nodes[0].rounds_bound
        if any(node.rounds_bound != bound for node in nodes):
            return None
        return build(nodes, None, bound)
    controller = BatchQuiescence.from_controllers(
        [node.controller for node in nodes])
    if controller is None:
        return None
    return build(nodes, controller, None)


# --------------------------------------------------------------------------
# flooding kernels
# --------------------------------------------------------------------------

class FloodMaxBatchKernel(BatchKernel):
    """Segment-max kernel for the known-bound flooding Max baseline."""

    def __init__(self, algs: Sequence[Any], best: np.ndarray,
                 rounds_bound: int) -> None:
        self._algs = list(algs)
        self.n = len(algs)
        self.rounds_bound = rounds_bound
        self._best = best
        self.decided = np.array([a._decided for a in algs], dtype=bool)
        self.changed_last = np.array([a._state_changed for a in algs],
                                     dtype=bool)

    @classmethod
    def build(cls, algs: Sequence[Any]) -> "Optional[FloodMaxBatchKernel]":
        bound = algs[0].rounds_bound
        if any(a.rounds_bound != bound for a in algs):
            return None
        if not all(_eligible_int(a.best) for a in algs):
            return None
        best = np.array([a.best for a in algs], dtype=np.int64)
        return cls(algs, best, bound)

    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        return None, int_payload_bits(self._best)

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        gathered = self._best[csr.indices]
        new = self._best.copy()
        segment_reduce(np.maximum, gathered, csr.indptr, new)
        changed = new > self._best
        self._best = new
        self.changed_last = changed
        events: Events = []
        if ctx.round_index >= self.rounds_bound:
            best = self._best.tolist()
            for i in range(self.n):
                events.append(("decide", i, best[i]))
                events.append(("halt", i, None))
            self.decided[:] = True
        return bool(changed.any()), events

    def finalize(self, nodes: Sequence[Any]) -> None:
        best = self._best.tolist()
        changed = self.changed_last.tolist()
        for i, node in enumerate(nodes):
            node.best = best[i]
            node._state_changed = changed[i]


class FloodTokenBatchKernel(BatchKernel):
    """Boolean-OR reach kernel for epidemic token dissemination."""

    def __init__(self, algs: Sequence[Any], informed: np.ndarray) -> None:
        self._algs = list(algs)
        self.n = len(algs)
        self._informed = informed
        self.decided = informed.copy()
        self.changed_last = np.array([a._state_changed for a in algs],
                                     dtype=bool)
        self._ones = np.ones(self.n, dtype=np.int64)

    @classmethod
    def build(cls, algs: Sequence[Any]) -> "Optional[FloodTokenBatchKernel]":
        # A token node is decided exactly when informed; anything else
        # means hand-modified state the kernel cannot represent.
        if any(bool(a.informed) != bool(a._decided) for a in algs):
            return None
        informed = np.array([a.informed for a in algs], dtype=bool)
        return cls(algs, informed)

    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        return self._informed, self._ones

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        heard = segment_counts(self._informed, csr.indptr, csr.indices)
        newly = ~self._informed & (heard > 0)
        events: Events = []
        if newly.any():
            self._informed = self._informed | newly
            self.decided |= newly
            for i in np.nonzero(newly)[0].tolist():
                events.append(("decide", i, True))
        self.changed_last = newly
        return bool(newly.any()), events

    def finalize(self, nodes: Sequence[Any]) -> None:
        informed = self._informed.tolist()
        changed = self.changed_last.tolist()
        for i, node in enumerate(nodes):
            node.informed = informed[i]
            node._state_changed = changed[i]


class FloodBroadcastBatchKernel(BatchKernel):
    """Min-source-id reach kernel for the known-bound broadcast baseline."""

    def __init__(self, algs: Sequence[Any], sid: np.ndarray,
                 payload_by_sid: Dict[int, tuple],
                 bits_by_sid: Dict[int, int], rounds_bound: int) -> None:
        self._algs = list(algs)
        self.n = len(algs)
        self.rounds_bound = rounds_bound
        self._sid = sid                    # int64; _INT_SENTINEL == no payload
        self._payload_by_sid = payload_by_sid  # preserves tuple identity
        self._bits_by_sid = bits_by_sid
        self._bits = np.array([bits_by_sid.get(s, 0) for s in sid.tolist()],
                              dtype=np.int64)
        self.decided = np.array([a._decided for a in algs], dtype=bool)
        self.changed_last = np.array([a._state_changed for a in algs],
                                     dtype=bool)

    @classmethod
    def build(cls, algs: Sequence[Any]
              ) -> "Optional[FloodBroadcastBatchKernel]":
        bound = algs[0].rounds_bound
        if any(a.rounds_bound != bound for a in algs):
            return None
        sid = np.full(len(algs), _INT_SENTINEL, dtype=np.int64)
        payload_by_sid: Dict[int, tuple] = {}
        bits_by_sid: Dict[int, int] = {}
        for i, alg in enumerate(algs):
            best = alg.best
            if best is None:
                continue
            source = int(best[0])
            if not -2 ** 62 < source < 2 ** 62:
                return None
            sid[i] = source
            if source not in payload_by_sid:
                payload_by_sid[source] = best
                try:
                    bits_by_sid[source] = bit_size(best)
                    # The per-node path compares (source, payload) tuples
                    # and raises for unorderable payloads when the same
                    # source is heard twice; mirror by refusing them.
                    best < best
                except TypeError:
                    return None  # per-node path defines the behaviour
        return cls(algs, sid, payload_by_sid, bits_by_sid, bound)

    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        return self._sid != _INT_SENTINEL, self._bits

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        gathered = self._sid[csr.indices]
        new = self._sid.copy()
        segment_reduce(np.minimum, gathered, csr.indptr, new)
        changed = new < self._sid
        if changed.any():
            self._sid = new
            bits_by_sid = self._bits_by_sid
            for i in np.nonzero(changed)[0].tolist():
                self._bits[i] = bits_by_sid[int(new[i])]
        self.changed_last = changed
        events: Events = []
        if ctx.round_index >= self.rounds_bound:
            payload_by_sid = self._payload_by_sid
            sid = self._sid.tolist()
            for i in range(self.n):
                best = payload_by_sid.get(sid[i])
                events.append(("decide", i,
                               None if best is None else best[1]))
                events.append(("halt", i, None))
            self.decided[:] = True
        return bool(changed.any()), events

    def finalize(self, nodes: Sequence[Any]) -> None:
        payload_by_sid = self._payload_by_sid
        sid = self._sid.tolist()
        changed = self.changed_last.tolist()
        for i, node in enumerate(nodes):
            node.best = payload_by_sid.get(sid[i])
            node._state_changed = changed[i]


# --------------------------------------------------------------------------
# baseline kernels (random token dissemination, KLO k-committee counting)
# --------------------------------------------------------------------------

#: Per byte value: its set bits (little-endian bit order), their count,
#: and the position of its r-th set bit in column r.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little").astype(bool)
_BYTE_ONES = _BYTE_BITS.sum(axis=1, dtype=np.int64)
_BYTE_SELECT = np.argsort(~_BYTE_BITS, axis=1, kind="stable")


#: Raw words :class:`_BoundedDraws` reads ahead per stream at a time.
_DRAW_BLOCK = 256
_WORD = np.uint64(1 << 32)
_LOW32 = np.uint64(0xFFFFFFFF)


class _BoundedDraws:
    """Every node's ``rngs[i].integers(0, counts[i])`` in one shot.

    For ``2 <= c <= 2**32``, ``Generator.integers(0, c)`` takes one
    ``next_uint32`` word ``w`` per try and applies Lemire's rule: with
    ``m = w * c``, it retries while ``m mod 2**32 < (2**32 - c) % c``
    and returns ``m >> 32``; ``c == 1`` takes no word.  Each stream is
    read ahead ``block`` words at a time through
    ``integers(0, 2**32, size=block, dtype=np.uint32)``, which consumes
    exactly those ``next_uint32`` words (PCG64's buffered half-word
    included), so a round's draws are a few array operations over the
    population.  :meth:`restore` rewinds each stream to its snapshot
    from before its current block and replays the words actually used,
    leaving it where the per-node calls would.  Until then the streams
    run ahead, so nothing else may draw from them.
    """

    def __init__(self, rngs: Sequence[np.random.Generator],
                 block: int = _DRAW_BLOCK) -> None:
        n = len(rngs)
        self._rngs = rngs
        self._block = block
        self._words = np.zeros((n, block), dtype=np.uint32)
        self._used = np.full(n, block, dtype=np.int64)
        self._snapshots: List[Optional[Mapping[str, Any]]] = [None] * n

    def _refill(self, rows: np.ndarray) -> None:
        for i in rows.tolist():
            rng = self._rngs[i]
            self._snapshots[i] = rng.bit_generator.state
            self._words[i] = rng.integers(0, 1 << 32, size=self._block,
                                          dtype=np.uint32)
        self._used[rows] = 0

    def draw(self, counts: np.ndarray) -> np.ndarray:
        picks = np.zeros(len(counts), dtype=np.int64)
        rows = np.nonzero(counts > 1)[0]
        bound = counts[rows].astype(np.uint64)
        threshold = (_WORD - bound) % bound
        while rows.size:
            empty = rows[self._used[rows] == self._block]
            if empty.size:
                self._refill(empty)
            m = self._words[rows, self._used[rows]] * bound
            self._used[rows] += 1
            accept = (m & _LOW32) >= threshold
            picks[rows[accept]] = m[accept] >> 32
            retry = ~accept
            rows, bound, threshold = (
                rows[retry], bound[retry], threshold[retry])
        return picks

    def restore(self) -> None:
        for i, state in enumerate(self._snapshots):
            if state is not None:
                rng = self._rngs[i]
                rng.bit_generator.state = state
                rng.integers(0, 1 << 32, size=int(self._used[i]),
                             dtype=np.uint32)
        self._snapshots = [None] * len(self._snapshots)
        self._used[:] = self._block


def _csr_receivers(csr: Any) -> np.ndarray:
    """Receiver index of every CSR entry."""
    indptr = csr.indptr
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


class TokenBatchKernel(BatchKernel):
    """Membership-row kernel for one-token-per-round random forwarding.

    Row *i* of the boolean ``(n, n)`` membership matrix marks the tokens
    node *i* knows, columns in ascending token-id order — the order of
    the per-node sorted token list, so the ``idx``-th set bit of a row
    is the token the per-node path picks.  Each round makes every
    node's ``rngs[i].integers(0, count_i)`` draw at once, bit for bit
    (:class:`_BoundedDraws`; ``finalize`` leaves each stream where the
    per-node calls would), selects the picked bits from the byte-packed
    rows, scatters the picks through the CSR, and decides a node once
    its count reaches its target.
    """

    def __init__(self, algs: Sequence[Any], token_ids: List[int],
                 known: np.ndarray, targets: np.ndarray) -> None:
        self.n = len(algs)
        self._token_ids = token_ids   # column -> token id, ascending
        self._known = known
        self._counts = np.count_nonzero(known, axis=1)
        self._targets = targets
        self._rows = np.arange(self.n)
        self._bits = np.full(self.n, ID_BITS, dtype=np.int64)
        self._picks = np.zeros(self.n, dtype=np.int64)
        self._draws: Optional[_BoundedDraws] = None
        self.decided = np.array([a._decided for a in algs], dtype=bool)
        self.changed_last = np.array([a._state_changed for a in algs],
                                     dtype=bool)

    @classmethod
    def build(cls, algs: Sequence[Any]) -> "Optional[TokenBatchKernel]":
        token_ids = sorted(a.node_id for a in algs)
        column = {token: c for c, token in enumerate(token_ids)}
        n = len(algs)
        known = np.zeros((n, n), dtype=bool)
        try:
            for i, alg in enumerate(algs):
                known[i, [column[token] for token in alg.tokens]] = True
        except (KeyError, TypeError):
            return None  # a token outside the population
        if not known.any(axis=1).all():
            return None  # an empty token set: the per-node draw raises
        never = n + 1  # no row ever counts more than n tokens
        targets = np.array(
            [never if a.target_count is None else a.target_count
             for a in algs], dtype=np.int64)
        return cls(algs, token_ids, known, targets)

    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        if self._draws is None:
            self._draws = _BoundedDraws(ctx.rngs)
        idx = self._draws.draw(self._counts)
        # Select the idx-th set bit per row: find its byte by a running
        # popcount over the packed row, then its bit within the byte.
        packed = np.packbits(self._known, axis=1, bitorder="little")
        ones = _BYTE_ONES[packed]
        seen = np.cumsum(ones, axis=1)
        byte = np.count_nonzero(seen <= idx[:, None], axis=1)
        rows = self._rows
        rank = idx - seen[rows, byte] + ones[rows, byte]
        self._picks = 8 * byte + _BYTE_SELECT[packed[rows, byte], rank]
        return None, self._bits

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        self._known[_csr_receivers(csr), self._picks[csr.indices]] = True
        counts = np.count_nonzero(self._known, axis=1)
        changed = counts != self._counts
        self._counts = counts
        self.changed_last = changed
        events: Events = []
        newly = ~self.decided & (counts >= self._targets)
        if newly.any():
            self.decided |= newly
            for i in np.nonzero(newly)[0].tolist():
                events.append(("decide", i, int(counts[i])))
        return bool(changed.any()), events

    def finalize(self, nodes: Sequence[Any]) -> None:
        if self._draws is not None:
            self._draws.restore()
        token_ids = self._token_ids
        changed = self.changed_last.tolist()
        for i, node in enumerate(nodes):
            known = [token_ids[c]
                     for c in np.nonzero(self._known[i])[0].tolist()]
            node._sorted_tokens = known
            node.tokens = set(known)
            node._state_changed = changed[i]


#: KLO round kinds: the three cycle phases, then the two epoch stages.
_POLL, _REQUEST, _GRANT, _VERIFY, _DISSEMINATE = range(5)
_INT64_MAX = np.iinfo(np.int64).max


def _int_bits(value: int) -> int:
    """:func:`~repro.simnet.message.bit_size` of a Python int."""
    return max(1, value.bit_length()) + 1


def _union(masks: List[np.ndarray]) -> Optional[np.ndarray]:
    """OR of boolean *masks* (``None`` when there are none)."""
    if not masks:
        return None
    return masks[0] if len(masks) == 1 else np.logical_or.reduce(masks)


class _EpochGroup:
    """The nodes at one epoch position: guess ``k``, epoch round ``t``
    and a member mask, plus the round's ``kind``/``cycle``/``pr``
    (round within the phase) that :meth:`locate` derives."""

    __slots__ = ("k", "t", "members", "kind", "cycle", "pr")

    def __init__(self, k: int, t: int, members: np.ndarray) -> None:
        self.k = k
        self.t = t
        self.members = members
        self.kind = self.cycle = self.pr = 0

    def locate(self) -> int:
        """Derive this round's position and return its payload header
        bits (framing, tag, ``k`` and, in the cycles, the cycle).  Epoch
        round ``t`` at guess ``k`` lies in cycle ``t // 3k`` while that
        is below ``k`` (phase ``(t mod 3k) // k``), then in the ``k + 2``
        verification rounds, then in dissemination."""
        k = self.k
        self.cycle, rem = divmod(self.t, 3 * k)
        head = 24 + _int_bits(k)
        if self.cycle < k:
            self.kind, self.pr = divmod(rem, k)
            return head + _int_bits(self.cycle)
        past = self.t - 3 * k * k
        if past < k + 2:
            self.kind, self.pr = _VERIFY, past
        else:
            self.kind, self.pr = _DISSEMINATE, past - (k + 2)
        return head

    def ends(self, code: int, last: int) -> bool:
        """Whether this round is round ``k + last`` of phase *code*."""
        return self.kind == code and self.pr == self.k + last


class KCommitteeBatchKernel(BatchKernel):
    """Phase-structured CSR reductions for KLO k-committee counting.

    Ids are replaced by their rank in ascending id order (every min and
    every comparison the per-node fold makes is order-only), with ``n``
    standing for "none".  Per node the kernel keeps the committee, the
    poll minimum, an addressee→requester matrix ``req``, a
    leader→grantee matrix ``grant``, the pollution flags and the heard
    counts.  Each round:

    * poll is a segment-min of the broadcast candidate ranks;
    * request and grant are row-wise segment-mins over the gathered
      ``req`` / ``grant`` rows;
    * verify tests "heard a different committee or the pollution
      marker" with a segment min and max;
    * dissemination floods the count, raising on conflicts.

    The per-node grant fold keeps the *first* entry it hears per leader
    and a node joins the *first* leader naming it.  Both equal the
    segment-min because a leader grants one node per cycle and a node
    requests one leader, so every entry for a leader names the same
    grantee and no node is named twice; :meth:`build` declines state
    that breaks this.

    Epoch positions ``(k, t)`` are held per *group* of nodes
    (:class:`_EpochGroup`), so a round derives each position once in
    Python ints.  Engagement needs one shared position and guess growth,
    which makes one group.  Loss can split it later: polluted nodes
    ending verification restart with a grown guess while the clean ones
    disseminate, and :meth:`_advance` moves them into a group of their
    own.  Groups never need to merge again: every round advances each
    group's ``t`` alike, and a restart lands at ``t = 0``, where no
    other group stands.  Each phase runs masked to the union of the
    groups in it; a phase's messages are read only by receivers in the
    same phase, as in the per-node fold.
    """

    def __init__(self, algs: Sequence[Any], state: Dict[str, Any]) -> None:
        self.n = len(algs)
        self._ids = state["ids"]            # rank -> node id
        self._own = state["own"]            # node index -> own rank
        self._growth = state["growth"]
        self._groups = [_EpochGroup(state["k"], state["t"],
                                    np.ones(self.n, dtype=bool))]
        self._committee = state["committee"]
        self._grants = state["grants"]
        self._granted = state["granted"]    # (n, n) bool, column = rank
        self._poll = state["poll"]
        self._req = state["req"]
        self._grant = state["grant"]
        self._polluted = state["polluted"]
        self._count = state["count"]        # -1: no count heard
        self.decided = np.array([a._decided for a in algs], dtype=bool)
        self.changed_last = np.array([a._state_changed for a in algs],
                                     dtype=bool)

    # -- import / export -----------------------------------------------------

    @classmethod
    def build(cls, algs: Sequence[Any]
              ) -> "Optional[KCommitteeBatchKernel]":
        first = algs[0]
        k, t, growth = first.k, first._epoch_round, first.guess_growth
        if any(a.k != k or a._epoch_round != t or a.guess_growth != growth
               for a in algs):
            return None
        cycles_len, verify_len = 3 * k * k, k + 2
        if t >= cycles_len + 2 * verify_len:
            return None  # past the epoch: the per-node position raises
        counts = [a.count_heard for a in algs]
        if not all(c is None or (_eligible_int(c) and c >= 0)
                   for c in counts):
            return None
        polluted = np.array([bool(a.polluted) for a in algs])
        if t >= cycles_len + verify_len and polluted.any():
            return None  # the per-node dissemination raises
        n = len(algs)
        ids = sorted(a.node_id for a in algs)
        rank = {node_id: r for r, node_id in enumerate(ids)}

        def ranks(values: Iterable[Any]) -> List[int]:
            return [n if v is None else rank[v] for v in values]

        req = np.full((n, n), n, dtype=np.int64)
        grant = np.full((n, n), n, dtype=np.int64)
        granted = np.zeros((n, n), dtype=bool)
        try:
            committee = ranks(a.committee for a in algs)
            poll = ranks(a.poll_min for a in algs)
            for i, alg in enumerate(algs):
                addressees = ranks(alg.request_best)
                requesters = ranks(alg.request_best.values())
                leaders = ranks(alg.grant_seen)
                grantees = ranks(alg.grant_seen.values())
                members = ranks(alg.granted_ids)
                if n in addressees + requesters + leaders + grantees + members:
                    return None
                req[i, addressees] = requesters
                grant[i, leaders] = grantees
                granted[i, members] = True
        except (KeyError, TypeError):
            return None  # an id outside the population
        if t >= cycles_len and n in committee:
            return None  # verification would send NodeId(None)
        # One grantee per leader, and no grantee under two leaders.
        named = np.where(grant == n, -1, grant).max(axis=0)
        if ((grant != n) & (grant != named)).any():
            return None
        named = named[named >= 0]
        if len(np.unique(named)) != len(named):
            return None
        state = {
            "ids": ids,
            "own": np.array([rank[a.node_id] for a in algs],
                            dtype=np.int64),
            "growth": growth,
            "k": k,
            "t": t,
            "committee": np.array(committee, dtype=np.int64),
            "grants": np.array([a.grants_made for a in algs],
                               dtype=np.int64),
            "granted": granted,
            "poll": np.array(poll, dtype=np.int64),
            "req": req,
            "grant": grant,
            "polluted": polluted,
            "count": np.array([-1 if c is None else c for c in counts],
                              dtype=np.int64),
        }
        return cls(algs, state)

    def finalize(self, nodes: Sequence[Any]) -> None:
        n = self.n
        ids = self._ids

        def table(row: List[int]) -> Dict[int, int]:
            return {ids[key]: ids[value]
                    for key, value in enumerate(row) if value != n}

        k, t = [0] * n, [0] * n
        for group in self._groups:
            for i in np.flatnonzero(group.members).tolist():
                k[i], t[i] = group.k, group.t
        committee, poll = self._committee.tolist(), self._poll.tolist()
        grants, count = self._grants.tolist(), self._count.tolist()
        polluted = self._polluted.tolist()
        changed = self.changed_last.tolist()
        for i, node in enumerate(nodes):
            node.k = k[i]
            node._epoch_round = t[i]
            node.committee = None if committee[i] == n else ids[committee[i]]
            node.poll_min = None if poll[i] == n else ids[poll[i]]
            node.grants_made = grants[i]
            node.granted_ids = {
                ids[r] for r in np.nonzero(self._granted[i])[0].tolist()}
            node.request_best = table(self._req[i].tolist())
            node.grant_seen = table(self._grant[i].tolist())
            node.polluted = polluted[i]
            node.count_heard = None if count[i] < 0 else count[i]
            node._state_changed = changed[i]

    # -- rounds ---------------------------------------------------------------

    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        n = self.n
        head = np.empty(n, dtype=np.int64)
        into: Dict[int, np.ndarray] = {}  # phase code -> nodes in it
        for group in self._groups:
            head[group.members] = group.locate()
            mask = into.get(group.kind)
            into[group.kind] = (group.members if mask is None
                                else mask | group.members)
        self._into = into
        self._uncommitted = self._committee == n
        bits = np.zeros(n, dtype=np.int64)
        sends = np.zeros(n, dtype=bool)
        self._sends = sends
        if _POLL in into:
            value = np.where(self._uncommitted,
                             np.minimum(self._poll, self._own), self._poll)
            send = into[_POLL] & (value != n)
            self._poll_value = value
            self._poll_msg = np.where(send, value, n)
            sends |= send
            bits = np.where(send, head + ID_BITS, bits)
        for code, rows in ((_REQUEST, self._req), (_GRANT, self._grant)):
            if code in into:
                entries = np.count_nonzero(rows != n, axis=1)
                send = into[code] & (entries > 0)
                sends |= send
                bits = np.where(
                    send, head + 8 + entries * (8 + 2 * ID_BITS), bits)
        if _VERIFY in into:
            send = into[_VERIFY]
            value = np.where(self._polluted, -1, self._committee)
            self._verify_lo = np.where(send, value, n + 1)
            self._verify_hi = np.where(send, value, -2)
            sends |= send
            bits = np.where(
                send, head + np.where(self._polluted, 16, ID_BITS), bits)
        if _DISSEMINATE in into:
            send = into[_DISSEMINATE] & (self._count >= 0)
            self._count_msg = np.where(send, self._count, -1)
            sends |= send
            bits = np.where(send, head + int_payload_bits(self._count), bits)
        return sends, bits

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        into = self._into
        changed = np.zeros(self.n, dtype=bool)
        events: Events = []
        # Dissemination first: a violation raises before this round
        # writes any state.
        if _DISSEMINATE in into:
            self._disseminate(csr, changed, events)
        if _POLL in into:
            self._poll_round(csr, changed)
        if _REQUEST in into:
            end = self._merge_rows(_REQUEST, self._req, csr, changed)
            if end is not None:
                self._end_request(end)
        if _GRANT in into:
            end = self._merge_rows(_GRANT, self._grant, csr, changed)
            if end is not None:
                self._end_grant(end)
        if _VERIFY in into:
            self._verify_round(csr, changed)
        self._advance()
        self.changed_last = changed
        return bool(changed.any()), events

    def _phase_end(self, code: int, last: int) -> Optional[np.ndarray]:
        """Nodes in phase *code* whose round-within-phase is ``k + last``
        (``None`` when there are none)."""
        return _union([group.members for group in self._groups
                       if group.ends(code, last)])

    def _heard(self, csr: Any, sent: np.ndarray, silent: int,
               ufunc: np.ufunc) -> np.ndarray:
        """Per-receiver *ufunc* fold of the senders' *sent* values
        (*silent* for receivers that heard nothing)."""
        out = np.full(self.n, silent, dtype=np.int64)
        return segment_reduce(ufunc, sent[csr.indices], csr.indptr, out)

    def _poll_round(self, csr: Any, changed: np.ndarray) -> None:
        n = self.n
        into = self._into[_POLL]
        best = self._poll_value.copy()
        segment_reduce(np.minimum, self._poll_msg[csr.indices],
                       csr.indptr, best)
        poll = self._poll
        changed |= into & (best != poll)
        np.copyto(poll, best, where=into)
        end = self._phase_end(_POLL, -1)
        if end is not None:
            # Poll phase ends: uncommitted non-leaders file their own
            # join request, addressed to their poll minimum.
            own = self._own
            self._req[end] = n
            files = end & self._uncommitted & (poll != n) & (poll != own)
            self._req[files, poll[files]] = own[files]
            changed |= end

    def _merge_rows(self, code: int, rows: np.ndarray, csr: Any,
                    changed: np.ndarray) -> Optional[np.ndarray]:
        """Fold the phase's ``(key, value)`` messages into *rows* by
        per-key minimum, for the receivers in phase *code*; returns the
        nodes whose phase ends this round."""
        into = self._into[code]
        heard = rows[csr.indices]
        if len(self._into) > 1:
            # Only this phase's senders' rows are messages here.  With
            # every node in the phase the mask is a no-op: a node that
            # sends nothing holds a row of "none"s.
            heard[~(self._sends & into)[csr.indices]] = self.n
        merged = rows.copy()
        segment_reduce(np.minimum, heard, csr.indptr, merged)
        changed |= into & (merged != rows).any(axis=1)
        np.copyto(rows, merged, where=into[:, None])
        end = self._phase_end(code, -1)
        if end is not None:
            changed |= end
        return end

    def _end_request(self, end: np.ndarray) -> None:
        """Request phase ends: each leader grants its best requester."""
        n, own = self.n, self._own
        self._grant[end] = n
        best = self._req[np.arange(n), own]
        grants = (end & self._uncommitted & (self._poll == own)
                  & (best != n) & (best != own))
        self._grant[grants, own[grants]] = best[grants]
        self._grants[grants] += 1
        self._granted[grants, best[grants]] = True

    def _end_grant(self, end: np.ndarray) -> None:
        """Grant phase ends: a granted node joins its leader; then the
        cycle's state resets, and after the last cycle the still
        uncommitted nodes form singleton committees."""
        n, own = self.n, self._own
        joins = ((self._grant == own[:, None])
                 & (end & (self._committee == n))[:, None])
        joined = joins.any(axis=1)
        self._committee[joined] = np.argmax(joins[joined], axis=1)
        self._poll[end] = n
        self._req[end] = n
        self._grant[end] = n
        last = _union([group.members for group in self._groups
                       if group.ends(_GRANT, -1)
                       and group.cycle == group.k - 1])
        if last is not None:
            singles = last & (self._committee == n)
            self._committee[singles] = own[singles]

    def _verify_round(self, csr: Any, changed: np.ndarray) -> None:
        n = self.n
        into = self._into[_VERIFY]
        lo = self._heard(csr, self._verify_lo, n + 1, np.minimum)
        hi = self._heard(csr, self._verify_hi, -2, np.maximum)
        committee = self._committee
        newly = (into & ~self._polluted & (lo <= n)
                 & ((lo != committee) | (hi != committee)))
        self._polluted |= newly
        changed |= newly
        end = self._phase_end(_VERIFY, 1)
        if end is not None:
            # Verification ends; on success the unique leader seeds the
            # count for dissemination.
            seeds = end & ~self._polluted & (committee == self._own)
            self._count[seeds] = self._grants[seeds] + 1
            changed |= end

    def _disseminate(self, csr: Any, changed: np.ndarray,
                     events: Events) -> None:
        into = self._into[_DISSEMINATE]
        sent = self._count_msg
        lo = self._heard(csr, np.where(sent < 0, _INT64_MAX, sent),
                         _INT64_MAX, np.minimum)
        hi = self._heard(csr, sent, -1, np.maximum)
        count = self._count
        heard = into & (hi >= 0)
        conflict = heard & np.where(count < 0, lo != hi,
                                    (lo != count) | (hi != count))
        fresh = heard & (count < 0)
        end = self._phase_end(_DISSEMINATE, 1)
        bad = conflict
        if end is not None:
            bad = bad | (end & (count < 0) & ~fresh)
        if bad.any():
            self._raise_violation(int(np.argmax(bad)), csr)
        count[fresh] = lo[fresh]
        changed |= fresh
        if end is not None:
            values = count.tolist()
            for i in np.nonzero(end)[0].tolist():
                events.append(("decide", i, values[i]))
                events.append(("halt", i, None))
            self.decided |= end

    def _raise_violation(self, i: int, csr: Any) -> None:
        """Raise node *i*'s dissemination violation, worded as the
        per-node fold words it (replaying its inbox in order)."""
        node_id = self._ids[int(self._own[i])]
        heard = int(self._count[i]) if self._count[i] >= 0 else None
        start, stop = int(csr.indptr[i]), int(csr.indptr[i + 1])
        for s in csr.indices[start:stop].tolist():
            value = int(self._count_msg[s])
            if value < 0:
                continue
            if heard is None:
                heard = value
            elif heard != value:
                raise AlgorithmViolation(
                    f"node {node_id}: conflicting counts {heard} vs "
                    f"{value}")
        k = next(group.k for group in self._groups if group.members[i])
        raise AlgorithmViolation(
            f"node {node_id}: dissemination ended without a count "
            f"(k={k})")

    def _advance(self) -> None:
        """Advance every group's epoch round.  The polluted members of a
        group ending its verification restart with a grown guess: the
        whole group when all of them are polluted, else as a new group
        split off from the clean members, who go on to disseminate."""
        for group in list(self._groups):
            ending = group.ends(_VERIFY, 1)
            group.t += 1
            if not ending:
                continue
            restart = group.members & self._polluted
            if not restart.any():
                continue
            k = group.k * self._growth
            if np.array_equal(restart, group.members):
                group.k, group.t = k, 0
            else:
                group.members = group.members & ~restart
                self._groups.append(_EpochGroup(k, 0, restart))
            self._restart(restart)

    def _restart(self, restart: np.ndarray) -> None:
        """Reset the epoch state of the nodes in *restart*."""
        n = self.n
        self._committee[restart] = n
        self._grants[restart] = 0
        self._granted[restart] = False
        self._poll[restart] = n
        self._req[restart] = n
        self._grant[restart] = n
        self._polluted[restart] = False
        self._count[restart] = -1


# --------------------------------------------------------------------------
# the tier's round
# --------------------------------------------------------------------------

def engage_batch(sim: Any) -> None:
    """Put *sim* on the batch tier, running the kernel that
    :func:`~repro.simnet.engine.select_tier` built into
    ``sim._batch_kernel``.

    Pending decision events (e.g. a ``FloodToken`` seed deciding in
    ``__init__``) are captured here and replayed into metrics in the
    first batch round, exactly when the per-node drain would surface
    them.
    """
    pending: List[Tuple[int, List[tuple]]] = []
    for i, node in enumerate(sim.nodes):
        if node._events:
            pending.append((i, node._events))
            node._events = []
    sim._batch_pending = pending
    sim._batch_ctx = BatchContext(
        sim.round_index, sim._node_rngs, sim.metrics.incr)
    sim._tier = "batch"


def run_batch_round(sim: Any) -> None:
    """One round via the population's batch kernel.

    Equivalent to the fast tier's round observable-for-observable for
    eligible runs: identical metrics (broadcast sums are commutative and
    per-round; decision/counter dicts are order-insensitive), identical
    per-node draws and final stream positions (streams are independent
    across nodes; see :class:`BatchContext`), identical shared
    loss-stream consumption (see
    :func:`lossy_delivery_view`).
    """
    sim.round_index += 1
    r = sim.round_index
    kernel = sim._batch_kernel
    ctx = sim._batch_ctx
    ctx.round_index = r
    metrics = sim.metrics
    prof = sim.phase_seconds

    # Phase 1: compose.
    t0 = perf_counter() if prof is not None else 0.0
    mask, bits = kernel.compose(ctx)

    # Phase 2: reveal + transmission accounting (vectorised).  Loss is a
    # delivery-phase phenomenon: broadcast/delivered tallies count the
    # unfiltered live degrees, exactly as the per-node paths do.
    if prof is not None:
        t1 = perf_counter()
        prof["compose"] += t1 - t0
        t0 = t1
    csr = sim.schedule.adjacency(r)
    degrees = csr.degrees()
    if mask is None:
        n_bcast = len(sim.nodes)
        sender_bits = bits
        sender_degrees = degrees
    else:
        n_bcast = int(mask.sum())
        sender_bits = bits[mask]
        sender_degrees = degrees[mask]
    if n_bcast:
        metrics.broadcasts += n_bcast
        metrics.delivered_messages += int(sender_degrees.sum())
        metrics.broadcast_bits += int(sender_bits.sum())
        metrics.delivered_bits += int(sender_bits @ sender_degrees)
        max_bits = int(sender_bits.max())
        if max_bits > metrics.max_broadcast_bits:
            metrics.max_broadcast_bits = max_bits

    # Phase 3: deliver (one segment-reduce over the CSR).  Under loss
    # the kernel folds a filtered delivery view instead of the round's
    # graph; the per-edge keep mask consumes the shared loss stream
    # bit-identically to the per-node engines.
    if prof is not None:
        t1 = perf_counter()
        prof["reveal"] += t1 - t0
        t0 = t1
    loss_rng = sim._loss_rng
    if loss_rng is not None:
        deliver_csr, dropped = lossy_delivery_view(
            csr, mask, loss_rng, sim.loss_rate)
        if dropped:
            metrics.incr("messages_lost", dropped)
    else:
        deliver_csr = csr
    changed_any, events = kernel.deliver(ctx, deliver_csr, mask)

    # Phase 4: drain — replay captured pre-run events, then reconcile
    # this round's decide/retract/halt events onto the node objects.
    if prof is not None:
        t1 = perf_counter()
        prof["deliver"] += t1 - t0
        t0 = t1
    nodes = sim.nodes
    pending = sim._batch_pending
    if pending:
        sim._batch_pending = None
        for i, node_events in pending:
            node_id = nodes[i].node_id
            for event in node_events:
                kind = event[0]
                if kind == "decide":
                    metrics.on_decision(node_id, r)
                elif kind == "retract":
                    metrics.on_retraction(node_id)
    halted_any = False
    halted_mask = sim._halted_mask
    for kind, i, value in events:
        node = nodes[i]
        if kind == "decide":
            node._decided = True
            node._output = value
            metrics.on_decision(node.node_id, r)
        elif kind == "retract":
            node._decided = False
            node._output = None
            metrics.on_retraction(node.node_id)
        else:  # halt
            node._halted = True
            halted_mask[i] = True
            halted_any = True
    if prof is not None:
        prof["drain"] += perf_counter() - t0

    if halted_any:
        sim._any_halted = True
        sim._active = [
            i for i in sim._active if not halted_mask[i]]
        # The kernels assume every node is alive; fall back to the
        # persistent per-node tier for whatever rounds remain.
        deactivate_batch(sim)

    sim._quiescent_streak = (
        0 if changed_any else sim._quiescent_streak + 1)
    metrics.on_round_executed()


def deactivate_batch(sim: Any) -> None:
    """Leave batch mode, restoring full per-node state (idempotent)."""
    if sim._tier != "batch":
        return
    sim._tier = sim.engine
    kernel = sim._batch_kernel
    sim._batch_kernel = None
    sim._batch_ctx = None
    pending = sim._batch_pending
    sim._batch_pending = None
    if pending:
        # Never replayed (zero batch rounds ran): hand the events
        # back to the per-node drain.
        for i, events in pending:
            node = sim.nodes[i]
            node._events = events + node._events
    kernel.finalize(sim.nodes)

"""The batch tier: struct-of-arrays kernels, CSR segment-reduce delivery.

The engine's reference tier (see :mod:`repro.simnet.rounds`) makes one
Python ``compose()`` and one ``deliver()`` call per node per round, so
there the *algorithm layer* dominates at large ``N``.  The per-round
updates of the aggregate-style algorithms, however, are associative
reductions over neighbour payloads — max, set union, coordinate-wise
min — which evaluate in one shot as NumPy segment-reduces over the
schedule's cached CSR adjacency.  One fold serves them all
(``_AggregateKernel``: one row array of 8-byte cells, one merge, one
convergence test, one write-back); the families supply the cells and
the fold ufunc (:class:`MaxBatchKernel`, :class:`IdSetBatchKernel` and
:class:`HeardSetBatchKernel`, :class:`MinVectorBatchKernel`, and the
coordinate-masked :class:`PipelinedSketchBatchKernel` for the
bandwidth-limited sketch of :mod:`repro.core.pipelining`).  The
known-bound variants, which are also the known-``N`` flooding
baselines at ``rounds_bound = N - 1``, share them.  The KLO and random
token-dissemination baselines fit the same mould: phase-structured
min-folds (:class:`KCommitteeBatchKernel`) and per-node RNG picks
from one flat index of membership rows (:class:`TokenBatchKernel`).

This module defines the opt-in **batch kernel protocol**:

* an algorithm class defines a hook ``__batch_kernel__(nodes)`` in its
  own body (a classmethod, or an aggregate family's ``build``, as in
  ``__batch_kernel__ = MaxBatchKernel.build``) returning a
  :class:`BatchKernel`, or ``None`` when the concrete node population
  is not eligible: heterogeneous bounds, ineligible values, or any
  state other than the one a node holds before its first round
  (kernels are built only from freshly constructed nodes).
  :func:`build_batch_kernel` reads the hook from the class's own
  ``__dict__``, so a subclass with overridden semantics never inherits
  its parent's kernel;
* the kernel holds the whole population's state as struct-of-arrays
  (values, bitsets, sketch matrices, decided flags, quiescence windows)
  and implements ``compose``/``deliver`` over the entire population,
  plus ``progress`` (the engine's progress vector, which adaptive
  schedules and ``stop_when`` predicates read);
* the engine engages the kernel when :func:`repro.simnet.engine.select_tier`
  picks the batch tier for a run; :func:`run_batch_round` reconciles
  decisions/halts/metrics from the arrays, and :func:`deactivate_batch`
  writes the state back into the node objects before anything else can
  observe them.  The first halt event retires the kernel, as does a
  kernel setting ``_retire_reason`` in ``deliver`` (the KLO kernel, when
  its epoch position splits); the reference tier runs the remaining
  rounds.

Equivalence contract
--------------------
A kernel must be *bit-for-bit* equivalent to running the per-node
``compose``/``deliver`` fold: same per-round changed flags (quiescence),
same decide/retract/halt events with the same values, the same payload
bit costs (:func:`repro.simnet.message.bit_size` of the per-node
encoding), the same per-node RNG draws, leaving every stream where the
per-node path does (see :class:`BatchContext`), and the same progress
vector.  The golden grid in ``tests/test_fastpath_equivalence.py``, the
generated specs of ``tests/test_generated_specs.py`` and the
fold-matching property tests in ``tests/test_batch_kernels.py``
enforce this.

The contract covers node state only for rounds that complete.  When a
round raises :class:`~repro.errors.AlgorithmViolation` (the KLO
kernel's dissemination check), the tiers agree on the error's wording
and on the round it is raised in, but not on node state.  The kernel
raises before the round writes any state; the reference tier has by
then delivered to, advanced and possibly decided or halted every node
with a lower index than the raising one.

Message loss
------------
The batch tier executes lossy runs (``loss_rate > 0``) natively: the
per-edge Bernoulli keep mask is drawn **vectorised** from the shared
``"loss"`` RNG stream and applied by handing every kernel a filtered
*delivery view* of the round's CSR (:func:`lossy_delivery_view`).  The
draw order is bit-identical to the reference tier's — it draws
``rng.random(len(inbox))`` per non-halted receiver in ascending receiver
order, where each inbox holds exactly the payload-bearing edges of the
receiver's CSR row in row order; since NumPy's ``Generator.random``
consumes one state increment per double, one flat draw over the
concatenated sender-edges reproduces the per-receiver stream exactly.
Broadcast accounting stays on the *unfiltered* CSR (loss happens at
delivery; ``delivered_messages`` counts pre-loss degrees, exactly as the
reference tier does), and the total dropped count feeds the same
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
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..errors import AlgorithmViolation
from .message import _CONTAINER_FRAMING_BITS, ID_BITS, bit_size

__all__ = [
    "BatchContext",
    "BatchKernel",
    "BatchQuiescence",
    "build_batch_kernel",
    "engage_batch",
    "run_batch_round",
    "deactivate_batch",
    "lossy_delivery_view",
    "segment_reduce",
    "int_payload_bits",
    "popcount64",
    "MaxBatchKernel",
    "IdSetBatchKernel",
    "MinVectorBatchKernel",
    "PipelinedSketchBatchKernel",
    "HeardSetBatchKernel",
    "TokenBatchKernel",
    "KCommitteeBatchKernel",
]

#: Events a kernel reports back: ``(kind, node_index, value)`` with kind
#: one of ``"decide"`` / ``"retract"`` / ``"halt"`` (value ``None`` for
#: the latter two), in ascending node-index order per kind.
Events = List[Tuple[str, int, Any]]


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


def _distinct_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` for the distinct rows of a 2-D array.

    ``first[g]`` is the index of the first row of distinct row *g* and
    ``inverse[i]`` the distinct row of row *i*.  Rows compare byte for
    byte (so ``-0.0`` and ``0.0`` differ, and a NaN equals itself), which
    makes any pure function of a row safe to evaluate once per group.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                  return_inverse=True)
    return first, inverse.ravel()


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
    concatenation of the per-receiver inboxes the reference tier draws
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
    ``incr``.  The engine passes its
    :class:`~repro.simnet.rng.NodeStreams`, so ``rngs[i]`` creates node
    *i*'s generator when a kernel first reads it; a kernel that never
    draws leaves every stream unbuilt.  A kernel must draw the values the
    per-node path would, and by the time :meth:`BatchKernel.finalize`
    returns every stream must stand where the per-node path leaves it.
    In between a stream may run ahead (see :class:`_BoundedDraws`): no
    other party draws from the node streams while a kernel is engaged.
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
      having run the per-node path;
    * :meth:`progress` — every node's ``progress`` as float64, equal to
      ``[node.progress for node in nodes]`` after finalize; the default
      serves the base :attr:`~repro.simnet.node.Algorithm.progress`,
      0.0 everywhere.

    The ``decided`` attribute (bool array) must mirror
    ``node._decided`` at all times — the engine's stop conditions read
    it instead of touching the node objects.  A kernel that cannot run
    the next round sets ``_retire_reason`` in ``deliver``;
    :func:`run_batch_round` then retires it after the round, as on a
    halt.
    """

    decided: np.ndarray
    n: int
    _retire_reason: Optional[str] = None

    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        raise NotImplementedError

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        raise NotImplementedError

    def finalize(self, nodes: Sequence[Any]) -> None:
        raise NotImplementedError

    def progress(self) -> np.ndarray:
        return np.zeros(self.n)


def build_batch_kernel(nodes: Sequence[Any]
                       ) -> Tuple[Optional[BatchKernel], str]:
    """Build a kernel for a homogeneous, eligible node population.

    Returns ``(kernel, "")``, or ``(None, reason)`` — and the engine
    runs the reference tier — when the population is empty or
    heterogeneous, any node has already halted, decided or holds
    undrained lifecycle events (a ``decide()`` made outside a round),
    the class itself defines no ``__batch_kernel__`` hook, or the hook
    declines (state other than before the first round, or parameters
    the kernel cannot share).  The hook is read from the
    class's own ``__dict__``: this is the one exact-class check, so a
    subclass, which may change the semantics, never inherits its
    parent's kernel.  *reason* is the clause the engine's
    ``engine_tier`` events carry.
    """
    if not nodes:
        return None, "empty node population"
    cls = type(nodes[0])
    if "__batch_kernel__" not in cls.__dict__:
        return None, f"{cls.__name__} exposes no __batch_kernel__ hook"
    for node in nodes:
        if type(node) is not cls:
            return None, (f"heterogeneous population "
                          f"({cls.__name__} + {type(node).__name__})")
        if node._halted:
            return None, "population already contains halted nodes"
        if node._events or node._decided:
            return None, ("population holds lifecycle events made "
                          "outside a round")
    kernel: Optional[BatchKernel] = cls.__batch_kernel__(nodes)
    if kernel is None:
        return None, (f"{cls.__name__}.__batch_kernel__ declined the "
                      f"population (state other than before round 1, "
                      f"or parameters it cannot share)")
    return kernel, ""


# --------------------------------------------------------------------------
# vectorised quiescence controller
# --------------------------------------------------------------------------

class BatchQuiescence:
    """Struct-of-arrays mirror of per-node ``QuiescenceController`` state.

    :meth:`observe` advances every node's controller one round and
    returns the ``(decide, retract)`` verdict masks; the update rule is
    the exact vectorisation of
    :meth:`repro.core.termination.QuiescenceController.observe`.  The
    controllers have observed no round yet (kernels start before round
    1), so only their windows are read.
    """

    __slots__ = ("growth", "window", "quiet", "holding", "retractions")

    def __init__(self, controllers: Sequence[Any]) -> None:
        n = len(controllers)
        self.growth = controllers[0].growth
        self.window = np.array([c.window for c in controllers],
                               dtype=np.int64)
        self.quiet = np.zeros(n, dtype=np.int64)
        self.holding = np.zeros(n, dtype=bool)
        self.retractions = np.zeros(n, dtype=np.int64)

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
# aggregate-family kernels (SublinearMax / ExactCount / ApproxCount, their
# *KnownBound halting variants, and PipelinedApproxCount)
# --------------------------------------------------------------------------

class _AggregateKernel(BatchKernel):
    """One idempotent fold over the population's rows, plus the
    decide/retract/halt plumbing.

    The kernel owns the rows, ``(n, width)`` with 8-byte cells, and folds
    them with the family's ``_fold`` ufunc.  A family supplies only what
    differs: ``_accepts`` (eligibility), ``_contribute`` (the rows of the
    first compose, which must draw from ``ctx.rngs`` in ascending node
    order), ``_bits`` (per-node payload cost), ``_outputs`` (the decide
    values of the nodes at the given indices, computed once per round for
    all of them) and ``_states`` (every node's state to write back, one
    shared object per distinct immutable state).  :meth:`build` takes
    only nodes that hold no state yet, so the first ``compose``
    contributes.

    Every fold is monotone: max only rises, union only grows, min only
    falls, and no draw is NaN.  So a merge changed exactly the cells that
    differ from before it.  Identical rows are a fixed point of the fold,
    whatever the graph or loss mask: once a merge changes no node and
    every row is identical, the kernel is *converged* and stops merging.
    ``deliver`` then returns one shared all-False mask (the controller
    still observes every round) and ``compose`` the bits computed at
    convergence.
    """

    _fold: np.ufunc

    def __init__(self, algs: Sequence[Any],
                 controller: Optional[BatchQuiescence],
                 rounds_bound: Optional[int]) -> None:
        self._algs = list(algs)
        self.n = len(algs)
        self.name = type(algs[0]).name
        self.controller = controller
        self.rounds_bound = rounds_bound
        self.decided = np.zeros(self.n, dtype=bool)
        self.changed_last = np.ones(self.n, dtype=bool)
        self._rows: Optional[np.ndarray] = None  # None until contributed
        self._converged = False

    @classmethod
    def build(cls, algs: Sequence[Any]) -> "Optional[_AggregateKernel]":
        """The population's kernel, or ``None`` to decline it.

        This is the aggregate classes' ``__batch_kernel__`` hook.  Every
        node must still hold its constructed ``state`` of ``None``.
        Nodes with a ``rounds_bound`` halt, and need one bound for all:
        staggered halting would break the kernel's all-alive invariant.
        The others stabilize, under a :class:`BatchQuiescence` (declining
        mixed growth factors).
        """
        if any(a.state is not None for a in algs) or not cls._accepts(algs):
            return None
        bound = getattr(algs[0], "rounds_bound", None)
        if bound is not None:
            if any(a.rounds_bound != bound for a in algs):
                return None
            return cls(algs, None, bound)
        controller = BatchQuiescence.from_controllers(
            [a.controller for a in algs])
        return None if controller is None else cls(algs, controller, None)

    # hooks ------------------------------------------------------------------
    @classmethod
    def _accepts(cls, algs: Sequence[Any]) -> bool:
        return True

    def _contribute(self, ctx: BatchContext) -> np.ndarray:
        raise NotImplementedError

    def _bits(self) -> np.ndarray:
        raise NotImplementedError

    def _outputs(self, idx: np.ndarray) -> List[Any]:
        raise NotImplementedError

    def _states(self) -> List[Any]:
        raise NotImplementedError

    def _outbox(self) -> np.ndarray:
        """The rows the nodes sent this round."""
        return self._rows

    def _write_back(self, nodes: Sequence[Any]) -> None:
        """Write what a contributed node holds besides its state: an
        aggregate node's contribution flag."""
        for node in nodes:
            node._contributed = True

    # the fold ---------------------------------------------------------------
    def _merge(self, csr: Any) -> np.ndarray:
        """One delivery fold; returns the changed cells."""
        old = self._rows
        new = old.copy()
        segment_reduce(self._fold, self._outbox().take(csr.indices, axis=0),
                       csr.indptr, new)
        self._rows = new
        return new != old

    def _uniform(self) -> bool:
        """Every row equals row 0 byte for byte: as ``uint64``, so rows
        differing only in ``-0.0``/``0.0`` are not identical."""
        cells = self._rows.view(np.uint64)
        return bool((cells == cells[0]).all())

    def _converge(self) -> None:
        """Freeze what a fixed point leaves unchanged, read-only."""
        self._converged = True
        self._unchanged = np.zeros(self.n, dtype=bool)
        self._fixed_bits = self._bits()
        self._unchanged.flags.writeable = False
        self._fixed_bits.flags.writeable = False

    # protocol ---------------------------------------------------------------
    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        if self._rows is None:
            self._rows = self._contribute(ctx)
        if self._converged:
            return None, self._fixed_bits
        return None, self._bits()

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        if self._converged:
            changed = self._unchanged
        else:
            changed = self._merge(csr).any(axis=1)
            if not changed.any() and self._uniform():
                self._converge()
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
                idx = np.flatnonzero(decide)
                for i, value in zip(idx.tolist(), self._outputs(idx)):
                    events.append(("decide", i, value))
        elif ctx.round_index >= self.rounds_bound:
            values = self._outputs(np.arange(self.n))
            for i, value in enumerate(values):
                events.append(("decide", i, value))
                events.append(("halt", i, None))
            self.decided[:] = True
        return bool(changed.any()), events

    def finalize(self, nodes: Sequence[Any]) -> None:
        changed = self.changed_last.tolist()
        states = [None] * self.n if self._rows is None else self._states()
        for node, state, changed_i in zip(nodes, states, changed):
            node.state = state
            node._state_changed = changed_i
        if self._rows is not None:
            self._write_back(nodes)
        if self.controller is not None:
            self.controller.restore([node.controller for node in nodes])


class MaxBatchKernel(_AggregateKernel):
    """Segment-max kernel for the ``MaxAggregate`` family: one int64
    column of values."""

    _fold = np.maximum

    @classmethod
    def _accepts(cls, algs: Sequence[Any]) -> bool:
        # Exactly-int payloads the int64 rows can cost and compare.
        return all(type(a.value) is int and -2 ** 62 < a.value < 2 ** 62
                   for a in algs)

    def _contribute(self, ctx: BatchContext) -> np.ndarray:
        # make_contribution returns self.value and draws nothing; the
        # merge with the (None) initial state is the value itself.
        return np.array([[a.value] for a in self._algs], dtype=np.int64)

    def _bits(self) -> np.ndarray:
        return int_payload_bits(self._rows[:, 0])

    def _outputs(self, idx: np.ndarray) -> List[int]:
        return self._rows[idx, 0].tolist()

    def _states(self) -> List[Any]:
        return self._rows[:, 0].tolist()


class IdSetBatchKernel(_AggregateKernel):
    """uint64-bitset kernel for the id-set union family (exact Count)."""

    _fold = np.bitwise_or

    def _contribute(self, ctx: BatchContext) -> np.ndarray:
        rows = np.zeros((self.n, (self.n + 63) // 64), dtype=np.uint64)
        k = np.arange(self.n)
        rows[k, k >> 6] = np.uint64(1) << (k & 63).astype(np.uint64)
        return rows

    def _counts(self) -> np.ndarray:
        return popcount64(self._rows).sum(axis=1)

    def _bits(self) -> np.ndarray:
        return _CONTAINER_FRAMING_BITS + ID_BITS * self._counts()

    def _outputs(self, idx: np.ndarray) -> List[int]:
        return popcount64(self._rows[idx]).sum(axis=1).tolist()

    def _states(self) -> List[Any]:
        # One frozenset per distinct row, shared by every node holding it
        # (a converged population holds one row).
        first, inverse = _distinct_rows(self._rows)
        members = np.unpackbits(
            np.ascontiguousarray(self._rows[first]).view(np.uint8),
            axis=1, bitorder="little")[:, :self.n].astype(bool)
        ids = np.array([a.node_id for a in self._algs], dtype=np.int64)
        sets = [frozenset(ids[row].tolist()) for row in members]
        return [sets[g] for g in inverse.tolist()]


class HeardSetBatchKernel(IdSetBatchKernel):
    """:class:`IdSetBatchKernel` for nodes whose progress is their
    heard-set size (:class:`~repro.core.exact_count.ExactCount`)."""

    def _converge(self) -> None:
        super()._converge()
        self._fixed_progress = self._counts().astype(np.float64)
        self._fixed_progress.flags.writeable = False

    def progress(self) -> np.ndarray:
        if self._rows is None:
            return np.zeros(self.n)
        if self._converged:
            return self._fixed_progress
        return self._counts().astype(np.float64)


class MinVectorBatchKernel(_AggregateKernel):
    """Coordinate-wise-minimum kernel for the sketch family (approx Count)."""

    _fold = np.minimum

    def __init__(self, algs: Sequence[Any],
                 controller: Optional[BatchQuiescence],
                 rounds_bound: Optional[int]) -> None:
        super().__init__(algs, controller, rounds_bound)
        self.width = algs[0].sketch.width

    @classmethod
    def _accepts(cls, algs: Sequence[Any]) -> bool:
        # The decide values use one sketch's estimate.
        shape = (algs[0].sketch.width, type(algs[0].sketch))
        return all((a.sketch.width, type(a.sketch)) == shape for a in algs)

    def _contribute(self, ctx: BatchContext) -> np.ndarray:
        # One draw per node from its private stream, ascending node
        # order — byte-identical RNG consumption to the per-node path.
        return np.array([a.sketch.draw(ctx.rngs[i])
                         for i, a in enumerate(self._algs)],
                        dtype=np.float64)

    def _bits(self) -> np.ndarray:
        bits = _CONTAINER_FRAMING_BITS + 64 * self.width
        return np.full(self.n, bits, dtype=np.int64)

    def _outputs(self, idx: np.ndarray) -> List[float]:
        # One estimate per distinct row; equal rows (byte for byte)
        # estimate equal floats, and the sketches share one type.
        first, inverse = _distinct_rows(self._rows[idx])
        estimate = self._algs[0].sketch.estimate
        values = [estimate(self._rows[i]) for i in idx[first].tolist()]
        return [values[g] for g in inverse.tolist()]

    def _states(self) -> List[Any]:
        # Arrays are mutable: every node gets its own row copy.
        return [row.copy() for row in self._rows]


class PipelinedSketchBatchKernel(MinVectorBatchKernel):
    """Coordinate-masked min-fold for the words-per-message sketch of
    :class:`~repro.core.pipelining.PipelinedApproxCount`.

    Each round every node broadcasts the ``(coordinate, value)`` pairs
    its strategy schedules: under ``"tdm"`` one block of coordinates
    shared by all nodes; under ``"greedy"`` a shared round-robin block
    plus each node's most recently improved coordinates (a row-wise
    stable argsort of ``_last``, the round each coordinate last
    improved).  An inbox folds in as the coordinate-wise minimum of what
    the neighbours sent: the shared merge over the senders' rows with
    the unsent coordinates masked to ``+inf``.
    """

    def __init__(self, algs: Sequence[Any],
                 controller: Optional[BatchQuiescence],
                 rounds_bound: Optional[int]) -> None:
        super().__init__(algs, controller, rounds_bound)
        first = algs[0]
        self._last = np.zeros((self.n, self.width), dtype=np.int64)
        self._w = first.w
        self._cycle = first.cycle
        self._recent = first._recent_share if first.strategy == "greedy" else 0
        # Payload cost: 8 bits of tuple framing, plus per pair 8 bits of
        # framing, the coordinate's int bits and a 64-bit float.
        self._pair_bits = 8 + int_payload_bits(
            np.arange(self.width, dtype=np.int64)) + 64
        self._sends = np.empty(0, dtype=bool)
        self._round = 0

    @classmethod
    def _accepts(cls, algs: Sequence[Any]) -> bool:
        first = algs[0]
        shape = (first.sketch.width, first.w, first.strategy, first.cycle,
                 type(first.sketch))
        return all((a.sketch.width, a.w, a.strategy, a.cycle,
                    type(a.sketch)) == shape for a in algs)

    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        if self._rows is None:
            self._rows = self._contribute(ctx)
        self._round = ctx.round_index
        block = (ctx.round_index - 1) % self._cycle
        share = self._w - self._recent
        lo, hi = block * share, min((block + 1) * share, self.width)
        sends = np.zeros((self.n, self.width), dtype=bool)
        sends[:, lo:hi] = True
        if self._recent:
            order = np.argsort(-self._last, axis=1,
                               kind="stable")[:, :self._w]
            free = (order < lo) | (order >= hi)
            rows, picks = np.nonzero(
                free & (np.cumsum(free, axis=1) <= self._recent))
            sends[rows, order[rows, picks]] = True
        self._sends = sends
        return None, 8 + sends.astype(np.int64) @ self._pair_bits

    def _outbox(self) -> np.ndarray:
        return np.where(self._sends, self._rows, np.inf)

    def _merge(self, csr: Any) -> np.ndarray:
        improved = super()._merge(csr)
        self._last[improved] = self._round
        return improved

    def _write_back(self, nodes: Sequence[Any]) -> None:
        for node, last in zip(nodes, self._last):
            node._last_update = last.copy()


# --------------------------------------------------------------------------
# baseline kernels (random token dissemination, KLO k-committee counting)
# --------------------------------------------------------------------------

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
    included).  A draw's first try is one dense pass: refill the spent
    blocks of streams with ``c > 1``, test every stream's word at its
    ``used`` column (the zero pad column if it never drew; ``c == 1``
    takes any word as ``0``) and advance ``used`` where ``c > 1``; only
    rejected rows retry.  :meth:`restore` rewinds each stream to its
    snapshot from before its current block and replays the words used,
    so it stands where the per-node calls leave it.  Until then streams
    run ahead, so nothing else may draw from them.
    """

    def __init__(self, rngs: Sequence[np.random.Generator],
                 block: int = _DRAW_BLOCK) -> None:
        n = len(rngs)
        self._rngs = rngs
        self._block = block
        self._rows = np.arange(n)
        self._words = np.zeros((n, block + 1), dtype=np.uint32)
        self._used = np.full(n, block, dtype=np.int64)
        self._snapshots: List[Optional[Mapping[str, Any]]] = [None] * n

    def _refill(self, rows: np.ndarray) -> None:
        for i in rows.tolist():
            rng = self._rngs[i]
            self._snapshots[i] = rng.bit_generator.state
            self._words[i, :self._block] = rng.integers(
                0, 1 << 32, size=self._block, dtype=np.uint32)
        self._used[rows] = 0

    def draw(self, counts: np.ndarray) -> np.ndarray:
        used = self._used
        multi = counts > 1
        spent = used == self._block
        if spent.any():
            self._refill(np.flatnonzero(spent & multi))
        bound = counts.astype(np.uint64)
        threshold = (_WORD - bound) % bound
        m = self._words[self._rows, used] * bound
        used += multi
        accept = (m & _LOW32) >= threshold
        picks = (m >> 32).astype(np.int64)
        if accept.all():
            return picks
        rows = np.flatnonzero(~accept)
        bound, threshold = bound[rows], threshold[rows]
        while rows.size:
            self._refill(rows[used[rows] == self._block])
            m = self._words[rows, used[rows]] * bound
            used[rows] += 1
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


class TokenBatchKernel(BatchKernel):
    """Membership-row kernel for one-token-per-round random forwarding.

    Row *i* of the boolean ``(n, n)`` membership matrix marks the tokens
    node *i* knows, columns in ascending token-id order — the order of
    the per-node sorted token list.  ``flat = flatnonzero(known)`` lists
    every row's known columns in that order, row after row; one
    ``searchsorted`` of the row starts ``r * n`` gives each row's first
    entry and count (:meth:`_index`, rebuilt after each ``deliver``).
    Each round draws every node's ``rngs[i].integers(0, count_i)`` at
    once, bit for bit (:class:`_BoundedDraws`; ``finalize`` leaves each
    stream where the per-node calls would), picks row *r*'s ``idx``-th
    token as ``flat[start + idx] - r * n``, scatters the picks through
    the CSR, and decides a node once its count reaches its target.
    """

    def __init__(self, algs: Sequence[Any], token_ids: List[int],
                 known: np.ndarray, targets: np.ndarray) -> None:
        self.n = len(algs)
        self._token_ids = token_ids   # column -> token id, ascending
        self._known = known
        self._targets = targets
        self._rows = np.arange(self.n)
        self._bounds = np.arange(self.n + 1) * self.n  # row r's flat start
        self._bits = np.full(self.n, ID_BITS, dtype=np.int64)
        self._draws: Optional[_BoundedDraws] = None
        self._index()
        self.decided = np.zeros(self.n, dtype=bool)
        self.changed_last = np.ones(self.n, dtype=bool)

    def _index(self) -> None:
        """Rebuild the flat index of set columns and the row counts."""
        self._flat = np.flatnonzero(self._known)
        edges = np.searchsorted(self._flat, self._bounds)
        self._starts = edges[:-1]
        self._counts = edges[1:] - edges[:-1]

    @classmethod
    def build(cls, algs: Sequence[Any]) -> "Optional[TokenBatchKernel]":
        if any(a.tokens != {a.node_id} for a in algs):
            return None  # tokens other than the node's own
        token_ids = sorted(a.node_id for a in algs)
        column = {token: c for c, token in enumerate(token_ids)}
        n = len(algs)
        known = np.zeros((n, n), dtype=bool)
        known[np.arange(n), [column[a.node_id] for a in algs]] = True
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
        self._picks = self._flat[self._starts + idx] - self._bounds[:-1]
        return None, self._bits

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        indptr = csr.indptr
        receivers = np.repeat(self._rows, indptr[1:] - indptr[:-1])
        self._known[receivers, self._picks[csr.indices]] = True
        previous = self._counts
        self._index()
        counts = self._counts
        self.changed_last = changed = counts != previous
        newly = ~self.decided & (counts >= self._targets)
        self.decided |= newly
        events: Events = [("decide", i, int(counts[i]))
                          for i in np.flatnonzero(newly).tolist()]
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

    def progress(self) -> np.ndarray:
        return self._counts.astype(np.float64)


#: KLO round kinds: the three cycle phases, then the two epoch stages.
_POLL, _REQUEST, _GRANT, _VERIFY, _DISSEMINATE = range(5)
_INT64_MAX = np.iinfo(np.int64).max


#: The state :meth:`KCommitteeCount._reset_epoch_state` leaves, at epoch
#: round 0: ``(epoch round, committee, poll minimum, grants made, granted
#: ids, request table, grant table, polluted, count heard)``.
_KLO_FRESH: Tuple[Any, ...] = (0, None, None, 0, set(), {}, {}, False, None)


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
    grantee and no node is named twice.

    The kernel starts from nodes at epoch round 0 with one guess and
    guess growth, and holds one epoch position ``(k, t)`` for all of
    them, so a round derives its phase, cycle and round-within-phase
    once in Python ints.  Every node is in the same phase.  The position
    stays shared while verification ends with all nodes polluted (all
    restart with a grown guess) or none (all disseminate).  When it ends
    with only some polluted, which needs a broken T-interval promise or
    message loss, the polluted nodes restart while the clean ones
    disseminate: :meth:`_advance` sets ``_retire_reason``, the kernel
    retires after that round, and :meth:`finalize` writes both
    positions back.

    A phase *settles* once its state is a fixed point of its fold
    whatever the edges and loss mask (see :meth:`_fixed_point`).  After
    a round that changed no node the kernel tests for it; until the
    phase's last round, ``compose`` then returns the round's frozen
    ``(sends, bits)`` and ``deliver`` folds nothing, returning one
    shared all-False mask.  The position still advances every round.
    The phase-end round takes the full path, as its end logic writes
    state.
    """

    def __init__(self, algs: Sequence[Any], k: int, growth: int) -> None:
        n = self.n = len(algs)
        self._ids = sorted(a.node_id for a in algs)  # rank -> node id
        rank = {node_id: r for r, node_id in enumerate(self._ids)}
        self._own = np.array([rank[a.node_id] for a in algs],
                             dtype=np.int64)        # node index -> rank
        self._growth = growth
        self._k, self._t = k, 0
        self._kind = self._cycle = self._pr = 0
        self._committee = np.empty(n, dtype=np.int64)
        self._grants = np.empty(n, dtype=np.int64)
        self._granted = np.empty((n, n), dtype=bool)  # column = rank
        self._poll = np.empty(n, dtype=np.int64)
        self._req = np.empty((n, n), dtype=np.int64)
        self._grant = np.empty((n, n), dtype=np.int64)
        self._polluted = np.empty(n, dtype=bool)
        self._count = np.empty(n, dtype=np.int64)   # -1: no count heard
        self._restart(np.ones(n, dtype=bool))
        #: The nodes that restarted when the epoch position split.
        self._restarted: Optional[np.ndarray] = None
        self.decided = np.zeros(n, dtype=bool)
        self.changed_last = np.ones(n, dtype=bool)
        self._settled: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._unchanged = np.zeros(n, dtype=bool)
        self._unchanged.flags.writeable = False

    # -- build / write back --------------------------------------------------

    @classmethod
    def build(cls, algs: Sequence[Any]
              ) -> "Optional[KCommitteeBatchKernel]":
        first = algs[0]
        k, growth = first.k, first.guess_growth
        if any(a.k != k or a.guess_growth != growth
               or (a._epoch_round, a.committee, a.poll_min, a.grants_made,
                   a.granted_ids, a.request_best, a.grant_seen, a.polluted,
                   a.count_heard) != _KLO_FRESH
               for a in algs):
            return None
        return cls(algs, k, growth)

    def finalize(self, nodes: Sequence[Any]) -> None:
        n = self.n
        ids = self._ids

        def table(row: List[int]) -> Dict[int, int]:
            return {ids[key]: ids[value]
                    for key, value in enumerate(row) if value != n}

        positions = [(self._k, self._t)] * n
        if self._restarted is not None:
            for i in np.flatnonzero(self._restarted).tolist():
                positions[i] = (self._k * self._growth, 0)
        committee, poll = self._committee.tolist(), self._poll.tolist()
        grants, count = self._grants.tolist(), self._count.tolist()
        polluted = self._polluted.tolist()
        changed = self.changed_last.tolist()
        for i, node in enumerate(nodes):
            node.k, node._epoch_round = positions[i]
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

    def _locate(self) -> int:
        """Derive this round's kind, cycle and round within the phase,
        and return its payload header bits (framing, tag, ``k`` and, in
        the cycles, the cycle).  Epoch round ``t`` at guess ``k`` lies in
        cycle ``t // 3k`` while that is below ``k`` (phase
        ``(t mod 3k) // k``), then in the ``k + 2`` verification rounds,
        then in dissemination."""
        k = self._k
        self._cycle, rem = divmod(self._t, 3 * k)
        head = 24 + bit_size(k)
        if self._cycle < k:
            self._kind, self._pr = divmod(rem, k)
            return head + bit_size(self._cycle)
        past = self._t - 3 * k * k
        if past < k + 2:
            self._kind, self._pr = _VERIFY, past
        else:
            self._kind, self._pr = _DISSEMINATE, past - (k + 2)
        return head

    def _phase_ends(self) -> bool:
        """Whether this round is its phase's last: round ``k - 1`` of a
        cycle phase, ``k + 1`` of verification or dissemination."""
        return self._pr == self._k + (1 if self._kind >= _VERIFY else -1)

    def compose(self, ctx: BatchContext
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        head = self._locate()
        if self._settled is not None:
            if not self._phase_ends():
                return self._settled
            self._settled = None
        n, kind = self.n, self._kind
        self._uncommitted = self._committee == n
        if kind == _POLL:
            value = np.where(self._uncommitted,
                             np.minimum(self._poll, self._own), self._poll)
            sends = value != n
            self._poll_value = value
            self._poll_msg = np.where(sends, value, n)
            bits = np.where(sends, head + ID_BITS, 0)
        elif kind == _REQUEST or kind == _GRANT:
            rows = self._req if kind == _REQUEST else self._grant
            entries = np.count_nonzero(rows != n, axis=1)
            sends = entries > 0
            bits = np.where(
                sends, head + 8 + entries * (8 + 2 * ID_BITS), 0)
        elif kind == _VERIFY:
            sends = np.ones(n, dtype=bool)
            self._verify_msg = np.where(self._polluted, -1, self._committee)
            bits = head + np.where(self._polluted, 16, ID_BITS)
        else:
            sends = self._count >= 0
            self._count_msg = self._count.copy()  # -1: sends nothing
            bits = np.where(sends, head + int_payload_bits(self._count), 0)
        self._sends, self._bits = sends, bits
        return sends, bits

    def deliver(self, ctx: BatchContext, csr: Any,
                sender_mask: Optional[np.ndarray]) -> Tuple[bool, Events]:
        if self._settled is not None:
            self._advance()
            self.changed_last = self._unchanged
            return False, []
        changed = np.zeros(self.n, dtype=bool)
        events: Events = []
        end = self._phase_ends()
        kind = self._kind
        if kind == _POLL:
            self._poll_round(csr, changed, end)
        elif kind == _REQUEST:
            self._merge_rows(self._req, csr, changed)
            if end:
                self._end_request()
                changed[:] = True
        elif kind == _GRANT:
            self._merge_rows(self._grant, csr, changed)
            if end:
                self._end_grant()
                changed[:] = True
        elif kind == _VERIFY:
            self._verify_round(csr, changed, end)
        else:
            self._disseminate(csr, changed, events, end)
        self._advance()
        self.changed_last = changed
        changed_any = bool(changed.any())
        if not changed_any and self._fixed_point():
            self._sends.flags.writeable = False
            self._bits.flags.writeable = False
            self._settled = self._sends, self._bits
        return changed_any, events

    def _fixed_point(self) -> bool:
        """Whether the running phase's state is a fixed point of its
        idempotent min/max fold, for any edges and loss mask: every node
        sends the same message, which changes no node.

        Called after a round that changed no node, so each node's poll
        already equals the value it broadcasts (``min(poll, own)`` when
        uncommitted).  Verification sends the marker or the committee,
        so all nodes send the same there when all are polluted, or all
        are clean in one committee.
        """
        kind = self._kind
        if kind == _POLL:
            state = self._poll
        elif kind == _REQUEST:
            state = self._req
        elif kind == _GRANT:
            state = self._grant
        elif kind == _VERIFY:
            state = self._verify_msg
        else:
            state = self._count
        return bool((state == state[0]).all())

    def _heard(self, csr: Any, sent: np.ndarray, silent: int,
               ufunc: np.ufunc) -> np.ndarray:
        """Per-receiver *ufunc* fold of the senders' *sent* values
        (*silent* for receivers that heard nothing)."""
        out = np.full(self.n, silent, dtype=np.int64)
        return segment_reduce(ufunc, sent[csr.indices], csr.indptr, out)

    def _poll_round(self, csr: Any, changed: np.ndarray, end: bool) -> None:
        poll = self._poll_value  # composed this round: the kernel's own
        segment_reduce(np.minimum, self._poll_msg[csr.indices],
                       csr.indptr, poll)
        changed |= poll != self._poll
        self._poll = poll
        if end:
            # Poll phase ends: uncommitted non-leaders file their own
            # join request, addressed to their poll minimum.
            n, own = self.n, self._own
            self._req[:] = n
            files = self._uncommitted & (poll != n) & (poll != own)
            self._req[files, poll[files]] = own[files]
            changed[:] = True

    def _merge_rows(self, rows: np.ndarray, csr: Any,
                    changed: np.ndarray) -> None:
        """Fold the phase's ``(key, value)`` messages into *rows* by
        per-key minimum.  A node that sends nothing holds a row of
        "none"s, so every gathered row can be folded."""
        merged = rows.copy()
        segment_reduce(np.minimum, rows[csr.indices], csr.indptr, merged)
        changed |= (merged != rows).any(axis=1)
        rows[...] = merged

    def _end_request(self) -> None:
        """Request phase ends: each leader grants its best requester."""
        n, own = self.n, self._own
        self._grant[:] = n
        best = self._req[np.arange(n), own]
        grants = (self._uncommitted & (self._poll == own)
                  & (best != n) & (best != own))
        self._grant[grants, own[grants]] = best[grants]
        self._grants[grants] += 1
        self._granted[grants, best[grants]] = True

    def _end_grant(self) -> None:
        """Grant phase ends: a granted node joins its leader; then the
        cycle's state resets, and after the last cycle the still
        uncommitted nodes form singleton committees."""
        n, own = self.n, self._own
        joins = ((self._grant == own[:, None])
                 & (self._committee == n)[:, None])
        joined = joins.any(axis=1)
        self._committee[joined] = np.argmax(joins[joined], axis=1)
        self._poll[:] = n
        self._req[:] = n
        self._grant[:] = n
        if self._cycle == self._k - 1:
            singles = self._committee == n
            self._committee[singles] = own[singles]

    def _verify_round(self, csr: Any, changed: np.ndarray,
                      end: bool) -> None:
        n = self.n
        lo = self._heard(csr, self._verify_msg, n + 1, np.minimum)
        hi = self._heard(csr, self._verify_msg, -2, np.maximum)
        committee = self._committee
        newly = (~self._polluted & (lo <= n)
                 & ((lo != committee) | (hi != committee)))
        self._polluted |= newly
        changed |= newly
        if end:
            # Verification ends; on success the unique leader seeds the
            # count for dissemination.
            seeds = ~self._polluted & (committee == self._own)
            self._count[seeds] = self._grants[seeds] + 1
            changed[:] = True

    def _disseminate(self, csr: Any, changed: np.ndarray, events: Events,
                     end: bool) -> None:
        sent = self._count_msg
        lo = self._heard(csr, np.where(sent < 0, _INT64_MAX, sent),
                         _INT64_MAX, np.minimum)
        hi = self._heard(csr, sent, -1, np.maximum)
        count = self._count
        heard = hi >= 0
        conflict = heard & np.where(count < 0, lo != hi,
                                    (lo != count) | (hi != count))
        fresh = heard & (count < 0)
        # A violation raises before this round writes any state.
        bad = conflict | ((count < 0) & ~fresh) if end else conflict
        if bad.any():
            self._raise_violation(int(np.argmax(bad)), csr)
        count[fresh] = lo[fresh]
        changed |= fresh
        if end:
            for i, value in enumerate(count.tolist()):
                events.append(("decide", i, value))
                events.append(("halt", i, None))
            self.decided[:] = True

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
        raise AlgorithmViolation(
            f"node {node_id}: dissemination ended without a count "
            f"(k={self._k})")

    def _advance(self) -> None:
        """Advance the epoch round.  The polluted nodes ending
        verification restart with a grown guess: when all nodes are
        polluted, the shared position moves to it; when only some are,
        the position splits and the kernel retires after this round."""
        ending = self._kind == _VERIFY and self._phase_ends()
        self._t += 1
        if not ending:
            return
        restart = self._polluted.copy()
        if not restart.any():
            return
        self._restart(restart)
        if restart.all():
            self._k *= self._growth
            self._t = 0
        else:
            self._restarted = restart
            self._retire_reason = (
                "verification ended with only some nodes polluted: the "
                "KLO epoch position split")

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
    ``sim._batch_kernel``."""
    sim._batch_ctx = BatchContext(
        sim.round_index, sim._node_rngs, sim.metrics.incr)
    sim._tier = "batch"


def run_batch_round(sim: Any) -> None:
    """One round via the population's batch kernel.

    Equivalent to the reference tier's round observable-for-observable
    for eligible runs: identical metrics (broadcast sums are commutative and
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
    # unfiltered live degrees, exactly as the reference tier does.
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
        delivered = int(csr.indptr[-1])  # every indptr starts at 0
    else:
        n_bcast = int(mask.sum())
        sender_bits = bits[mask]
        sender_degrees = degrees[mask]
        delivered = int(sender_degrees.sum())
    if n_bcast:
        metrics.broadcasts += n_bcast
        metrics.delivered_messages += delivered
        metrics.broadcast_bits += int(sender_bits.sum())
        metrics.delivered_bits += int(sender_bits @ sender_degrees)
        max_bits = int(sender_bits.max())
        if max_bits > metrics.max_broadcast_bits:
            metrics.max_broadcast_bits = max_bits

    # Phase 3: deliver (one segment-reduce over the CSR).  Under loss
    # the kernel folds a filtered delivery view instead of the round's
    # graph; the per-edge keep mask consumes the shared loss stream
    # bit-identically to the reference tier.
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

    # Phase 4: drain — reconcile this round's decide/retract/halt
    # events onto the node objects.
    if prof is not None:
        t1 = perf_counter()
        prof["deliver"] += t1 - t0
        t0 = t1
    nodes = sim.nodes
    halted_any = False
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
            halted_any = True
    if prof is not None:
        prof["drain"] += perf_counter() - t0

    # The kernels assume every node is alive (and KLO's, one epoch
    # position); fall back to the reference tier for what remains.
    retire = ("halt event deactivated the batch kernel" if halted_any
              else kernel._retire_reason)
    if retire is not None:
        sim._fallback_reason = retire
        deactivate_batch(sim)

    sim._quiescent_streak = (
        0 if changed_any else sim._quiescent_streak + 1)
    metrics.on_round_executed()


def deactivate_batch(sim: Any) -> None:
    """Leave batch mode, restoring full per-node state (idempotent)."""
    if sim._tier != "batch":
        return
    sim._tier = "reference"
    kernel = sim._batch_kernel
    sim._batch_kernel = None
    sim._batch_ctx = None
    kernel.finalize(sim.nodes)

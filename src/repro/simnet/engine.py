"""The lock-step round engine.

:class:`Simulator` wires together a *dynamic-graph schedule* (a
:class:`~repro.dynamics.GraphSchedule` from :mod:`repro.dynamics`), a
list of :class:`~repro.simnet.node.Algorithm` nodes, and the metrics
machinery, and executes synchronous rounds:

1. every non-halted node composes its broadcast payload (graph not yet
   visible to it);
2. the schedule's graph for the round delivers each payload to the
   sender's current neighbours;
3. every non-halted node consumes its inbox;
4. decision-lifecycle events are drained into metrics.

Stop conditions
---------------
``run`` stops at the first of:

* all nodes **halted** (``until="halted"``, the default);
* all nodes **decided** (``until="decided"``) — appropriate for algorithms
  that decide exactly once;
* all nodes decided and reporting no state change for
  ``quiescence_window`` consecutive rounds (``until="quiescent"``) —
  appropriate for *stabilizing* algorithms whose decisions may be
  tentatively wrong and later retracted (see
  :mod:`repro.core.termination` for why this matters in this model);
* a user predicate (``stop_when(round_index, progress)``, see
  :meth:`Simulator.progress`);
* the round budget ``max_rounds`` (raising
  :class:`~repro.errors.NotTerminatedError` unless ``allow_timeout``).

Engines
-------
Rounds execute on one of two **tiers**, both producing **identical**
:class:`RunResult`\\ s (golden-equivalence tested across topologies ×
algorithms × loss rates, and on generated specs); :func:`select_tier`
picks one when ``run()`` starts and reports why it passed over the
other:

* **batch** — when every node is an instance of one algorithm class
  that itself defines the ``__batch_kernel__`` hook (see
  :mod:`repro.simnet.batch`) and the run starts at round 0 from the
  state the nodes were constructed with, whole rounds execute as NumPy
  segment-reduces over the CSR adjacency, with decisions/halts/metrics
  reconciled from the arrays.  Message loss is handled natively via a
  vectorised per-edge Bernoulli delivery view.  The first halt event
  retires the kernel to the reference tier for the remaining rounds,
  as does a KLO epoch position that splits.
* **reference** — the straightforward per-node loops of
  :func:`repro.simnet.rounds.run_reference_round`, the executable
  specification the batch tier is tested against.  It runs populations
  without a kernel, with an already halted node or with state other
  than their constructed one, every ``run()`` that starts after round
  0, the rounds after a kernel retires, and everything under
  ``engine="reference"``.

``Simulator(engine=...)`` accepts ``"fast"`` (the default: the
population's batch kernel, else the reference loop) and
``"reference"``; ``engine=None`` reads the ``REPRO_ENGINE`` environment
variable, falling back to ``"fast"``.

Progress vector
---------------
:meth:`Simulator.progress` is every node's
:attr:`~repro.simnet.node.Algorithm.progress` as one float array,
served by the batch kernel while one is engaged and read from the node
objects otherwise.  Adaptive schedules ``bind`` to it, and ``stop_when``
predicates receive it, so neither reads node objects and neither keeps
a run off the batch tier.

Private coins
-------------
Node *i*'s stream is ``rng.for_node("node", id_i)``, created the first
time anything reads it (:class:`~repro.simnet.rng.NodeStreams`): a
reference round, a batch kernel that draws (``BatchContext.rngs[i]``),
or a test.  Of the batch kernels only the sketch (approximate Count) and
token kernels draw, so a batch-tier run of any other kernel builds no
generator and no :class:`RoundContext`.

Bandwidth
---------
The engine accounts message width and enforces no budget: every run
measures its largest broadcast (``RunMetrics.max_broadcast_bits``, with
node ids charged :data:`~repro.simnet.message.ID_BITS`), and a
bounded-bandwidth algorithm keeps to its own word budget.

Profiling
---------
Call :func:`set_profile_default` (the harness CLI's ``--profile`` flag
does) before constructing simulators to collect monotonic per-phase
wall-clock totals — ``compose``, ``reveal``, ``deliver``, ``drain`` —
in :attr:`Simulator.phase_seconds`, next to the per-tier round counts of
:attr:`Simulator.tier_rounds`.  Neither is part of the
:class:`RunResult`; :func:`repro.harness.runner.run_trial` copies both
into ``phase.*`` / ``engine.*`` row columns when profiling.  Profiling
does not change the code path.  ``reveal`` times the ``adjacency(r)``
call plus transmission accounting.  The reference tier drains decision
events inside the delivery pass, so there ``deliver`` includes draining
and ``drain`` reads 0.0; only the batch tier times ``drain`` separately.

Observability
-------------
Pass ``recorder=`` a :class:`repro.obs.Recorder` to stream structured
events (per-round broadcast/delivery totals, decision lifecycles,
engine-tier selection with reasons, cache hit/miss counters).  The hook
is zero-overhead when absent — one ``is None`` check per round, no event
objects allocated; when present, rounds route through
:meth:`Simulator._step_recorded`, which wraps the same tier round an
unrecorded run executes.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

import numpy as np

from .._validate import (require_choice, require_loss_rate,
                         require_positive_int)
from ..errors import (ConfigurationError, IncorrectOutputError,
                      NotTerminatedError)
from ..obs import events as obs_events
from ..obs.recorder import Recorder
from .batch import (build_batch_kernel, deactivate_batch, engage_batch,
                    run_batch_round)
from .message import bit_size
from .metrics import MetricsCollector, RunMetrics
from .node import Algorithm
from .rng import NodeStreams, RngRegistry
from .rounds import run_reference_round

if TYPE_CHECKING:
    from ..dynamics.schedule import GraphSchedule

__all__ = ["Simulator", "RunResult", "ENGINES",
           "select_tier", "set_profile_default", "engine_default"]

#: Phase names of the per-round profiling breakdown, in execution order.
PHASES = ("compose", "reveal", "deliver", "drain")

#: Every name ``Simulator(engine=...)``, ``REPRO_ENGINE`` and the CLI's
#: ``--engine`` accept.
ENGINES = ("fast", "reference")

#: The round function of each tier, in preference order.
_ROUNDS: Dict[str, Callable[["Simulator"], None]] = {
    "batch": run_batch_round,
    "reference": run_reference_round,
}

#: ``stop_when(round_index, progress)``: whether to stop after the round.
StopPredicate = Callable[[int, np.ndarray], bool]

_PROFILE_DEFAULT = False


def engine_default() -> str:
    """Process-wide default for ``Simulator(engine=None)``.

    The ``REPRO_ENGINE`` environment variable when set and non-empty
    (the CLI's ``--engine`` flag exports it, so executor worker
    processes inherit it), otherwise ``"fast"``.
    """
    return os.environ.get("REPRO_ENGINE", "") or "fast"


def select_tier(sim: "Simulator") -> Tuple[str, List[Tuple[str, str]]]:
    """The tier a ``sim.run()`` call executes on.

    Returns ``(tier, declined)``: *declined* holds one ``(tier, reason)``
    entry when the batch tier was passed over.  The rules, in order:

    * **reference** when ``engine="reference"``;
    * **reference** when the simulator has already run rounds: kernels
      start only from the state nodes hold before round 1;
    * **batch** when :func:`~repro.simnet.batch.build_batch_kernel`
      builds the population's kernel (left in ``sim._batch_kernel`` for
      ``run()`` to engage);
    * **reference** otherwise, with the builder's reason.
    """
    if sim.engine == "reference":
        reason = "engine='reference'"
    elif sim.round_index:
        reason = (f"population has run {sim.round_index} rounds already "
                  f"(kernels start only before round 1)")
    else:
        kernel, reason = build_batch_kernel(sim.nodes)
        if kernel is not None:
            sim._batch_kernel = kernel
            return "batch", []
    return "reference", [("batch", reason)]


def set_profile_default(enabled: bool) -> None:
    """Turn per-phase timing on or off for simulators constructed later.

    The one profiling switch: the harness CLI's ``--profile`` flag calls
    this before running experiments, so every simulator the experiment
    grids construct collects :attr:`Simulator.phase_seconds` without
    threading a flag through every spec (worker processes inherit the
    setting under the default ``fork`` start method).
    """
    global _PROFILE_DEFAULT
    _PROFILE_DEFAULT = bool(enabled)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :meth:`Simulator.run` call.

    Attributes
    ----------
    metrics:
        Frozen complexity accounting for the run.
    outputs:
        Final decision value per node id (missing nodes never decided).
    rounds:
        Rounds executed (equal to ``metrics.rounds``).
    stop_reason:
        One of ``"halted"``, ``"decided"``, ``"quiescent"``, ``"predicate"``,
        ``"max_rounds"``.
    """

    metrics: RunMetrics
    outputs: Dict[int, Any]
    rounds: int
    stop_reason: str

    def unanimous_output(self) -> Any:
        """Return the single common output, or raise
        :class:`~repro.errors.IncorrectOutputError` if nodes disagree.

        Convenience for problems (Count, Max, Consensus) whose spec
        requires all nodes to output the same value.
        """
        values = set(self.outputs.values())
        if len(values) != 1:
            raise IncorrectOutputError(
                f"nodes disagree: {sorted(map(repr, values))[:10]}")
        return next(iter(values))


class Simulator:
    """Round engine binding a schedule to a set of protocol nodes.

    Parameters
    ----------
    schedule:
        The dynamic-graph schedule (see :mod:`repro.dynamics`); it must
        expose ``adjacency(r)``, the CSR view both tiers read.  An
        adaptive schedule's ``bind`` receives :meth:`Simulator.progress`.
    nodes:
        One :class:`Algorithm` per schedule index, in index order.  Node
        *ids* may be arbitrary distinct ints; node *indices* (their
        position in this list) are what the schedule's adjacency refers to.
    rng:
        Registry from which each node's private stream is drawn
        (component name ``"node"``).  A fresh seed-0 registry by default.
    loss_rate:
        EXTENSION beyond the paper's model (used by experiment X2): each
        *directed delivery* is independently dropped with this
        probability (seeded from *rng*, component ``"loss"``).  Note
        that message loss silently weakens the adversary's promise — the
        effective per-round graph is a random subgraph — so halting
        known-bound algorithms lose their correctness guarantee, while
        the stabilizing core remains eventually correct as long as
        information keeps flowing.
    engine:
        ``"fast"`` or ``"reference"``; see the module docstring.  Both
        produce identical results — ``"reference"`` exists as the
        executable specification and for debugging.  ``None`` (default)
        resolves to :func:`engine_default`.
    recorder:
        Optional :class:`repro.obs.Recorder` receiving the structured
        event stream (see the module docstring).  ``None`` (default)
        records nothing and costs nothing.
    """

    def __init__(
        self,
        schedule: GraphSchedule,
        nodes: Sequence[Algorithm],
        rng: Optional[RngRegistry] = None,
        loss_rate: float = 0.0,
        engine: Optional[str] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if len(nodes) != schedule.num_nodes:
            raise ConfigurationError(
                f"schedule has {schedule.num_nodes} nodes but {len(nodes)} "
                f"Algorithm instances were supplied"
            )
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("node ids must be distinct")
        negative = next((node_id for node_id in ids if node_id < 0), None)
        if negative is not None:
            raise ConfigurationError(f"node_id must be >= 0, got {negative}")
        if getattr(schedule, "adjacency", None) is None:
            raise ConfigurationError(
                f"{type(schedule).__name__} exposes no adjacency(r); "
                f"schedules must be repro.dynamics.GraphSchedule instances")
        if engine is None:
            engine = require_choice(engine_default(), "REPRO_ENGINE", ENGINES)
        else:
            require_choice(engine, "engine", ENGINES)
        self.schedule = schedule
        self.nodes: List[Algorithm] = list(nodes)
        self.rng = rng if rng is not None else RngRegistry(0)
        self.loss_rate = require_loss_rate(loss_rate, "loss_rate")
        self._loss_rng = self.rng.for_component("loss") if loss_rate else None
        self.metrics = MetricsCollector()
        self.round_index = 0
        # Each node's private stream, created when first read (see
        # NodeStreams): the batch kernels of non-drawing algorithms never
        # read one.
        self._node_rngs = NodeStreams(self.rng, "node", ids)
        self._quiescent_streak = 0
        # Payload objects repeat across rounds once protocols converge
        # (see AggregateNode's encode cache); memoize their bit cost by
        # identity, keeping a strong ref so the id stays valid.  Bounded
        # by evicting the oldest quarter, so converged-payload entries
        # survive cache pressure.
        self._bits_cache: Dict[int, Tuple[Any, int]] = {}
        self._bits_cache_cap = max(64, 4 * len(self.nodes))
        #: Wall-clock seconds per phase (:data:`PHASES`) when profiling
        #: (see :func:`set_profile_default`), else ``None``; the round
        #: loops add to it in place.
        self.phase_seconds: Optional[Dict[str, float]] = (
            {name: 0.0 for name in PHASES} if _PROFILE_DEFAULT else None)
        #: The requested engine, ``"fast"`` or ``"reference"`` (see
        #: :func:`select_tier`).
        self.engine = engine
        #: The tier the next round executes on: ``"batch"`` while a
        #: kernel is engaged during run(), else ``"reference"``.
        self._tier = "reference"
        self._batch_kernel: Optional[Any] = None
        self._batch_ctx: Optional[Any] = None
        #: Why the last engaged kernel retired mid-run (a recorded
        #: run's ``fallback`` event carries it).
        self._fallback_reason = ""
        # Adaptive schedules read the progress vector, never node objects.
        bind = getattr(schedule, "bind", None)
        if bind is not None:
            bind(self.progress)
        #: Rounds executed per tier: telemetry, never measured data.
        #: Profiled trials report it as ``engine.*`` row columns.
        self.tier_rounds: Dict[str, int] = {tier: 0 for tier in _ROUNDS}
        # Observability (see the module docstring): everything below is
        # allocated only when a recorder is attached, so the unrecorded
        # hot path pays one `is None` check per round and nothing else.
        self.recorder = recorder
        self._bits_stats: Optional[Dict[str, int]] = None
        self._adj_stats_base: Optional[Dict[str, int]] = None
        self._rec_halted: Optional[set] = None
        self._rec_nodes_by_id: Optional[Dict[int, Algorithm]] = None
        if recorder is not None:
            self._rec_nodes_by_id = {node.node_id: node for node in self.nodes}
            self._rec_halted = {
                node.node_id for node in self.nodes if node._halted}
            adj_stats = getattr(schedule, "adjacency_stats", None)
            if adj_stats is not None:
                self._adj_stats_base = dict(adj_stats)
            # Misses are counted where bit_size runs (_payload_bits);
            # hits are derived per reference round in _step_recorded.
            self._bits_stats = {"hits": 0, "misses": 0}

    # -- payload costing -----------------------------------------------------

    def _payload_bits(self, payload: Any) -> int:
        """Bit cost of *payload*, memoized by object identity.

        On overflow the **oldest quarter** of entries is evicted (dict
        insertion order) rather than dropping the whole cache, so the
        long-lived converged payloads that motivate the memoization keep
        their entries under pressure from transient ones.
        """
        cache = self._bits_cache
        entry = cache.get(id(payload))
        if entry is not None and entry[0] is payload:
            return entry[1]
        bits = bit_size(payload)
        if self._bits_stats is not None:
            self._bits_stats["misses"] += 1
        if len(cache) >= self._bits_cache_cap:
            for key in list(islice(iter(cache), self._bits_cache_cap // 4)):
                del cache[key]
        cache[id(payload)] = (payload, bits)
        return bits

    # -- progress ------------------------------------------------------------

    def progress(self) -> np.ndarray:
        """Every node's :attr:`~repro.simnet.node.Algorithm.progress`, in
        node-index order, as float64: what adaptive schedules sort on
        and ``stop_when`` predicates receive.  The engaged batch kernel
        serves it from its arrays; otherwise the node objects do."""
        if self._tier == "batch":
            return self._batch_kernel.progress()
        return np.array([node.progress for node in self.nodes],
                        dtype=np.float64)

    # -- single round --------------------------------------------------------

    def step(self) -> None:
        """Execute exactly one round."""
        if self.recorder is None:
            self._step_inner()
        else:
            self._step_recorded(self.recorder)

    def _step_inner(self) -> None:
        """One round on whichever tier is live."""
        tier = self._tier
        self.tier_rounds[tier] += 1
        _ROUNDS[tier](self)

    def _step_recorded(self, rec: Recorder) -> None:
        """One round with the observability stream attached.

        Emits per-round :class:`~repro.obs.events.RoundEvent` /
        :class:`~repro.obs.events.DeliveryEvent` totals (deltas of the
        metric sums, so the events hold regardless of tier), per-node
        :class:`~repro.obs.events.DecisionEvent` lifecycle changes
        (diffed from the decision/halt state, which is how one
        implementation covers both tiers), and a mid-run
        :class:`~repro.obs.events.EngineTierEvent` when the batch kernel
        falls back to the reference tier.  On the reference tier every
        broadcast looks its payload up in the bit-size memo, so the
        round's memo hits are its broadcasts minus the misses
        :meth:`_payload_bits` counted.
        """
        metrics = self.metrics
        bits_stats = self._bits_stats
        prev_broadcasts = metrics.broadcasts
        prev_bbits = metrics.broadcast_bits
        prev_msgs = metrics.delivered_messages
        prev_dbits = metrics.delivered_bits
        prev_misses = bits_stats["misses"]
        prev_decisions = dict(metrics._decision_rounds)
        tier = self._tier

        self._step_inner()

        r = self.round_index
        broadcasts = metrics.broadcasts - prev_broadcasts
        if tier != "batch":
            bits_stats["hits"] += (
                broadcasts - (bits_stats["misses"] - prev_misses))
        rec.emit(obs_events.RoundEvent(
            round=r, tier=tier, broadcasts=broadcasts,
            broadcast_bits=metrics.broadcast_bits - prev_bbits,
            max_broadcast_bits=metrics.max_broadcast_bits))
        rec.emit(obs_events.DeliveryEvent(
            round=r,
            messages=metrics.delivered_messages - prev_msgs,
            bits=metrics.delivered_bits - prev_dbits))
        now = metrics._decision_rounds
        if now != prev_decisions:
            by_id = self._rec_nodes_by_id
            for node_id, decided_round in now.items():
                if prev_decisions.get(node_id) != decided_round:
                    node = by_id[node_id]
                    rec.emit(obs_events.DecisionEvent(
                        round=r, node_id=node_id, action="decide",
                        value=node.output if node.decided else None))
            for node_id in prev_decisions:
                if node_id not in now:
                    rec.emit(obs_events.DecisionEvent(
                        round=r, node_id=node_id, action="retract"))
        halted_seen = self._rec_halted
        for node in self.nodes:
            if node._halted and node.node_id not in halted_seen:
                halted_seen.add(node.node_id)
                rec.emit(obs_events.DecisionEvent(
                    round=r, node_id=node.node_id, action="halt"))
        if tier != self._tier:
            # The batch kernel retired after this round: on its first
            # halt event, or on the kernel's own reason.
            reason = self._fallback_reason
            rec.emit(obs_events.EngineTierEvent(
                round=r, tier=self._tier, action="fallback", reason=reason,
                declined=[{"tier": tier, "reason": reason}]))

    def _emit_cache_events(self, rec: Recorder) -> None:
        """Emit one ``CacheEvent`` per cache."""
        adj_stats = getattr(self.schedule, "adjacency_stats", None)
        if adj_stats is not None:
            base = self._adj_stats_base or {}
            delta = {key: adj_stats[key] - base.get(key, 0)
                     for key in adj_stats}
            span_hits = delta.get("span_hits", 0)
            repeat_hits = delta.get("repeat_hits", 0)
            rec.emit(obs_events.CacheEvent(
                round=self.round_index, cache="adjacency",
                hits=span_hits + repeat_hits,
                misses=delta.get("builds", 0),
                detail=f"span_hits={span_hits} repeat_hits={repeat_hits}"))
        rec.emit(obs_events.CacheEvent(
            round=self.round_index, cache="payload_bits",
            hits=self._bits_stats["hits"],
            misses=self._bits_stats["misses"],
            detail=f"entries={len(self._bits_cache)}"))

    # -- stop-condition helpers ----------------------------------------------

    def _all_halted(self) -> bool:
        if self._tier == "batch":
            return False  # the first halt event retires the kernel
        return all(node._halted for node in self.nodes)

    def _all_decided_or_halted(self) -> bool:
        if self._tier == "batch":
            return bool(self._batch_kernel.decided.all())
        return all(node._decided or node._halted for node in self.nodes)

    # -- full run --------------------------------------------------------------

    def run(
        self,
        max_rounds: int,
        until: str = "halted",
        quiescence_window: int = 1,
        stop_when: Optional[StopPredicate] = None,
        allow_timeout: bool = False,
    ) -> RunResult:
        """Execute rounds until a stop condition fires.

        See the module docstring for the semantics of each *until* value.
        *stop_when* is called after every round with the round index and
        :meth:`progress`.
        """
        require_positive_int(max_rounds, "max_rounds")
        require_choice(until, "until", ("halted", "decided", "quiescent"))
        require_positive_int(quiescence_window, "quiescence_window")

        stop_reason = "max_rounds"
        tier, declined = select_tier(self)
        if tier == "batch":
            engage_batch(self)
        rec = self.recorder
        if rec is not None:
            if tier == "batch":
                reason = "population batch kernel engaged"
            else:
                reason = declined[0][1]
            rec.emit(obs_events.EngineTierEvent(
                round=self.round_index, tier=tier, action="select",
                reason=reason,
                declined=[{"tier": t, "reason": r} for t, r in declined]
                or None))
        try:
            while self.round_index < max_rounds:
                self.step()
                if (stop_when is not None
                        and stop_when(self.round_index, self.progress())):
                    stop_reason = "predicate"
                    break
                if until == "halted":
                    if self._all_halted():
                        stop_reason = "halted"
                        break
                elif until == "decided":
                    if self._all_decided_or_halted():
                        stop_reason = "decided"
                        break
                else:  # quiescent
                    if (self._quiescent_streak >= quiescence_window
                            and self._all_decided_or_halted()):
                        stop_reason = "quiescent"
                        break
        finally:
            # Whatever happens, node objects must reflect the batch
            # kernel's state before anyone (including the error path
            # below, or a later run() call) inspects them; a kernel that
            # retired mid-run already wrote itself back.
            deactivate_batch(self)

        if rec is not None:
            self._emit_cache_events(rec)
            tiers = self.tier_rounds
            rec.emit(obs_events.SummaryEvent(
                rounds=self.round_index, stop_reason=stop_reason,
                broadcast_bits=self.metrics.broadcast_bits,
                delivered_messages=self.metrics.delivered_messages,
                batch_rounds=tiers["batch"],
                reference_rounds=tiers["reference"]))

        if stop_reason == "max_rounds" and not allow_timeout:
            undecided = tuple(
                node.node_id for node in self.nodes
                if not (node.decided or node.halted)
            )
            raise NotTerminatedError(
                f"round budget of {max_rounds} exhausted under "
                f"until={until!r} ({len(undecided)} nodes undecided)",
                rounds_executed=self.round_index, undecided=undecided,
            )

        outputs = {
            node.node_id: node.output for node in self.nodes if node.decided
        }
        return RunResult(
            metrics=self.metrics.snapshot(),
            outputs=outputs,
            rounds=self.round_index,
            stop_reason=stop_reason,
        )

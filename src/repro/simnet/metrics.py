"""Exact complexity accounting for simulation runs.

The experiments in this repository compare algorithms along three axes:

* **round complexity** — rounds until the *last* node decides (and, for
  stabilizing algorithms, decides *finally*);
* **message complexity** — directed deliveries (one per edge endpoint per
  round in which the sender broadcast something);
* **bit complexity** — bits *transmitted*, charged once per broadcast
  (local broadcast reaches all neighbours with one transmission), using
  :func:`repro.simnet.message.bit_size`.

:class:`MetricsCollector` accumulates these during a run;
:meth:`MetricsCollector.snapshot` freezes them into a :class:`RunMetrics`.
Algorithms may add their own named counters (restarts, phases, ...) through
:meth:`MetricsCollector.incr`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

__all__ = ["MetricsCollector", "RunMetrics"]


@dataclass(frozen=True)
class RunMetrics:
    """Immutable summary of one simulation run.

    Attributes
    ----------
    rounds:
        Number of rounds executed.
    broadcasts:
        Number of (node, round) pairs in which the node transmitted.
    delivered_messages:
        Number of directed deliveries (sum over rounds of the degrees of
        transmitting nodes).
    broadcast_bits:
        Total bits transmitted (each broadcast charged once).
    delivered_bits:
        Total bits received (each broadcast charged once per neighbour).
    max_broadcast_bits:
        Largest single broadcast (the CONGEST-style message-width
        measure the harness reports as ``max_message_bits``).
    first_decision_round / last_decision_round:
        Rounds (1-based) at which the first/last node fixed its final
        decision; ``None`` if nobody decided.
    decision_rounds:
        Per-node final-decision round, keyed by node id.
    counters:
        Algorithm-defined named counters.

    Only measured data lives here.  Wall-clock phase timings and the
    per-tier round split are run-mode telemetry: they stay on the
    :class:`~repro.simnet.engine.Simulator` (``phase_seconds``,
    ``tier_rounds``) and reach result rows as ``phase.*`` / ``engine.*``
    columns (see :func:`repro.harness.runner.run_trial`).
    """

    rounds: int
    broadcasts: int
    delivered_messages: int
    broadcast_bits: int
    delivered_bits: int
    max_broadcast_bits: int
    first_decision_round: Optional[int]
    last_decision_round: Optional[int]
    decision_rounds: Mapping[int, int]
    counters: Mapping[str, int]

    def as_dict(self) -> Dict[str, object]:
        """Flatten to a plain dict (for CSV/JSON export by the harness)."""
        out: Dict[str, object] = {
            "rounds": self.rounds,
            "broadcasts": self.broadcasts,
            "delivered_messages": self.delivered_messages,
            "broadcast_bits": self.broadcast_bits,
            "delivered_bits": self.delivered_bits,
            "max_broadcast_bits": self.max_broadcast_bits,
            "first_decision_round": self.first_decision_round,
            "last_decision_round": self.last_decision_round,
        }
        for name, value in sorted(self.counters.items()):
            out[f"counter.{name}"] = value
        return out


@dataclass
class MetricsCollector:
    """Mutable accumulator used by the engine while a run executes."""

    rounds: int = 0
    broadcasts: int = 0
    delivered_messages: int = 0
    broadcast_bits: int = 0
    delivered_bits: int = 0
    #: Largest single broadcast seen (see ``RunMetrics``).
    max_broadcast_bits: int = 0
    _decision_rounds: Dict[int, int] = field(default_factory=dict)
    _counters: Dict[str, int] = field(default_factory=dict)

    def on_round_executed(self) -> None:
        """Record that one more round completed."""
        self.rounds += 1

    def on_broadcast(self, bits: int, degree: int) -> None:
        """Record one node transmitting a *bits*-bit message to *degree* neighbours."""
        self.broadcasts += 1
        self.delivered_messages += degree
        self.broadcast_bits += bits
        self.delivered_bits += bits * degree
        if bits > self.max_broadcast_bits:
            self.max_broadcast_bits = bits

    def on_decision(self, node_id: int, round_index: int) -> None:
        """Record *node_id* fixing its decision at 1-based *round_index*.

        Stabilizing algorithms may decide, retract, and re-decide; the
        engine calls this each time, so the stored value is the round of
        the **latest** (hence final) decision.
        """
        self._decision_rounds[node_id] = round_index

    def on_retraction(self, node_id: int) -> None:
        """Record *node_id* retracting a previous decision (restart)."""
        self._decision_rounds.pop(node_id, None)
        self.incr("retractions")

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment the algorithm-defined counter *name* by *amount*."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def decided_nodes(self) -> Tuple[int, ...]:
        """Node ids that currently hold a decision."""
        return tuple(sorted(self._decision_rounds))

    def snapshot(self) -> RunMetrics:
        """Freeze the current totals into a :class:`RunMetrics`."""
        rounds = self._decision_rounds.values()
        return RunMetrics(
            rounds=self.rounds,
            broadcasts=self.broadcasts,
            delivered_messages=self.delivered_messages,
            broadcast_bits=self.broadcast_bits,
            delivered_bits=self.delivered_bits,
            max_broadcast_bits=self.max_broadcast_bits,
            first_decision_round=min(rounds) if rounds else None,
            last_decision_round=max(rounds) if rounds else None,
            decision_rounds=dict(self._decision_rounds),
            counters=dict(self._counters),
        )

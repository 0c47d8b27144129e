"""The reference tier: the per-node round loop.

:func:`run_reference_round` executes one synchronous round on a
:class:`~repro.simnet.engine.Simulator` with one Python-level
``compose``/``deliver`` call per node, delivery, loss draws and decision
draining written exactly as the paper's round model reads.  It is the
executable specification the batch tier of :mod:`repro.simnet.batch`
is golden-tested against (``tests/test_fastpath_equivalence.py``,
``tests/test_generated_specs.py``), and it runs every round
:func:`repro.simnet.engine.select_tier` does not give a batch kernel.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, List

from .node import RoundContext

__all__ = ["run_reference_round"]


def run_reference_round(sim: Any) -> None:
    """One round via the per-node loops (the executable spec)."""
    sim.round_index += 1
    r = sim.round_index
    nodes = sim.nodes
    n = len(nodes)
    prof = sim.phase_seconds

    # Phase 1: compose (graph not yet revealed to nodes).  A node's
    # context serves its compose and its deliver of this round.
    t0 = perf_counter() if prof is not None else 0.0
    payloads: List[Any] = [None] * n
    contexts: List[Any] = [None] * n
    for i in range(n):
        node = nodes[i]
        if node.halted:
            continue
        ctx = contexts[i] = RoundContext(r, sim._node_rngs[i],
                                         sim.metrics.incr)
        payloads[i] = node.compose(ctx)

    # Phase 2: reveal the round's graph and account for transmissions.
    if prof is not None:
        t1 = perf_counter()
        prof["compose"] += t1 - t0
        t0 = t1
    neighbors = sim.schedule.adjacency(r).neighbor_lists()
    halted = [node.halted for node in nodes]
    for i in range(n):
        payload = payloads[i]
        if payload is None:
            continue
        bits = sim._payload_bits(payload)
        live_degree = sum(1 for j in neighbors[i] if not halted[j])
        sim.metrics.on_broadcast(bits, live_degree)

    # Phase 3: deliver inboxes.
    if prof is not None:
        t1 = perf_counter()
        prof["reveal"] += t1 - t0
        t0 = t1
    all_changed_false = True
    loss_rng = sim._loss_rng
    loss_rate = sim.loss_rate
    for j in range(n):
        node = nodes[j]
        if node.halted:
            continue
        inbox = [
            payloads[i] for i in neighbors[j]
            if payloads[i] is not None and not halted[i]
        ]
        if loss_rng is not None and inbox:
            kept = loss_rng.random(len(inbox)) >= loss_rate
            dropped = len(inbox) - int(kept.sum())
            if dropped:
                sim.metrics.incr("messages_lost", dropped)
                inbox = [m for m, keep in zip(inbox, kept) if keep]
        node.deliver(contexts[j], inbox)
        if node.state_changed:
            all_changed_false = False
        # Phase 4: drain decision events.
        for event in node._drain_events():
            kind = event[0]
            if kind == "decide":
                sim.metrics.on_decision(node.node_id, r)
            elif kind == "retract":
                sim.metrics.on_retraction(node.node_id)
    if prof is not None:
        t1 = perf_counter()
        prof["deliver"] += t1 - t0  # drain interleaved with delivery

    sim._quiescent_streak = (
        sim._quiescent_streak + 1 if all_changed_false else 0
    )
    sim.metrics.on_round_executed()

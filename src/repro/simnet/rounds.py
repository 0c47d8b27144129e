"""The per-node round loops: the fast tier and the reference tier.

Both execute one synchronous round on a
:class:`~repro.simnet.engine.Simulator` and produce the same metrics,
outputs and RNG consumption; :func:`repro.simnet.engine.select_tier`
decides which one (or the batch tier of :mod:`repro.simnet.batch`) runs.

* :func:`run_reference_round` is the executable specification the other
  tiers are golden-tested against (``tests/test_fastpath_equivalence.py``):
  one Python-level ``compose``/``deliver`` call per node per round, with
  delivery, loss draws and decision draining written exactly as the
  paper's round model reads.  It runs only when
  ``engine="reference"`` asks for it.
* :func:`run_fast_round` iterates the incrementally maintained active
  set instead of ``range(n)``, reuses one
  :class:`~repro.simnet.node.RoundContext` per active node (built by
  the run's first fast-tier round), reads the
  schedule's interval-aware CSR adjacency, and fuses transmission
  accounting, delivery and draining into one pass over the active set.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, List

import numpy as np

from .node import RoundContext

__all__ = ["run_fast_round", "run_reference_round"]


def run_fast_round(sim: Any) -> None:
    """One round via the vectorized fast path.

    After the compose pass, one pass over the active set accounts each
    sender's broadcast, builds and delivers each receiver's inbox, and
    drains its decision events.  The results equal the reference loops'
    phase by phase because the per-(node, round) metric updates are
    commutative sums, the loss RNG is drawn only at delivery (so
    interleaving the accounting does not perturb the stream), and
    per-node drain order is preserved.  When profiling, ``compose`` times
    the compose pass, ``reveal`` the ``adjacency(r)`` call and
    ``deliver`` the fused pass; ``drain`` stays 0.0.
    """
    sim.round_index += 1
    r = sim.round_index
    nodes = sim.nodes
    metrics = sim.metrics
    prof = sim.phase_seconds
    active = sim._active
    payloads = sim._payloads
    contexts = sim._contexts
    if contexts is None:
        # The first fast-tier round: the active set only shrinks from
        # here, so it is every node that will ever need a context.
        contexts = [None] * len(nodes)
        rngs, incr = sim._node_rngs, metrics.incr
        for i in active:
            contexts[i] = RoundContext(0, rngs[i], incr)
        sim._contexts = contexts
    halted_mask = sim._halted_mask

    # Compose (graph not yet revealed to nodes).
    t0 = perf_counter() if prof is not None else 0.0
    senders: List[int] = []
    halted_in_compose = False
    for i in active:
        node = nodes[i]
        ctx = contexts[i]
        ctx.round_index = r
        payload = node.compose(ctx)
        payloads[i] = payload
        if payload is not None:
            senders.append(i)
        if node._halted:
            halted_mask[i] = True
            halted_in_compose = True
    if halted_in_compose:
        sim._any_halted = True

    # Reveal the round's graph.
    if prof is not None:
        t1 = perf_counter()
        prof["compose"] += t1 - t0
        t0 = t1
    csr = sim.schedule.adjacency(r)
    if prof is not None:
        t1 = perf_counter()
        prof["reveal"] += t1 - t0
        t0 = t1

    # Account, deliver and drain in one pass over the active set.
    if not sim._any_halted:
        live: List[int] = csr.degree_list()
    else:
        # live[i] = #non-halted neighbours of i, via a prefix sum over
        # the CSR (reduceat mis-handles empty neighbour runs).
        alive = ~halted_mask
        cum = np.zeros(len(csr.indices) + 1, dtype=np.int64)
        np.cumsum(alive[csr.indices], out=cum[1:])
        live = (cum[csr.indptr[1:]] - cum[csr.indptr[:-1]]).tolist()
    sendable = sim._sendable
    all_send = not sim._any_halted and len(senders) == len(active)
    flat_inbox: List[Any] = []
    bounds: List[int] = []
    nlists: List[List[int]] = []
    if all_send:
        # Every neighbour's payload is delivered: gather the flat
        # CSR-ordered payload list in one C-level pass, then each
        # node's inbox is a plain slice of it.
        flat_inbox = list(map(payloads.__getitem__, csr.indices_list()))
        bounds = csr.indptr_list()
    else:
        for i in senders:
            if not halted_mask[i]:
                sendable[i] = True
        nlists = csr.neighbor_lists()
    loss_rng = sim._loss_rng
    loss_rate = sim.loss_rate
    # The per-sender sums are accumulated in locals and flushed once per
    # round: the totals of one on_broadcast call per sender.
    on_decision = metrics.on_decision
    bits_cache = sim._bits_cache
    n_bcast = sum_bits = n_msgs = sum_dbits = max_bits = 0
    prev_payload: Any = None
    prev_bits = 0
    all_changed_false = True
    halted_in_deliver = False
    for j in active:
        payload = payloads[j]
        if payload is not None:
            # Converged protocols broadcast one shared object from
            # every node; the single-entry memo short-circuits the
            # per-sender cache lookup in that steady state.
            if payload is prev_payload:
                bits = prev_bits
            else:
                entry = bits_cache.get(id(payload))
                if entry is not None and entry[0] is payload:
                    bits = entry[1]
                else:
                    bits = sim._payload_bits(payload)
                prev_payload, prev_bits = payload, bits
            degree = live[j]
            n_bcast += 1
            n_msgs += degree
            sum_bits += bits
            sum_dbits += bits * degree
            if bits > max_bits:
                max_bits = bits
        if halted_in_compose and halted_mask[j]:
            continue  # halted during this round's compose
        if all_send:
            inbox = flat_inbox[bounds[j]:bounds[j + 1]]
        else:
            inbox = [payloads[k] for k in nlists[j] if sendable[k]]
        if loss_rng is not None and inbox:
            kept = loss_rng.random(len(inbox)) >= loss_rate
            dropped = len(inbox) - int(kept.sum())
            if dropped:
                metrics.incr("messages_lost", dropped)
                inbox = [m for m, keep in zip(inbox, kept) if keep]
        node = nodes[j]
        node.deliver(contexts[j], inbox)
        if node._state_changed:
            all_changed_false = False
        events = node._events
        if events:
            node._events = []
            node_id = node.node_id
            for event in events:
                kind = event[0]
                if kind == "decide":
                    on_decision(node_id, r)
                elif kind == "retract":
                    metrics.on_retraction(node_id)
                else:  # halt
                    halted_mask[j] = True
                    halted_in_deliver = True
    if not all_send:
        for i in senders:
            sendable[i] = False
    if n_bcast:
        metrics.broadcasts += n_bcast
        metrics.delivered_messages += n_msgs
        metrics.broadcast_bits += sum_bits
        metrics.delivered_bits += sum_dbits
        if max_bits > metrics.max_broadcast_bits:
            metrics.max_broadcast_bits = max_bits
    if prof is not None:
        prof["deliver"] += perf_counter() - t0

    if halted_in_compose or halted_in_deliver:
        sim._any_halted = True
        sim._active = [i for i in active if not halted_mask[i]]

    sim._quiescent_streak = (
        sim._quiescent_streak + 1 if all_changed_false else 0
    )
    metrics.on_round_executed()


def run_reference_round(sim: Any) -> None:
    """One round via the per-node loops (the executable spec)."""
    sim.round_index += 1
    r = sim.round_index
    nodes = sim.nodes
    n = len(nodes)
    prof = sim.phase_seconds

    # Phase 1: compose (graph not yet revealed to nodes).
    t0 = perf_counter() if prof is not None else 0.0
    payloads: List[Any] = [None] * n
    for i in range(n):
        node = nodes[i]
        if node.halted:
            continue
        ctx = RoundContext(r, sim._node_rngs[i], sim.metrics.incr)
        payloads[i] = node.compose(ctx)

    # Phase 2: reveal the round's graph and account for transmissions.
    if prof is not None:
        t1 = perf_counter()
        prof["compose"] += t1 - t0
        t0 = t1
    neighbors = sim.schedule.neighbors(r)
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
        ctx = RoundContext(r, sim._node_rngs[j], sim.metrics.incr)
        node.deliver(ctx, inbox)
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

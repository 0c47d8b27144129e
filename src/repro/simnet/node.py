"""Protocol-node base class and per-round context.

An algorithm for the T-interval dynamic-network model is implemented as a
subclass of :class:`Algorithm`.  The engine drives every node through the
same two-step round:

1. :meth:`Algorithm.compose` — produce this round's broadcast payload
   *before* the adversary's graph for the round is revealed (returning
   ``None`` means "stay silent");
2. :meth:`Algorithm.deliver` — consume the inbox (the payloads of all
   current neighbours, in unspecified order, without sender annotation —
   senders who want to be identified must embed their id in the payload).

Decision lifecycle
------------------
Nodes report results through :meth:`decide`; *stabilizing* algorithms may
:meth:`retract` a tentative decision when contrary information arrives and
decide again later.  A node that is certain it is done calls :meth:`halt`;
halted nodes neither transmit nor receive.  The engine's stop conditions
are built from these flags (see :class:`~repro.simnet.engine.Simulator`).

Model enforcement
-----------------
Nodes only ever see their own state, their inbox, and the
:class:`RoundContext`.  The context exposes the node's private random
stream and a counter hook, but deliberately *not* the schedule, the other
nodes, or ``N`` — algorithms that need such knowledge must take it as an
explicit constructor parameter (so the knowledge assumptions of every
algorithm are visible in its signature).  Message width is accounted,
not enforced: the engine charges each payload
:func:`~repro.simnet.message.bit_size` bits and records the largest, and
an algorithm written for a bounded regime keeps to its own word budget.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

__all__ = ["Algorithm", "RoundContext"]


class RoundContext:
    """Per-round information handed to a node by the engine.

    Attributes
    ----------
    round_index:
        The 1-based index of the current round.
    rng:
        The node's private :class:`numpy.random.Generator`.

    Lifetime contract
    -----------------
    The engine's fast path keeps **one context per node** and rewrites
    ``round_index`` in place each round (the reference path allocates
    fresh ones; both are observably identical).  Nodes must therefore
    treat the context as valid only for the duration of the current
    ``compose``/``deliver`` call and never retain it across rounds.
    """

    __slots__ = ("round_index", "rng", "_incr")

    def __init__(self, round_index: int, rng: np.random.Generator,
                 incr: Callable[[str, int], None]) -> None:
        self.round_index = round_index
        self.rng = rng
        self._incr = incr

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment the run-level counter *name* (for metrics/ablations)."""
        self._incr(name, amount)


class Algorithm:
    """Base class for all protocol nodes.

    Parameters
    ----------
    node_id:
        The node's unique identifier.  Ids need not be contiguous or dense
        — algorithms must not assume ids are in ``range(N)``.

    Subclasses implement :meth:`compose` and :meth:`deliver`.
    """

    #: Short machine name used in metrics and result tables; subclasses
    #: should override.
    name: str = "algorithm"

    #: Optional batch-kernel hook (see :mod:`repro.simnet.batch`): a
    #: classmethod ``__batch_kernel__(cls, nodes)`` returning
    #: a ``BatchKernel`` driving the whole homogeneous population with
    #: array operations, or ``None`` to decline (the engine then runs the
    #: ordinary per-node path).  Implementations must guard
    #: ``if cls is not TheExactClass: return None`` so subclasses with
    #: changed semantics are never silently batched.
    __batch_kernel__ = None

    def __init__(self, node_id: int) -> None:
        self.node_id = int(node_id)
        self._decided = False
        self._output: Any = None
        self._halted = False
        self._events: List[tuple] = []
        self._state_changed = True  # conservative: unknown before round 1

    # -- interface implemented by subclasses --------------------------------

    def compose(self, ctx: RoundContext) -> Any:
        """Return this round's broadcast payload, or ``None`` to stay silent."""
        raise NotImplementedError

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        """Consume the payloads received from current neighbours."""
        raise NotImplementedError

    # -- decision lifecycle --------------------------------------------------

    def decide(self, value: Any) -> None:
        """Fix (tentatively, for stabilizing algorithms) the node's output."""
        self._decided = True
        self._output = value
        self._events.append(("decide", value))

    def retract(self) -> None:
        """Withdraw a previous tentative decision."""
        if self._decided:
            self._decided = False
            self._output = None
            self._events.append(("retract",))

    def halt(self) -> None:
        """Permanently stop participating.  Implies the decision is final."""
        self._halted = True
        self._events.append(("halt",))

    @property
    def decided(self) -> bool:
        """Whether the node currently holds a (possibly tentative) decision."""
        return self._decided

    @property
    def output(self) -> Any:
        """The node's current decision value (``None`` when undecided)."""
        return self._output

    @property
    def halted(self) -> bool:
        """Whether the node has permanently stopped."""
        return self._halted

    # -- quiescence (used by the engine's ``until='quiescent'`` stop rule) --

    def mark_changed(self, changed: bool = True) -> None:
        """Subclass hook: report whether local state changed this round."""
        self._state_changed = bool(changed)

    @property
    def state_changed(self) -> bool:
        """Whether the node reported a state change in the last round."""
        return self._state_changed

    # -- engine plumbing -----------------------------------------------------

    def _drain_events(self) -> List[tuple]:
        """Return and clear decision-lifecycle events (engine use only)."""
        events, self._events = self._events, []
        return events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "halted" if self._halted else (
            f"decided={self._output!r}" if self._decided else "running")
        return f"<{type(self).__name__} id={self.node_id} {status}>"


class FunctionalNode(Algorithm):
    """Adapter turning a pair of callables into an :class:`Algorithm`.

    Useful in tests and examples for tiny ad-hoc protocols::

        node = FunctionalNode(3, compose=lambda s, ctx: s["x"],
                              deliver=my_deliver, state={"x": 0})
    """

    name = "functional"

    def __init__(self, node_id: int,
                 compose: Callable[[dict, RoundContext], Any],
                 deliver: Callable[[dict, RoundContext, List[Any]], None],
                 state: Optional[dict] = None) -> None:
        super().__init__(node_id)
        self.state = dict(state or {})
        self._compose = compose
        self._deliver = deliver

    def compose(self, ctx: RoundContext) -> Any:
        return self._compose(self.state, ctx)

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        self._deliver(self.state, ctx, inbox)


__all__.append("FunctionalNode")

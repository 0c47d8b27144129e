"""The quiescence controller — guess-and-verify termination without
knowledge of ``N`` or ``d``.

RECONSTRUCTION (see DESIGN.md §2/S5).  The controller turns the
``d``-round convergence of an idempotent aggregate
(:mod:`repro.core.aggregation`) into decisions, with **no** knowledge
assumptions, at the price of decisions being *stabilizing* (tentative,
retractable, eventually fixed) rather than irrevocable.

Rule
----
Each node keeps a *window guess* ``w`` (initially ``initial_window``).
After every round it observes whether its aggregate state changed:

* unchanged for ``w`` consecutive rounds → **decide** (tentatively) on the
  current state;
* state changes while a decision is held → **retract**, multiply the
  window by ``growth``, and start over.

Guarantees (proved here once; exercised by the tests)
-----------------------------------------------------
Let ``d`` be the schedule's dynamic diameter and suppose every node
broadcasts its aggregate state every round from round 1 (which
:class:`~repro.core.aggregation.AggregateNode` does, forever — deciding
does not stop participation).

1. **Convergence.**  By flood closure, after ``d`` rounds every node's
   state equals the global aggregate, and no state ever changes again.

2. **Final-decision correctness.**  A node whose state is not yet global
   is missing some contribution, which reaches it by round ``d``; the
   resulting state change retracts any premature decision.  Hence every
   decision still held after round ``d`` — in particular every *final*
   decision — is the exact global aggregate.  All nodes therefore also
   **agree**.

3. **Stabilization time ``O(d)``.**  A node retracts only when its state
   changes, which can happen only in rounds ``≤ d``.  Each retraction at
   a node is preceded by a full quiet window of its current guess, so if
   a node retracts with guesses ``w₀ < w₀g < w₀g² < … < w_final``, the
   windows preceding its retractions sum to less than ``d``; with
   ``growth ≥ 2`` this forces ``w_final < growth · d`` (and at most
   ``log_g d`` retractions).  The node's last state change is at some
   round ``≤ d``, after which it decides within ``w_final`` rounds —
   final decision by round ``d + growth·d + O(1) = O(d)``.

What is *not* guaranteed — and why that is the honest trade-off — is
**irrevocable termination**: a node can never rule out that unheard-of
information is still in flight, so with zero knowledge it can never halt
(this is the classical counting/termination barrier; the original paper's
unavailable machinery presumably addresses exactly this point, and the
``*KnownBound`` halting variants bracket it from the other side).
Experiments measure the round of the **last final decision**, checking
post-hoc that no retraction follows it.
"""

from __future__ import annotations

from typing import Any, Callable

from .._validate import require_int_in_range, require_positive_int

__all__ = ["QuiescenceController"]


class QuiescenceController:
    """Per-node decide/retract state machine (see module docstring).

    Parameters
    ----------
    initial_window:
        First quiet-window guess ``w₀`` (rounds); default 1.
    growth:
        Multiplicative window growth on each retraction; default 2.
        (T3 ablates 2 vs 4: larger growth means fewer retractions but a
        longer final wait.)

    Usage: call :meth:`settle` once per round with "did my aggregate
    state change this round?"; it applies the verdict of :meth:`observe`
    (``"decide"``, ``"retract"`` or ``None``) to the node.
    """

    def __init__(self, initial_window: int = 1, growth: int = 2) -> None:
        self.window = require_positive_int(initial_window, "initial_window")
        self.growth = require_int_in_range(growth, "growth", 2, 64)
        self.quiet_streak = 0
        self.holding = False  # currently holding a (tentative) decision
        self.retraction_count = 0

    def observe(self, changed: bool) -> "str | None":
        """Advance one round; return the verdict for this round.

        ``"retract"`` — the caller must retract its held decision (the
        controller has already grown the window);
        ``"decide"`` — the quiet window completed, decide on current state;
        ``None`` — keep going.
        """
        if changed:
            self.quiet_streak = 0
            if self.holding:
                self.holding = False
                self.retraction_count += 1
                self.window *= self.growth
                return "retract"
            return None
        self.quiet_streak += 1
        if not self.holding and self.quiet_streak >= self.window:
            self.holding = True
            return "decide"
        return None

    def settle(self, node: Any, ctx: Any, changed: bool,
               output: Callable[[], Any]) -> None:
        """Advance one round and apply its verdict to *node*: retract
        (counted as ``<node.name>.retractions``) or decide ``output()``."""
        verdict = self.observe(changed)
        if verdict == "retract":
            ctx.incr(f"{node.name}.retractions")
            node.retract()
        elif verdict == "decide" and not node.decided:
            node.decide(output())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QuiescenceController(window={self.window}, "
                f"quiet={self.quiet_streak}, holding={self.holding}, "
                f"retractions={self.retraction_count})")

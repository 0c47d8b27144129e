"""The :class:`Recorder` — the engine's observability hook.

A recorder is attached to a :class:`~repro.simnet.engine.Simulator` (or
threaded process-wide through :func:`set_events_dir`, which is what the
CLIs' ``--events DIR`` flags do).  **When no recorder is attached the
engine pays nothing**: the hot loops are guarded by a single
``recorder is None`` check per round and no event object is ever
allocated — ``tests/test_obs.py`` asserts this by making every event
constructor explode and running an unrecorded simulation.

When one *is* attached, the engine routes each round through an
instrumented wrapper that emits :class:`~repro.obs.events.RoundEvent` /
:class:`~repro.obs.events.DeliveryEvent` / per-node
:class:`~repro.obs.events.DecisionEvent` streams,
:class:`~repro.obs.events.EngineTierEvent` dispatch decisions with their
reasons, and end-of-run :class:`~repro.obs.events.CacheEvent` counters.
Recording does not change the code path: the wrapper runs the same tier
round an unrecorded run executes and diffs the metrics and node state
around it, so results stay bit-identical and only the per-round event
bookkeeping costs wall-clock.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence

from .events import Event, event_to_json
from .export import EventSink, JsonlSink

__all__ = ["Recorder", "set_events_dir", "events_dir"]

_EVENTS_DIR: Optional[str] = os.environ.get("REPRO_EVENTS_DIR") or None


def set_events_dir(path: Optional[str]) -> None:
    """Set the process-wide event-stream directory (``None`` disables).

    When set, every :func:`repro.harness.runner.run_trial` attaches a
    fresh JSONL recorder writing ``trial-*.jsonl`` under *path*; the
    ``REPRO_EVENTS_DIR`` environment variable seeds the initial value so
    executor worker processes inherit the setting.  The CLIs' ``--events
    DIR`` flags call this (and export the variable for spawn-safety)
    before running anything.
    """
    global _EVENTS_DIR
    _EVENTS_DIR = path or None
    if path:
        os.environ["REPRO_EVENTS_DIR"] = path
    else:
        os.environ.pop("REPRO_EVENTS_DIR", None)


def events_dir() -> Optional[str]:
    """Current process-wide event-stream directory (``None`` = disabled)."""
    return _EVENTS_DIR


class Recorder:
    """Collects events, tallies per-kind counters, forwards to sinks.

    Parameters
    ----------
    sinks:
        Zero or more :class:`~repro.obs.export.EventSink` targets; every
        emitted event is forwarded to each in order.
    keep:
        Also retain events in memory (:attr:`events`).  Default on —
        turn off for long streaming runs where only the sinks matter.

    The recorder is also a context manager; leaving the ``with`` block
    closes every sink.
    """

    def __init__(self, sinks: Sequence[EventSink] = (),
                 keep: bool = True) -> None:
        self.sinks: List[EventSink] = list(sinks)
        self.events: List[Event] = []
        self.counters: Dict[str, int] = {}
        self._keep = bool(keep)
        self._closed = False

    # -- construction helpers ------------------------------------------------

    @classmethod
    def to_jsonl(cls, path: str, keep: bool = False) -> "Recorder":
        """A recorder streaming straight to a JSONL file (memory off)."""
        return cls(sinks=[JsonlSink(path)], keep=keep)

    @classmethod
    def in_memory(cls) -> "Recorder":
        """A recorder that only retains events in memory."""
        return cls(sinks=[], keep=True)

    # -- emission ------------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Record one event: count it, retain it, forward it."""
        kind = event.kind
        self.counters[kind] = self.counters.get(kind, 0) + 1
        if self._keep:
            self.events.append(event)
        for sink in self.sinks:
            sink.write(event)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a free-form counter (no event emitted)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- introspection -------------------------------------------------------

    def of_kind(self, kind: str) -> List[Event]:
        """Retained events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> Dict[str, int]:
        """Per-kind (and free-form) counter totals."""
        return dict(self.counters)

    def to_jsonl_lines(self) -> Iterable[str]:
        """Serialize the retained events as JSONL lines."""
        return (event_to_json(e) for e in self.events)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close every sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Recorder events={sum(self.counters.values())} "
                f"sinks={len(self.sinks)}>")

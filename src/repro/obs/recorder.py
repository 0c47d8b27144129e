"""The :class:`Recorder` — the engine's observability hook.

A recorder is attached to a :class:`~repro.simnet.engine.Simulator` (or
threaded process-wide through :func:`set_events_dir`, which is what the
CLI's ``--events DIR`` flag does).  **When no recorder is attached the
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
from typing import List, Optional, TextIO

from .events import Event, event_to_json

__all__ = ["Recorder", "set_events_dir", "events_dir"]

_EVENTS_DIR: Optional[str] = os.environ.get("REPRO_EVENTS_DIR") or None


def set_events_dir(path: Optional[str]) -> None:
    """Set the process-wide event-stream directory (``None`` disables).

    When set, every :func:`repro.harness.runner.run_trial` attaches a
    fresh JSONL recorder writing ``trial-*.jsonl`` under *path*; the
    ``REPRO_EVENTS_DIR`` environment variable seeds the initial value so
    executor worker processes inherit the setting.  The CLI's ``--events
    DIR`` flag calls this (and exports the variable for spawn-safety)
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
    """Keeps emitted events in memory or streams them to JSONL.

    Build one with :meth:`in_memory` (events retained on
    :attr:`events`) or :meth:`to_jsonl` (each event written to a JSONL
    file as one validated line and flushed, nothing retained).  The
    recorder is also a context manager; leaving the ``with`` block
    closes the file.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.events: List[Event] = []
        self._stream = stream

    # -- construction helpers ------------------------------------------------

    @classmethod
    def to_jsonl(cls, path: str) -> "Recorder":
        """A recorder streaming to a JSONL file at *path*.

        Each line is flushed as it is written, so a killed run leaves a
        readable prefix.
        """
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        return cls(open(path, "w"))

    @classmethod
    def in_memory(cls) -> "Recorder":
        """A recorder that only retains events in memory."""
        return cls()

    # -- emission ------------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Record one event: retain or stream it."""
        if self._stream is None:
            self.events.append(event)
        else:
            self._stream.write(event_to_json(event) + "\n")
            self._stream.flush()

    # -- introspection -------------------------------------------------------

    def of_kind(self, kind: str) -> List[Event]:
        """Retained events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the JSONL file, if any (idempotent)."""
        if self._stream is not None and not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

"""Structured observability for simulation runs (``repro.obs``).

The subsystem has three parts, each in its own module:

* :mod:`repro.obs.events` — the versioned, schema-validated event model
  (``RoundEvent``, ``DeliveryEvent``, ``DecisionEvent``,
  ``EngineTierEvent``, ``CacheEvent``, plus ``trial``/``summary``
  provenance records);
* :mod:`repro.obs.recorder` — the zero-overhead-when-disabled
  :class:`Recorder` hook the engine emits through (in memory or
  streamed to JSONL), and the process-wide ``--events DIR`` plumbing;
* :mod:`repro.obs.merge` — the executor-level merge folding per-trial
  streams into one deterministic artifact with trial provenance, and
  the run-summary aggregator.

Quick tour::

    from repro.obs import Recorder
    rec = Recorder.in_memory()
    Simulator(schedule, nodes, recorder=rec).run(5000, until="quiescent",
                                                 quiescence_window=64)
    rec.summary()            # {'engine_tier': 1, 'round': 9, ...}
    rec.of_kind("cache")     # adjacency + payload-bits hit/miss counters

See ``docs/OBSERVABILITY.md`` for the event schema reference and the
CLI workflow (``repro-experiments ... --events DIR``).
"""

from .events import (
    SCHEMA_VERSION,
    CacheEvent,
    DecisionEvent,
    DeliveryEvent,
    EngineTierEvent,
    Event,
    EventSchemaError,
    RoundEvent,
    SummaryEvent,
    TrialEvent,
    event_from_dict,
    event_from_json,
    event_to_json,
    validate_event,
)
from .merge import (
    StreamSummary,
    iter_stream,
    merge_event_streams,
    summarize_streams,
)
from .recorder import Recorder, events_dir, set_events_dir

__all__ = [
    "SCHEMA_VERSION",
    "Event",
    "EventSchemaError",
    "TrialEvent",
    "RoundEvent",
    "DeliveryEvent",
    "DecisionEvent",
    "EngineTierEvent",
    "CacheEvent",
    "SummaryEvent",
    "validate_event",
    "event_from_dict",
    "event_from_json",
    "event_to_json",
    "Recorder",
    "set_events_dir",
    "events_dir",
    "StreamSummary",
    "iter_stream",
    "merge_event_streams",
    "summarize_streams",
]

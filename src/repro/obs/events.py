"""The observability event model.

Every observable occurrence in a simulation run — a round completing,
messages being delivered, a node deciding, the engine switching dispatch
tiers, a cache serving or missing — is described by one of the frozen
dataclasses below.  Events are a *versioned, schema-validated* wire
format: :meth:`Event.to_dict` produces a plain-JSON dict carrying the
event ``kind`` and the schema version ``v``, :func:`event_from_dict`
parses and validates it back into the exact dataclass, and the two are
inverse round-trips (asserted by ``tests/test_obs.py``).

The schema is deliberately dependency-free: :data:`EVENT_SCHEMAS` maps
each kind to its ``field -> (types, required)`` table and
:func:`validate_event` enforces it, so a JSONL stream can be checked
without jsonschema or pydantic (neither of which this repository
depends on).

Event catalogue
---------------
=================  =========================================================
kind               meaning
=================  =========================================================
``trial``          provenance header: which trial produced the stream
``round``          one engine round completed (per-round broadcast totals)
``delivery``       the round's delivered-message/bit totals
``decision``       a node decided, retracted, or halted
``engine_tier``    dispatch-tier selection, activation, or fallback + reason
``cache``          hit/miss/build counters of one internal cache
``summary``        end-of-run totals (rounds, stop reason, tier split)
=================  =========================================================

See ``docs/OBSERVABILITY.md`` for the full field reference.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Any, Dict, Mapping, Tuple, Type

from ..errors import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "EventSchemaError",
    "Event",
    "TrialEvent",
    "RoundEvent",
    "DeliveryEvent",
    "DecisionEvent",
    "EngineTierEvent",
    "CacheEvent",
    "SummaryEvent",
    "EVENT_TYPES",
    "EVENT_SCHEMAS",
    "validate_event",
    "event_from_dict",
    "event_to_json",
    "event_from_json",
]

#: Version stamped into every serialized event as ``"v"``.  Bump on any
#: backwards-incompatible field change; :func:`validate_event` rejects
#: streams from a different major version.
SCHEMA_VERSION = 1


class EventSchemaError(ReproError, ValueError):
    """A serialized event does not conform to the versioned schema."""


@dataclass(frozen=True)
class Event:
    """Base class: every event has a ``kind`` tag and serializes to JSON."""

    #: overridden per subclass; the wire-format discriminator
    kind = "event"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON dict with the ``kind`` tag and schema version."""
        out: Dict[str, Any] = {"kind": self.kind, "v": SCHEMA_VERSION}
        out.update(asdict(self))
        return out


@dataclass(frozen=True)
class TrialEvent(Event):
    """Stream header: provenance of the trial that emitted what follows.

    ``label`` is the human-readable trial identity and ``spec`` the
    content-address hash (:meth:`repro.exec.TrialSpec.key`) when the
    trial came through a declarative spec — the same key the executor's
    result cache uses, tying the event stream to the cached row;
    ``engine`` is the engine argument the simulator was built with
    (``"default"`` when deferred to the process default).
    """

    kind = "trial"

    seed: int
    label: str = ""
    spec: str = ""
    engine: str = "default"
    until: str = "halted"
    max_rounds: int = 0


@dataclass(frozen=True)
class RoundEvent(Event):
    """One round completed: the round's broadcast-side totals.

    ``tier`` is the dispatch tier that executed the round (``"batch"``,
    ``"fast"``, or ``"reference"``); bit totals are this round's deltas,
    not cumulative sums.
    """

    kind = "round"

    round: int
    tier: str
    broadcasts: int
    broadcast_bits: int
    max_broadcast_bits: int


@dataclass(frozen=True)
class DeliveryEvent(Event):
    """The round's receive-side totals (directed deliveries and bits)."""

    kind = "delivery"

    round: int
    messages: int
    bits: int


@dataclass(frozen=True)
class DecisionEvent(Event):
    """A node's decision lifecycle advanced.

    ``action`` is ``"decide"``, ``"retract"``, or ``"halt"``;
    ``value`` is the decided output for ``"decide"`` (JSON-encodable by
    construction of the algorithms' outputs), ``None`` otherwise.
    """

    kind = "decision"

    round: int
    node_id: int
    action: str
    value: Any = None


@dataclass(frozen=True)
class EngineTierEvent(Event):
    """The engine selected, engaged, or fell back from a dispatch tier.

    ``action`` is ``"select"`` (the tier chosen when ``run()`` starts)
    or ``"fallback"`` (a mid-run deactivation, e.g. the batch kernel
    retiring on the first halt event); ``reason`` says why, in the
    engine's own words — the strings the dispatch conditions produce,
    e.g. ``"engine='reference'"`` or ``"halt event deactivated the
    batch kernel"``.

    ``declined`` is the structured form of ``reason``: a list of
    ``{"tier", "reason"}`` dicts, one per tier
    :func:`repro.simnet.engine.select_tier` passed over — ``None`` when
    nothing was declined.
    """

    kind = "engine_tier"

    round: int
    tier: str
    action: str
    reason: str = ""
    declined: Any = None


@dataclass(frozen=True)
class CacheEvent(Event):
    """Cumulative hit/miss counters of one internal cache at run end.

    ``cache`` names which one: ``"adjacency"`` (the schedule's
    interval-aware CSR cache — ``detail`` splits hits into stable-span
    vs content-fingerprint) or ``"payload_bits"`` (the engine's
    payload bit-size memo).
    """

    kind = "cache"

    round: int
    cache: str
    hits: int
    misses: int
    detail: str = ""


@dataclass(frozen=True)
class SummaryEvent(Event):
    """End-of-run totals: the per-trial aggregate a merge can group by."""

    kind = "summary"

    rounds: int
    stop_reason: str
    broadcast_bits: int
    delivered_messages: int
    batch_rounds: int = 0
    fast_rounds: int = 0
    reference_rounds: int = 0


#: kind -> event class, the wire-format dispatch table.
EVENT_TYPES: Dict[str, Type[Event]] = {
    cls.kind: cls
    for cls in (TrialEvent, RoundEvent, DeliveryEvent, DecisionEvent,
                EngineTierEvent, CacheEvent, SummaryEvent)
}

def _schema_of(cls: Type[Event]) -> Dict[str, Tuple[Tuple[type, ...], bool]]:
    schema: Dict[str, Tuple[Tuple[type, ...], bool]] = {}
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        # Under ``from __future__ import annotations`` the stored type is
        # the annotation string itself.
        hint = f.type if isinstance(f.type, str) else getattr(
            f.type, "__name__", str(f.type))
        if hint == "int":
            types: Tuple[type, ...] = (int,)
        elif hint == "str":
            types = (str,)
        else:  # Any — anything JSON-encodable goes
            types = ()
        schema[f.name] = (types, required)
    return schema


#: kind -> {field: ((accepted types) or () for any, required)}.  Derived
#: from the dataclass definitions, so the schema cannot drift from the
#: classes.
EVENT_SCHEMAS: Dict[str, Dict[str, Tuple[Tuple[type, ...], bool]]] = {
    kind: _schema_of(cls) for kind, cls in EVENT_TYPES.items()
}


def validate_event(data: Mapping[str, Any]) -> str:
    """Validate one serialized event dict; returns its kind.

    Raises :class:`EventSchemaError` on an unknown kind, a schema-version
    mismatch, a missing required field, an unknown field, or a
    wrongly-typed value.
    """
    kind = data.get("kind")
    if kind not in EVENT_SCHEMAS:
        raise EventSchemaError(
            f"unknown event kind {kind!r} (known: {sorted(EVENT_SCHEMAS)})")
    version = data.get("v")
    if version != SCHEMA_VERSION:
        raise EventSchemaError(
            f"event schema version {version!r} != supported {SCHEMA_VERSION}")
    schema = EVENT_SCHEMAS[kind]
    for name, (types, required) in schema.items():
        if name not in data:
            if required:
                raise EventSchemaError(
                    f"{kind} event missing required field {name!r}")
            continue
        value = data[name]
        if types and not isinstance(value, types):
            # bool is an int subclass; counters must be real ints
            if isinstance(value, bool) and int in types:
                raise EventSchemaError(
                    f"{kind}.{name} must be {types}, got bool")
            raise EventSchemaError(
                f"{kind}.{name} must be {'/'.join(t.__name__ for t in types)},"
                f" got {type(value).__name__}")
        if int in types and isinstance(value, bool):
            raise EventSchemaError(f"{kind}.{name} must be int, got bool")
    extra = set(data) - set(schema) - {"kind", "v"}
    if extra:
        raise EventSchemaError(
            f"{kind} event carries unknown fields {sorted(extra)}")
    return kind


def event_from_dict(data: Mapping[str, Any]) -> Event:
    """Parse (and validate) one serialized event dict back into its class."""
    kind = validate_event(data)
    cls = EVENT_TYPES[kind]
    kwargs = {k: v for k, v in data.items() if k not in ("kind", "v")}
    return cls(**kwargs)


def event_to_json(event: Event) -> str:
    """One compact JSON line (no trailing newline) for a JSONL stream."""
    return json.dumps(event.to_dict(), sort_keys=True,
                      separators=(",", ":"), default=str)


def event_from_json(line: str) -> Event:
    """Inverse of :func:`event_to_json`, validation included."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventSchemaError(f"malformed event line: {exc}") from exc
    if not isinstance(data, dict):
        raise EventSchemaError(
            f"event line must be a JSON object, got {type(data).__name__}")
    return event_from_dict(data)

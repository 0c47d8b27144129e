"""Merging and summarizing per-trial event streams.

Parallel experiment runs produce one ``trial-*.jsonl`` stream per trial
(each worker process writes its own files, so there is no cross-process
lock to take).  :func:`merge_event_streams` folds them into **one**
artifact, ordered deterministically by each stream's provenance header
(trial label, then seed, then file name) so the merged file is
byte-identical regardless of which worker finished first — the same
input-order guarantee the executor gives for result rows.

:func:`summarize_streams` is the run-summary aggregator: per-kind event
counts, total rounds, per-tier round counts, and per-trial provenance
rows, computed from the streams without loading them fully into memory.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .events import (Event, EventSchemaError, SummaryEvent, TrialEvent,
                     event_from_json, event_to_json)

__all__ = ["StreamSummary", "iter_stream", "merge_event_streams",
           "summarize_streams", "trial_stream_paths"]

#: File pattern the runner uses for per-trial streams.
TRIAL_GLOB = "trial-*.jsonl"


def trial_stream_paths(events_dir: str) -> List[str]:
    """The per-trial stream files under *events_dir*, sorted by name."""
    return sorted(glob.glob(os.path.join(events_dir, TRIAL_GLOB)))


def iter_stream(path: str) -> Iterator[Event]:
    """Parse one JSONL stream, validating every line.

    A torn final line (a run killed mid-write) is dropped silently;
    any other malformed line raises :class:`~repro.obs.events.EventSchemaError` with the
    line number.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, 1):
        try:
            yield event_from_json(line)
        except EventSchemaError:
            if lineno == len(lines):
                return  # torn tail from a killed writer
            raise EventSchemaError(
                f"{path}:{lineno}: invalid event line") from None


def _stream_sort_key(path: str) -> Tuple[str, int, str]:
    """(trial label, seed, basename) from the stream's header event."""
    label, seed = "", -1
    try:
        for event in iter_stream(path):
            if isinstance(event, TrialEvent):
                label, seed = event.label, event.seed
            break
    except EventSchemaError:
        pass
    return (label, seed, os.path.basename(path))


@dataclass
class StreamSummary:
    """Aggregate view of one or more event streams."""

    streams: int = 0
    events: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    tier_rounds: Dict[str, int] = field(default_factory=dict)
    trials: List[Dict[str, object]] = field(default_factory=list)

    def render(self) -> str:
        """One-paragraph accounting string for CLI output."""
        kinds = ", ".join(f"{k} {v}" for k, v in sorted(self.by_kind.items()))
        tiers = ", ".join(
            f"{k} {v}" for k, v in sorted(self.tier_rounds.items()))
        return (f"{self.streams} trial streams, {self.events} events "
                f"({kinds}); {self.rounds} rounds"
                + (f" by tier: {tiers}" if tiers else ""))


def summarize_streams(paths: List[str]) -> StreamSummary:
    """Aggregate per-kind counts, rounds, and tier splits over *paths*."""
    summary = StreamSummary()
    for path in paths:
        summary.streams += 1
        provenance: Dict[str, object] = {"stream": os.path.basename(path)}
        for event in iter_stream(path):
            summary.events += 1
            summary.by_kind[event.kind] = (
                summary.by_kind.get(event.kind, 0) + 1)
            if isinstance(event, TrialEvent):
                provenance.update(label=event.label, seed=event.seed,
                                  spec=event.spec, engine=event.engine)
            elif isinstance(event, SummaryEvent):
                summary.rounds += event.rounds
                for tier in ("batch", "fast", "reference"):
                    count = getattr(event, f"{tier}_rounds")
                    if count:
                        summary.tier_rounds[tier] = (
                            summary.tier_rounds.get(tier, 0) + count)
                provenance.update(rounds=event.rounds,
                                  stop_reason=event.stop_reason)
        summary.trials.append(provenance)
    return summary


def merge_event_streams(events_dir: str,
                        out_path: Optional[str] = None) -> Tuple[str, StreamSummary]:
    """Merge every per-trial stream under *events_dir* into one artifact.

    Streams are concatenated in (label, seed, file-name) order — each
    trial's events stay contiguous, prefixed by its provenance header —
    and every line is re-validated on the way through.  Returns the
    merged path (default ``<events_dir>/events.jsonl``) and the
    aggregate :class:`StreamSummary`.
    """
    paths = trial_stream_paths(events_dir)
    if out_path is None:
        out_path = os.path.join(events_dir, "events.jsonl")
    ordered = sorted(paths, key=_stream_sort_key)
    tmp = out_path + ".tmp"
    with open(tmp, "w") as out:
        for path in ordered:
            for event in iter_stream(path):
                out.write(event_to_json(event) + "\n")
    os.replace(tmp, out_path)
    return out_path, summarize_streams(ordered)

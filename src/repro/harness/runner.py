"""Generic trial execution.

A *trial* is one simulation described by a declarative
:class:`repro.exec.TrialSpec`: registered schedule and node builders,
stop configuration, and an optional correctness oracle.
:func:`run_trial` executes it and returns a :class:`TrialResult` with
the standard measured quantities (rounds, last-final-decision round,
bits, retractions, correctness); :func:`run_replicates` repeats over
seeds.

The measured quantity of record for stabilizing algorithms is
``last_decision_round`` — the round in which the last node fixed the
decision it never retracted (see :mod:`repro.core.termination`); for
halting algorithms it coincides with the total rounds executed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from ..obs import events as obs_events
from ..obs.recorder import Recorder, events_dir
from ..simnet.engine import RunResult, Simulator
from ..simnet.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..exec.specs import TrialSpec

__all__ = ["TrialResult", "run_trial", "run_replicates",
           "NONDURABLE_ROW_PREFIXES", "durable_row"]

#: Row-column prefixes that are run-mode telemetry, not measured data:
#: wall-clock ``phase.*`` timings, ``engine.*`` dispatch-tier round
#: splits, ``obs.*`` event-stream counters, and ``cache.*`` hit/miss
#: counters.  The executor strips them before a row enters the
#: content-addressed result cache, and ``save_experiment``
#: strips them from persisted artefacts, so a cache-hit rerun and a
#: fresh (profiled or recorded) run produce byte-identical artefacts —
#: the equality ``repro.report --check`` relies on.
NONDURABLE_ROW_PREFIXES = ("phase.", "engine.", "obs.", "cache.")


def durable_row(row: Mapping[str, Any]) -> Dict[str, Any]:
    """*row* without telemetry columns (the same object when clean).

    Strips every :data:`NONDURABLE_ROW_PREFIXES` column; rows that carry
    none are returned as-is (no copy) so the common unprofiled,
    unrecorded path stays allocation-free.
    """
    if any(key.startswith(NONDURABLE_ROW_PREFIXES) for key in row):
        return {key: value for key, value in row.items()
                if not key.startswith(NONDURABLE_ROW_PREFIXES)}
    return row if isinstance(row, dict) else dict(row)


@dataclass(frozen=True)
class TrialResult:
    """Measured quantities of one trial (flattened into result rows).

    *telemetry* holds the trial's run-mode columns, already prefixed
    (:data:`NONDURABLE_ROW_PREFIXES`); it is empty for an unprofiled,
    unrecorded trial.
    """

    seed: int
    rounds: int
    last_decision_round: Optional[int]
    first_decision_round: Optional[int]
    broadcast_bits: int
    delivered_messages: int
    max_message_bits: int
    correct: Optional[bool]
    stop_reason: str
    outputs_sample: Any
    counters: Dict[str, int]
    telemetry: Dict[str, Any] = field(default_factory=dict)

    def as_row(self, **extra: Any) -> Dict[str, Any]:
        """Flatten to a results row, merging experiment parameters."""
        row = {
            "seed": self.seed,
            "rounds": self.rounds,
            "last_decision_round": self.last_decision_round,
            "broadcast_bits": self.broadcast_bits,
            "delivered_messages": self.delivered_messages,
            "max_message_bits": self.max_message_bits,
            "retractions": self.counters.get("retractions", 0),
            "output": self.outputs_sample,
            "correct": self.correct,
            "stop_reason": self.stop_reason,
        }
        row.update(self.telemetry)
        row.update(extra)
        return row


# Per-process counter distinguishing trial event streams that share a
# seed (e.g. replicates of different grid points); combined with the PID
# it keeps every worker's stream files collision-free without locks.
_STREAM_SEQ = 0


def _open_trial_recorder(spec: "TrialSpec", seed: int) -> Optional[Recorder]:
    """A JSONL recorder for this trial, or None when events are off."""
    global _STREAM_SEQ
    out_dir = events_dir()
    if out_dir is None:
        return None
    _STREAM_SEQ += 1
    path = os.path.join(
        out_dir, f"trial-{os.getpid()}-{_STREAM_SEQ:04d}-seed{seed}.jsonl")
    recorder = Recorder.to_jsonl(path)
    recorder.emit(obs_events.TrialEvent(
        seed=seed, label=spec.label(), spec=spec.key(seed),
        engine="default", until=spec.until, max_rounds=spec.max_rounds))
    return recorder


def run_trial(spec: "TrialSpec", seed: int) -> TrialResult:
    """Execute one trial of a :class:`repro.exec.TrialSpec` with *seed*.

    The spec's builders resolve here; all randomness derives from
    ``RngRegistry(seed)`` (and the schedule builder's seed), never
    ambient state, so equal inputs reproduce byte-identical results in
    any process.  The engine tier and profiling follow the process
    defaults (``REPRO_ENGINE``, :func:`repro.simnet.set_profile_default`).

    When a process-wide events directory is configured (the CLI's
    ``--events DIR`` flag or ``REPRO_EVENTS_DIR``; see
    :mod:`repro.obs`), the trial additionally writes a schema-validated
    ``trial-*.jsonl`` event stream there, headed by a provenance
    record.  Recording never changes the measured results — the engine
    guarantees recorded and unrecorded runs are bit-identical.

    Telemetry reaches the result only as prefixed columns of
    ``TrialResult.telemetry``: a profiled trial carries the simulator's
    ``phase.<phase>_s`` timings and ``engine.<tier>_rounds`` counts, a
    recorded one its ``obs.<kind>`` event counts and ``cache.<name>``
    hit/miss counters.  They are stripped wherever rows are persisted
    (see :func:`durable_row`).
    """
    schedule = spec.build_schedule(seed)
    nodes = spec.build_nodes(schedule, seed)
    stop_when = spec.stop_predicate()
    recorder = _open_trial_recorder(spec, seed)
    sim = Simulator(
        schedule, nodes, rng=RngRegistry(seed),
        loss_rate=spec.loss_rate,
        recorder=recorder,
    )
    try:
        result: RunResult = sim.run(
            max_rounds=spec.max_rounds,
            until=spec.until,
            quiescence_window=spec.quiescence_window,
            stop_when=stop_when,
            allow_timeout=spec.allow_timeout,
        )
    finally:
        if recorder is not None:
            recorder.close()
    telemetry: Dict[str, Any] = {}
    if sim.phase_seconds is not None:
        for name, seconds in sorted(sim.phase_seconds.items()):
            telemetry[f"phase.{name}_s"] = seconds
        for tier, rounds in sorted(sim.tier_rounds.items()):
            telemetry[f"engine.{tier}_rounds"] = rounds
    if recorder is not None:
        for kind, count in sorted(recorder.summary().items()):
            telemetry[f"obs.{kind}"] = count
        for name, count in sorted(sim.cache_counters.items()):
            telemetry[f"cache.{name}"] = count
    correct = spec.judge(result.outputs, schedule)
    sample = next(iter(result.outputs.values()), None)
    return TrialResult(
        seed=seed,
        rounds=result.rounds,
        last_decision_round=result.metrics.last_decision_round,
        first_decision_round=result.metrics.first_decision_round,
        broadcast_bits=result.metrics.broadcast_bits,
        delivered_messages=result.metrics.delivered_messages,
        max_message_bits=result.metrics.max_broadcast_bits,
        correct=correct,
        stop_reason=result.stop_reason,
        outputs_sample=sample,
        counters=dict(result.metrics.counters),
        telemetry=telemetry,
    )


def run_replicates(spec: "TrialSpec",
                   seeds: Sequence[int]) -> List[TrialResult]:
    """Run the trial once per seed, collecting all results."""
    return [run_trial(spec, seed) for seed in seeds]

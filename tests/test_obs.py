"""Tests for the observability layer (:mod:`repro.obs`).

Four contracts, in increasing integration order:

1. **Schema round-trip** — every event kind serializes to one JSON line
   and parses back to an equal dataclass; malformed lines (unknown
   kind, wrong version, missing/unknown fields, bool-typed counters)
   are rejected with :class:`EventSchemaError`.
2. **Zero overhead when disabled** — an unrecorded simulation run
   constructs *no* event objects: every event class is monkeypatched
   to raise, and the run must still succeed.
3. **Recording changes nothing** — a recorded trial's ``TrialResult``
   equals the unrecorded one, on the batch-kernel tier and on the
   reference engine.
4. **Stream pipeline** — the runner writes schema-valid per-trial
   JSONL (with engine-tier and cache events present), and the merge
   folds parallel streams into one deterministic artifact with trial
   provenance.
"""

import json
import os

import pytest

import repro.obs.events as obs_events
from repro.core.max_compute import SublinearMax
from repro.dynamics import OverlapHandoffAdversary
from repro.exec.specs import TrialSpec
from repro.harness.runner import run_trial
from repro.obs import (
    SCHEMA_VERSION,
    CacheEvent,
    DecisionEvent,
    DeliveryEvent,
    EngineTierEvent,
    EventSchemaError,
    Recorder,
    RoundEvent,
    SummaryEvent,
    TrialEvent,
    event_from_json,
    event_to_json,
    iter_stream,
    merge_event_streams,
    set_events_dir,
    summarize_streams,
)
from repro.simnet import RngRegistry, Simulator

SAMPLES = [
    TrialEvent(seed=7, label="exact_count/static[n=8]", spec="ab12" * 16,
               engine="fast", until="quiescent", max_rounds=100),
    RoundEvent(round=3, tier="batch", broadcasts=8, broadcast_bits=640,
               max_broadcast_bits=80),
    DeliveryEvent(round=3, messages=24, bits=1920),
    DecisionEvent(round=4, node_id=2, action="decide", value=8),
    DecisionEvent(round=5, node_id=2, action="retract"),
    EngineTierEvent(round=0, tier="reference", action="select",
                    reason="population has no batch kernel"),
    CacheEvent(round=9, cache="adjacency", hits=7, misses=2,
               detail="span_hits=7 repeat_hits=0"),
    SummaryEvent(rounds=10, stop_reason="quiescent", broadcast_bits=6400,
                 delivered_messages=240, batch_rounds=10),
]


# --------------------------------------------------------------------------
# 1. schema round-trip
# --------------------------------------------------------------------------

@pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
def test_round_trip_every_kind(event):
    line = event_to_json(event)
    parsed = event_from_json(line)
    assert parsed == event
    assert type(parsed) is type(event)
    # the line itself is canonical: re-serializing is byte-identical
    assert event_to_json(parsed) == line
    assert json.loads(line)["v"] == SCHEMA_VERSION


def test_rejects_unknown_kind():
    with pytest.raises(EventSchemaError, match="unknown event kind"):
        event_from_json('{"kind":"frobnicate","v":1}')


def test_rejects_wrong_version():
    bad = dict(SAMPLES[1].to_dict(), v=SCHEMA_VERSION + 1)
    with pytest.raises(EventSchemaError, match="schema version"):
        event_from_json(json.dumps(bad))


def test_rejects_missing_required_field():
    bad = SAMPLES[1].to_dict()
    del bad["tier"]
    with pytest.raises(EventSchemaError, match="missing required field"):
        event_from_json(json.dumps(bad))


def test_rejects_unknown_field():
    bad = dict(SAMPLES[2].to_dict(), surprise=1)
    with pytest.raises(EventSchemaError, match="unknown fields"):
        event_from_json(json.dumps(bad))


def test_rejects_bool_counter():
    bad = dict(SAMPLES[2].to_dict(), messages=True)
    with pytest.raises(EventSchemaError, match="bool"):
        event_from_json(json.dumps(bad))


def test_rejects_malformed_json():
    with pytest.raises(EventSchemaError, match="malformed"):
        event_from_json("{not json")
    with pytest.raises(EventSchemaError, match="JSON object"):
        event_from_json("[1, 2]")


def test_optional_fields_default_on_parse():
    line = ('{"kind":"decision","v":%d,"round":1,"node_id":0,'
            '"action":"halt"}' % SCHEMA_VERSION)
    event = event_from_json(line)
    assert event.value is None


# --------------------------------------------------------------------------
# 2. disabled recorder = zero event construction
# --------------------------------------------------------------------------

def _sim(recorder=None, engine=None, n=16, seed=3, T=2):
    sched = OverlapHandoffAdversary(n, T=T, seed=seed)
    nodes = [SublinearMax(i, value=(i * 17) % 101) for i in range(n)]
    return Simulator(sched, nodes, rng=RngRegistry(seed),
                     recorder=recorder, engine=engine)


def test_unrecorded_run_allocates_no_events(monkeypatch):
    def boom(*args, **kwargs):  # noqa: ANN001 - signature irrelevant
        raise AssertionError("event constructed with recorder disabled")

    for name in ("TrialEvent", "RoundEvent", "DeliveryEvent",
                 "DecisionEvent", "EngineTierEvent", "CacheEvent",
                 "SummaryEvent"):
        monkeypatch.setattr(obs_events, name, boom)
    result = _sim(recorder=None).run(
        5000, until="quiescent", quiescence_window=32)
    assert result.rounds > 0


# --------------------------------------------------------------------------
# 3. recording never changes measured results
# --------------------------------------------------------------------------

@pytest.mark.parametrize("engine", [None, "reference"])
def test_recorded_run_is_bit_identical(engine):
    base = _sim(engine=engine).run(
        5000, until="quiescent", quiescence_window=32)
    rec = Recorder.in_memory()
    recorded = _sim(recorder=rec, engine=engine).run(
        5000, until="quiescent", quiescence_window=32)
    assert recorded.rounds == base.rounds
    assert recorded.stop_reason == base.stop_reason
    assert recorded.outputs == base.outputs
    assert recorded.metrics.as_dict() == base.metrics.as_dict()
    assert len(rec.of_kind("round")) == base.rounds


def test_batch_tier_select_event_and_round_tiers():
    rec = Recorder.in_memory()
    _sim(recorder=rec).run(5000, until="quiescent", quiescence_window=32)
    selects = rec.of_kind("engine_tier")
    assert selects and selects[0].action == "select"
    assert selects[0].tier == "batch"
    assert "batch kernel engaged" in selects[0].reason
    assert {e.tier for e in rec.of_kind("round")} == {"batch"}


def test_decline_reason_on_reference_engine():
    rec = Recorder.in_memory()
    _sim(recorder=rec, engine="reference").run(
        5000, until="quiescent", quiescence_window=32)
    (select,) = [e for e in rec.of_kind("engine_tier")
                 if e.action == "select"]
    assert select.tier == "reference"
    assert "engine='reference'" in select.reason


def test_cache_events_present_with_counters():
    rec = Recorder.in_memory()
    # T=4: each handoff window's union graph is stable for T-1 = 3
    # rounds, so the stable-span cache must serve repeat rounds.
    _sim(recorder=rec, T=4).run(5000, until="quiescent", quiescence_window=32)
    caches = {e.cache: e for e in rec.of_kind("cache")}
    assert set(caches) == {"adjacency", "payload_bits"}
    adjacency = caches["adjacency"]
    assert adjacency.hits > 0
    assert "span_hits=" in adjacency.detail
    assert "span_hits=0" not in adjacency.detail


def test_summary_event_matches_run():
    rec = Recorder.in_memory()
    result = _sim(recorder=rec).run(
        5000, until="quiescent", quiescence_window=32)
    (summary,) = rec.of_kind("summary")
    assert summary.rounds == result.rounds
    assert summary.stop_reason == result.stop_reason
    assert summary.broadcast_bits == result.metrics.broadcast_bits
    tier_total = summary.batch_rounds + summary.reference_rounds
    assert tier_total == result.rounds


# --------------------------------------------------------------------------
# 4. the runner + merge pipeline
# --------------------------------------------------------------------------

_SPEC = TrialSpec(schedule="alternating_matchings", nodes="exact_count",
                  max_rounds=20000, until="quiescent", quiescence_window=64,
                  schedule_params={"n": 16}, node_params={"n": 16},
                  oracle="count_exact")


@pytest.fixture
def events_dir(tmp_path):
    set_events_dir(str(tmp_path))
    try:
        yield str(tmp_path)
    finally:
        set_events_dir(None)


def test_runner_stream_is_schema_valid(events_dir):
    unrecorded_result = run_trial(_SPEC, 11)
    recorded_result = run_trial(_SPEC, 11)
    assert recorded_result == unrecorded_result  # first run pre-dated no dir

    streams = [f for f in os.listdir(events_dir)
               if f.startswith("trial-") and f.endswith(".jsonl")]
    assert len(streams) == 2
    events = list(iter_stream(os.path.join(events_dir, streams[0])))
    kinds = [e.kind for e in events]
    assert kinds[0] == "trial"
    assert kinds[-1] == "summary"
    assert "engine_tier" in kinds and "cache" in kinds
    header = events[0]
    assert header.seed == 11
    assert header.label == "exact_count/alternating_matchings"
    assert header.spec == _SPEC.key(11)  # cache-key provenance


def test_merge_is_deterministic_with_provenance(events_dir):
    for seed in (5, 3, 4):
        run_trial(_SPEC, seed)
    merged, summary = merge_event_streams(events_dir)
    first = open(merged, "rb").read()
    assert summary.streams == 3
    merged_events = list(iter_stream(merged))
    headers = [e for e in merged_events if e.kind == "trial"]
    assert [h.seed for h in headers] == [3, 4, 5]  # sorted
    assert merged_events[0].kind == "trial"  # each stream heads itself
    assert summary.by_kind["trial"] == 3
    assert summary.rounds == sum(
        e.rounds for e in merged_events if e.kind == "summary")
    # merging again (same inputs) is byte-identical
    merged2, _ = merge_event_streams(events_dir)
    assert open(merged2, "rb").read() == first
    rendered = summary.render()
    assert "3 trial streams" in rendered


def test_merge_drops_torn_tail_only(events_dir):
    run_trial(_SPEC, 2)
    (stream,) = [f for f in os.listdir(events_dir)
                 if f.startswith("trial-")]
    path = os.path.join(events_dir, stream)
    whole = list(iter_stream(path))
    with open(path, "a") as fh:
        fh.write('{"kind":"round","v":1,"round"')  # killed mid-write
    assert list(iter_stream(path)) == whole
    # a torn line in the *middle* is an error, with the line number
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines.insert(1, '{"kind":"nonsense","v":1}')
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(EventSchemaError, match=":2"):
        list(iter_stream(path))


def test_summarize_streams_counts_by_kind(events_dir):
    run_trial(_SPEC, 9)
    paths = [os.path.join(events_dir, f) for f in os.listdir(events_dir)]
    summary = summarize_streams(paths)
    assert summary.by_kind["trial"] == 1
    assert summary.by_kind["summary"] == 1
    assert summary.by_kind["round"] == summary.rounds

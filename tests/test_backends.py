"""Engine tier selection and telemetry-column normalization.

Covers:

1. The **selection table**: run features (message loss, a
   ``stop_when`` predicate, a heterogeneous population, an adaptive
   ``bind`` schedule, a pre-halted node) × engine requests, asserting
   what
   :func:`repro.simnet.engine.select_tier` returns, that the chosen tier
   executed every round, that the ``engine_tier`` select event carries
   the same reasons, and that the recorded run is bit-identical to the
   unrecorded one.

2. **Engine names**: exactly ``fast`` and ``reference`` are accepted,
   from the argument or ``REPRO_ENGINE``.

3. **The default engine under observation**: profiling and recording
   run the same tier round, with the same results, and on the reference
   tier the same payload bit-size memo counters as ``engine="reference"``.

4. **Telemetry carriers**: a recorded trial's event counts and cache
   counters live in its event stream only, so its row equals an
   unrecorded one and a cache hit serves the same row.
"""

import pytest

from repro.core.exact_count import ExactCount, ExactCountKnownBound
from repro.dynamics import OverlapHandoffAdversary, WindowedThrottleAdversary
from repro.errors import ConfigurationError
from repro.exec.executor import ParallelExecutor
from repro.exec.specs import TrialSpec
from repro.harness.runner import durable_row, run_trial
from repro.obs import Recorder, iter_stream
from repro.obs.merge import trial_stream_paths
from repro.obs.recorder import set_events_dir
from repro.simnet import RngRegistry, Simulator
from repro.simnet.engine import ENGINES, engine_default, select_tier
from tests.conftest import profiling

#: Scenario -> the run feature it poses.  Each is crossed with every
#: engine request.
SCENARIOS = ("plain", "loss", "stop_when", "mixed", "adaptive",
             "pre_halted")

#: Why each scenario keeps the run off the batch tier (None = it does
#: not).  Stop predicates and adaptive schedules read the progress
#: vector, which the batch kernels serve.
_BATCH_REASON = {
    "plain": None,
    "loss": None,  # the batch tier executes lossy runs natively
    "stop_when": None,
    "mixed": ("heterogeneous population "
              "(ExactCountKnownBound + ExactCount)"),
    "adaptive": None,
    "pre_halted": "population already contains halted nodes",
}


def _schedule(scenario, seed):
    if scenario == "adaptive":
        return WindowedThrottleAdversary(18, 3)
    return OverlapHandoffAdversary(18, 3, noise_edges=2, seed=seed)


def _nodes(scenario, n):
    if scenario == "mixed":
        # Interoperable but distinct classes: kernels need one exact class.
        return [ExactCount(i) if i % 2 else ExactCountKnownBound(i, 3 * n)
                for i in range(n)]
    nodes = [ExactCount(i) for i in range(n)]
    if scenario == "pre_halted":
        nodes[0].halt()
    return nodes


def _sim(scenario, engine, seed=7, recorder=None):
    schedule = _schedule(scenario, seed)
    return Simulator(
        schedule,
        _nodes(scenario, schedule.num_nodes),
        rng=RngRegistry(seed),
        loss_rate=0.25 if scenario == "loss" else 0.0,
        engine=engine,
        recorder=recorder,
    )


def _stop_when(scenario):
    return (lambda r, progress: False) if scenario == "stop_when" else None


def _run(sim, scenario):
    return sim.run(max_rounds=600, until="quiescent", quiescence_window=16,
                   stop_when=_stop_when(scenario), allow_timeout=True)


def _run_scenario(scenario, engine, seed=7, recorder=None):
    sim = _sim(scenario, engine, seed=seed, recorder=recorder)
    return sim, _run(sim, scenario)


def _expected(scenario, engine):
    """``(tier, declined)`` the selection table prescribes."""
    if engine == "reference":
        return "reference", [("batch", "engine='reference'")]
    if _BATCH_REASON[scenario] is None:
        return "batch", []
    return "reference", [("batch", _BATCH_REASON[scenario])]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fallback_matrix(scenario, engine):
    tier, declined = _expected(scenario, engine)
    recorder = Recorder.in_memory()
    sim = _sim(scenario, engine, recorder=recorder)
    assert sim.engine == engine
    assert select_tier(sim) == (tier, declined)
    recorded = _run(sim, scenario)

    # 1. The selected tier executed every round; the others none.
    assert sim.tier_rounds[tier] == recorded.rounds
    for other in ("batch", "reference"):
        if other != tier:
            assert sim.tier_rounds[other] == 0, (
                f"{scenario}/{engine}: unexpected {other} rounds")

    # 2. Exactly one select event, naming the tier and carrying one
    #    {"tier", "reason"} entry per declined tier.
    (select,) = [e for e in recorder.of_kind("engine_tier")
                 if e.action == "select"]
    assert select.tier == tier
    if tier == "batch":
        assert select.declined is None
        assert select.reason == "population batch kernel engaged"
    else:
        assert select.declined == [{"tier": t, "reason": r}
                                   for t, r in declined]
        assert select.reason == declined[0][1]

    # 3. Recording never changes the measured results.
    _, plain = _run_scenario(scenario, engine)
    assert recorded.outputs == plain.outputs
    assert recorded.rounds == plain.rounds
    assert recorded.stop_reason == plain.stop_reason
    assert recorded.metrics == plain.metrics


@pytest.mark.parametrize("scenario", ["plain", "loss", "stop_when",
                                      "pre_halted", "adaptive"])
def test_tiers_agree_across_fallback_matrix(scenario):
    """Whatever tier the selection picks, results are bit-identical."""
    results = {engine: _run_scenario(scenario, engine)[1]
               for engine in ENGINES}
    ref, fast = results["reference"], results["fast"]
    assert fast.outputs == ref.outputs
    assert fast.rounds == ref.rounds
    assert fast.metrics == ref.metrics


# --------------------------------------------------------------------------
# engine names
# --------------------------------------------------------------------------

def test_engine_batch_is_not_an_engine_name():
    """The batch tier is selected, never requested by name."""
    with pytest.raises(ConfigurationError):
        _sim("plain", "batch")


def test_repro_engine_sets_the_process_default(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert engine_default() == "fast"
    monkeypatch.setenv("REPRO_ENGINE", "")
    assert engine_default() == "fast"
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert engine_default() == "reference"
    assert _sim("plain", None).engine == "reference"


def test_unknown_repro_engine_raises_at_construction(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "warp-drive")
    with pytest.raises(ConfigurationError, match="REPRO_ENGINE"):
        _sim("plain", None)


def test_retired_fast_nobatch_engine_names_the_choices(monkeypatch):
    """Only "fast" and "reference" name engines; any other value, the
    retired "fast-nobatch" included, is refused with both choices."""
    assert ENGINES == ("fast", "reference")
    monkeypatch.setenv("REPRO_ENGINE", "fast-nobatch")
    with pytest.raises(ConfigurationError,
                       match="REPRO_ENGINE.*'fast'.*'reference'"):
        _sim("plain", None)


# --------------------------------------------------------------------------
# the default engine's tier round under profiling and recording
# --------------------------------------------------------------------------

def _payload_bits_counters(recorder):
    (event,) = [e for e in recorder.of_kind("cache")
                if e.cache == "payload_bits"]
    return event.hits, event.misses


@pytest.mark.parametrize("scenario", ["plain", "loss", "pre_halted"])
def test_fast_tier_observed_runs_match_plain_runs(scenario):
    """Under the default engine ``"fast"`` (the batch tier for plain and
    lossy runs, the reference tier for a pre-halted population),
    profiling and recording leave the tier and the results alone."""
    tier = "reference" if scenario == "pre_halted" else "batch"
    _, plain = _run_scenario(scenario, "fast")

    with profiling():
        profiled_sim = _sim(scenario, "fast")
    profiled = _run(profiled_sim, scenario)
    assert profiled_sim.tier_rounds[tier] == profiled.rounds
    assert profiled.metrics == plain.metrics

    recorder = Recorder.in_memory()
    recorded_sim = _sim(scenario, "fast", recorder=recorder)
    recorded = _run(recorded_sim, scenario)
    assert recorded_sim.tier_rounds[tier] == recorded.rounds
    assert recorded.metrics == plain.metrics
    assert recorded.outputs == plain.outputs

    hits, misses = _payload_bits_counters(recorder)
    if tier == "batch":
        # Kernels cost payloads from their arrays, never through the memo.
        assert (hits, misses) == (0, 0)
        return
    # On the reference tier every broadcast goes through the memo, as
    # under engine="reference".
    assert profiled_sim.phase_seconds["drain"] == 0.0
    reference_recorder = Recorder.in_memory()
    _run_scenario(scenario, "reference", recorder=reference_recorder)
    assert misses > 0 and hits > 0
    assert (hits, misses) == _payload_bits_counters(reference_recorder)
    assert hits + misses == plain.metrics.broadcasts


# --------------------------------------------------------------------------
# telemetry carriers (a recorded trial's counters live in its stream)
# --------------------------------------------------------------------------

_SPEC = TrialSpec(schedule="lowdiam_handoff",
                  schedule_params={"n": 12, "T": 2},
                  nodes="exact_count", node_params={"n": 12},
                  max_rounds=1000, until="quiescent", quiescence_window=16,
                  oracle="count_exact")


#: The (hits, misses) of ``_SPEC``'s two cache events at seeds 4 and 5
#: (each run builds all 20 of its rounds' graphs and costs every payload
#: on the batch tier, from its arrays).
_SPEC_CACHE_EVENTS = {"adjacency": (0, 20), "payload_bits": (0, 0)}


def _stream_cache_counts(events_dir):
    """``{cache: (hits, misses)}`` of the one trial stream under *dir*."""
    (path,) = trial_stream_paths(str(events_dir))
    return {e.cache: (e.hits, e.misses)
            for e in iter_stream(path) if e.kind == "cache"}


def test_recorded_rows_normalize_to_unrecorded_rows(tmp_path):
    plain_row = run_trial(_SPEC, 4).as_row()
    set_events_dir(str(tmp_path))
    try:
        recorded_row = run_trial(_SPEC, 4).as_row()
    finally:
        set_events_dir(None)
    assert recorded_row == plain_row  # no telemetry column
    assert durable_row(plain_row) is plain_row  # clean rows pass through
    assert _stream_cache_counts(tmp_path) == _SPEC_CACHE_EVENTS


def test_executor_cache_hits_match_recorded_fresh_rows(tmp_path):
    """A cache hit serves the same row as the fresh recorded run, and the
    run's counters live only in its one event stream."""
    cells = [(_SPEC, 5)]
    events = tmp_path / "events"
    events.mkdir()
    set_events_dir(str(events))
    try:
        fresh = ParallelExecutor(cache=str(tmp_path / "cache")).run(cells)
        assert fresh.executed == 1
        warm = ParallelExecutor(cache=str(tmp_path / "cache")).run(cells)
    finally:
        set_events_dir(None)
    assert warm.executed == 0
    assert warm.cache_hits == 1
    assert warm.rows[0] == fresh.rows[0]
    assert not any(k.startswith(("phase.", "engine.")) for k in fresh.rows[0])
    # The hit emits no events: the one stream is the fresh run's.
    assert _stream_cache_counts(events) == _SPEC_CACHE_EVENTS

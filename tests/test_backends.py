"""The pluggable backend registry and capability negotiation.

Covers the three layers the backends package introduced:

1. The **fallback matrix**: run features (message loss, tracing, a
   ``stop_when`` predicate, a heterogeneous population, a strict
   CONGEST budget) × engine requests, asserting which tier the
   negotiator engages, that every passed-over tier leaves a structured
   :class:`~repro.simnet.backends.base.CapabilityDiff` in the
   ``engine_tier`` select event, and that the recorded run is
   bit-identical to the unrecorded one.

2. **Third-party registration**: a toy backend plugs in through
   :func:`repro.simnet.backends.register_backend`, executes rounds when
   eligible, and shows up as a structured decline in the observability
   stream when a run poses a requirement it cannot serve.

3. **Process defaults**: the ``REPRO_ENGINE`` environment variable
   always wins over :func:`repro.simnet.engine.set_engine_default`.

4. **Telemetry-column normalization**: recorded rows carry ``obs.*`` /
   ``cache.*`` counters, and the executor's journal + result cache
   strip them so cache hits and fresh runs compare equal.
"""

import pytest

from repro.core.exact_count import ExactCount, ExactCountKnownBound
from repro.dynamics import OverlapHandoffAdversary
from repro.errors import ConfigurationError
from repro.exec.executor import ParallelExecutor
from repro.exec.specs import TrialSpec
from repro.harness.runner import durable_row, run_trial
from repro.obs import Recorder
from repro.obs.recorder import set_events_dir
from repro.simnet import RngRegistry, Simulator, TraceRecorder
from repro.simnet.backends import (
    Capabilities,
    EngineBackend,
    available_engines,
    negotiate,
    register_backend,
    unregister_backend,
)
from repro.simnet.backends.reference import run_reference_round
from repro.simnet.engine import engine_default, set_engine_default

ENGINES = ("fast", "fast-nobatch", "reference")

#: Scenario -> the run feature it poses.  Each is crossed with every
#: engine request below.
SCENARIOS = ("plain", "loss", "trace", "stop_when", "mixed",
             "strict_bandwidth")

#: Requirement name the batch tier must cite when the scenario
#: disqualifies it (None = the batch tier stays eligible).
_BATCH_MISSING = {
    "plain": None,
    "loss": None,  # the batch tier executes lossy runs natively now
    "trace": "trace",
    "stop_when": "stop-when",
    "mixed": "mixed-population",
    "strict_bandwidth": "strict-bandwidth",
}


def _handoff(seed):
    return OverlapHandoffAdversary(18, 3, noise_edges=2, seed=seed)


def _nodes(schedule, mixed=False):
    n = schedule.num_nodes
    if mixed:
        # Interoperable but distinct classes: kernels need one exact class.
        return [ExactCount(i) if i % 2 else ExactCountKnownBound(i, 3 * n)
                for i in range(n)]
    return [ExactCount(i) for i in range(n)]


def _run_scenario(scenario, engine, seed=7, recorder=None):
    schedule = _handoff(seed)
    sim = Simulator(
        schedule,
        _nodes(schedule, mixed=(scenario == "mixed")),
        rng=RngRegistry(seed),
        loss_rate=0.25 if scenario == "loss" else 0.0,
        strict_bandwidth=(scenario == "strict_bandwidth"),
        bandwidth_bits=100_000 if scenario == "strict_bandwidth" else None,
        trace=TraceRecorder() if scenario == "trace" else None,
        engine=engine,
        recorder=recorder,
    )
    stop_when = (lambda s: False) if scenario == "stop_when" else None
    result = sim.run(max_rounds=600, until="quiescent", quiescence_window=16,
                     stop_when=stop_when, allow_timeout=True)
    return sim, result


def _expected_tier(scenario, engine):
    if engine == "reference":
        return "reference"
    if engine == "fast-nobatch":
        return "fast"
    return "batch" if _BATCH_MISSING[scenario] is None else "fast"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fallback_matrix(scenario, engine):
    recorder = Recorder.in_memory()
    sim, recorded = _run_scenario(scenario, engine, recorder=recorder)

    # 1. The negotiated tier executed every round; the others none.
    expected = _expected_tier(scenario, engine)
    assert sim._tier_rounds[expected] == recorded.rounds
    for tier in ("batch", "fast", "reference"):
        if tier != expected:
            assert sim._tier_rounds[tier] == 0, (
                f"{scenario}/{engine}: unexpected {tier} rounds")

    # 2. Exactly one select event, naming the tier and carrying one
    #    structured diff per declined backend.
    selects = [e for e in recorder.of_kind("engine_tier")
               if e.action == "select"]
    (select,) = selects
    assert select.tier == expected
    if engine == "reference":
        declined = {p["backend"]: p for p in select.declined}
        assert declined["batch"]["detail"] == "engine='reference'"
        assert declined["fast"]["detail"] == "engine='reference'"
    elif engine == "fast-nobatch":
        declined = {p["backend"]: p for p in select.declined}
        assert declined["batch"]["detail"] == "batch kernels disabled"
    elif _BATCH_MISSING[scenario] is None:
        assert select.declined is None
        assert select.reason == "population batch kernel engaged"
    else:
        declined = {p["backend"]: p for p in select.declined}
        assert _BATCH_MISSING[scenario] in declined["batch"]["missing"]
        # The rendered reason and the structured diff agree.
        assert sim._batch_reason in select.reason

    # 3. Recording never changes the measured results.
    _, plain = _run_scenario(scenario, engine)
    assert recorded.outputs == plain.outputs
    assert recorded.rounds == plain.rounds
    assert recorded.stop_reason == plain.stop_reason
    assert recorded.metrics == plain.metrics


@pytest.mark.parametrize("scenario", ["plain", "loss", "stop_when"])
def test_tiers_agree_across_fallback_matrix(scenario):
    """Whatever tier the negotiator picks, results are bit-identical."""
    results = {engine: _run_scenario(scenario, engine)[1]
               for engine in ENGINES}
    ref = results["reference"]
    for engine in ("fast", "fast-nobatch"):
        assert results[engine].outputs == ref.outputs
        assert results[engine].rounds == ref.rounds
        assert results[engine].metrics == ref.metrics


def test_pinning_the_batch_backend_by_name():
    """``engine="batch"`` pins the overlay; the persistent chain backs
    it so the run still has a base tier."""
    sim, result = _run_scenario("plain", "batch")
    assert sim.engine == "fast"  # the persistent tier under the overlay
    assert sim._tier_rounds["batch"] == result.rounds


# --------------------------------------------------------------------------
# third-party registration
# --------------------------------------------------------------------------

class _ToyBackend(EngineBackend):
    """Reference-loop clone that counts its rounds; supports nothing
    beyond a bare run (every capability flag stays False)."""

    name = "toy-loops"
    priority = 45
    capabilities = Capabilities()
    auto_negotiate = False
    overlay = False

    def __init__(self):
        self.rounds = 0

    def run_round(self, sim):
        self.rounds += 1
        run_reference_round(sim)


def test_register_backend_toy_demo():
    toy = register_backend(_ToyBackend())
    try:
        assert "toy-loops" in available_engines()

        # Eligible: pinned by name with no posed requirements, the toy
        # executes every round — and matches the reference loops.
        schedule = _handoff(3)
        sim = Simulator(schedule, _nodes(schedule), rng=RngRegistry(3),
                        engine="toy-loops")
        result = sim.run(max_rounds=600, until="quiescent",
                         quiescence_window=16, allow_timeout=True)
        assert sim.engine == "toy-loops"
        assert sim._tier_rounds["toy-loops"] == result.rounds
        assert toy.rounds == result.rounds
        ref_sim, ref = _run_scenario("plain", "reference", seed=3)
        assert result.outputs == ref.outputs
        assert result.rounds == ref.rounds
        assert result.metrics == ref.metrics

        # Ineligible: a recorder poses a requirement the toy does not
        # declare, so the negotiator declines it with a structured diff
        # and falls through to the persistent chain.
        recorder = Recorder.in_memory()
        schedule = _handoff(3)
        sim = Simulator(schedule, _nodes(schedule), rng=RngRegistry(3),
                        engine="toy-loops", recorder=recorder)
        sim.run(max_rounds=600, until="quiescent", quiescence_window=16,
                allow_timeout=True)
        assert sim.engine == "fast"
        (select,) = [e for e in recorder.of_kind("engine_tier")
                     if e.action == "select"]
        toy_declines = [p for p in select.declined
                        if p["backend"] == "toy-loops"]
        assert toy_declines and "recorder" in toy_declines[0]["missing"]
    finally:
        unregister_backend("toy-loops")
    assert "toy-loops" not in available_engines()


def test_register_backend_rejects_duplicates_and_reserved_names():
    toy = _ToyBackend()
    register_backend(toy)
    try:
        with pytest.raises(ConfigurationError):
            register_backend(_ToyBackend())
        register_backend(_ToyBackend(), replace=True)  # explicit override
    finally:
        unregister_backend("toy-loops")

    class Reserved(_ToyBackend):
        name = "fast-nobatch"

    with pytest.raises(ConfigurationError):
        register_backend(Reserved())

    class Nameless(_ToyBackend):
        name = ""

    with pytest.raises(ConfigurationError):
        register_backend(Nameless())


def test_negotiation_fails_closed_on_unknown_requirement():
    """Unknown requirement names are conservatively unsupported — if no
    backend can serve the run, negotiation raises instead of guessing."""
    with pytest.raises(ConfigurationError):
        negotiate("fast", {"antigravity": "hover the population"})


# --------------------------------------------------------------------------
# process defaults: REPRO_ENGINE always wins
# --------------------------------------------------------------------------

def test_env_var_wins_over_set_engine_default(monkeypatch):
    from repro.simnet import engine as engine_mod

    monkeypatch.setattr(engine_mod, "_ENGINE_DEFAULT", None)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert engine_default() == "fast"

    set_engine_default("reference")
    assert engine_default() == "reference"

    monkeypatch.setenv("REPRO_ENGINE", "fast-nobatch")
    assert engine_default() == "fast-nobatch"  # env wins

    # Even a later in-process call cannot override the environment …
    set_engine_default("reference")
    assert engine_default() == "fast-nobatch"

    # … but it becomes the default again once the variable is gone.
    monkeypatch.delenv("REPRO_ENGINE")
    assert engine_default() == "reference"


def test_set_engine_default_validates_against_registry(monkeypatch):
    from repro.simnet import engine as engine_mod

    monkeypatch.setattr(engine_mod, "_ENGINE_DEFAULT", None)
    with pytest.raises(ConfigurationError):
        set_engine_default("warp-drive")


def test_set_engine_default_raises_if_precedence_regresses(monkeypatch):
    """The env-wins check raises a real error (not an ``assert``, which
    ``python -O`` strips) when the resolved default disagrees."""
    from repro.simnet import engine as engine_mod

    monkeypatch.setattr(engine_mod, "_ENGINE_DEFAULT", None)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.setattr(engine_mod, "engine_default", lambda: "fast")
    with pytest.raises(ConfigurationError, match="precedence"):
        set_engine_default("reference")


# --------------------------------------------------------------------------
# telemetry-column normalization (obs.* / cache.* never enter the cache)
# --------------------------------------------------------------------------

_SPEC = TrialSpec(schedule="lowdiam_handoff",
                  schedule_params={"n": 12, "T": 2},
                  nodes="exact_count", node_params={"n": 12},
                  max_rounds=1000, until="quiescent", quiescence_window=16,
                  oracle="count_exact")


def test_recorded_rows_normalize_to_unrecorded_rows(tmp_path):
    plain_row = run_trial(_SPEC, 4).as_row()
    set_events_dir(str(tmp_path))
    try:
        recorded_row = run_trial(_SPEC, 4).as_row()
    finally:
        set_events_dir(None)
    assert any(k.startswith("obs.") for k in recorded_row)
    assert any(k.startswith("cache.") for k in recorded_row)
    assert not any(k.startswith(("obs.", "cache.")) for k in plain_row)
    assert durable_row(recorded_row) == plain_row
    assert durable_row(plain_row) is plain_row  # clean rows pass through


def test_executor_cache_hits_match_recorded_fresh_rows(tmp_path):
    """A warm rerun serves the stripped row; it must equal the durable
    form of the fresh recorded row (``harness.report --check`` parity)."""
    cells = [(_SPEC, 5)]
    events = tmp_path / "events"
    events.mkdir()
    set_events_dir(str(events))
    try:
        fresh = ParallelExecutor(cache=str(tmp_path / "cache")).run(cells)
        assert fresh.executed == 1
        assert any(k.startswith("obs.") for k in fresh.rows[0])
        warm = ParallelExecutor(cache=str(tmp_path / "cache")).run(cells)
    finally:
        set_events_dir(None)
    assert warm.executed == 0
    assert warm.cache_hits == 1
    assert warm.rows[0] == durable_row(fresh.rows[0])
    assert not any(k.startswith(("phase.", "engine.", "obs.", "cache."))
                   for k in warm.rows[0])

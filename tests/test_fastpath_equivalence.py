"""Golden equivalence: the batch tier is observably identical to the
reference engine.

The engine has **two** tiers, one round loop each, and
:func:`repro.simnet.engine.select_tier` picks one per run: batch
kernels (:mod:`repro.simnet.batch`; ``engine="fast"``, the default,
when the population provides one) and the reference loop
(:func:`repro.simnet.rounds.run_reference_round`; every other run, and
``engine="reference"``).  Both must produce **byte-identical** results
across topologies × algorithms × loss rates: same outputs, same round
counts, same stop reason, same metric counters, the same RNG
consumption, and the same recorded decision event streams.  These tests
are the contract that lets every experiment run on the batch tier
where it can while the reference loop remains the executable
specification (``tests/test_generated_specs.py`` extends it to
generated specs).

Also covered here: the CSR adjacency construction itself (against a
naive reference), the interval-aware reuse (object identity across
stable windows and across consecutive equal rounds), the
``stable_until`` promise of every adversary, the bounded bit-size
cache, and the per-phase profiling surface.
"""

import numpy as np
import pytest

from repro.dynamics import (
    AlternatingMatchingsAdversary,
    EdgeChurnAdversary,
    FreshSpanningAdversary,
    OverlapHandoffAdversary,
    RepairedMobilityAdversary,
    StaticAdversary,
    build_csr,
    line_graph,
)
from repro.dynamics.schedule import STABLE_FOREVER
from repro.core.exact_count import ExactCount
from repro.errors import ConfigurationError
from repro.exec.executor import ParallelExecutor
from repro.exec.specs import TrialSpec
from repro.harness.runner import durable_row, run_trial
from repro.obs import Recorder
from repro.simnet import RngRegistry, Simulator
from repro.simnet.engine import PHASES
from tests.conftest import profiling


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

#: Both engines, pinned explicitly (never the process default).
ENGINES = ("fast", "reference")


def _run_all(spec: TrialSpec, seed: int):
    """Run one spec under every engine tier, keyed by engine name."""
    results = {}
    for engine in ENGINES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_ENGINE", engine)
            results[engine] = run_trial(spec, seed)
    return results


def _sim(schedule_factory, seed, *, engine, loss_rate=0.0, recorder=None):
    schedule = schedule_factory(seed)
    nodes = [ExactCount(i) for i in range(schedule.num_nodes)]
    return Simulator(schedule, nodes, rng=RngRegistry(seed),
                     loss_rate=loss_rate, engine=engine, recorder=recorder)


def _assert_run_results_equal(fast, ref):
    """Field-by-field comparison of two RunResults (clear failure output)."""
    assert fast.outputs == ref.outputs
    assert fast.rounds == ref.rounds
    assert fast.stop_reason == ref.stop_reason
    fm, rm = fast.metrics, ref.metrics
    assert fm.rounds == rm.rounds
    assert fm.broadcasts == rm.broadcasts
    assert fm.delivered_messages == rm.delivered_messages
    assert fm.broadcast_bits == rm.broadcast_bits
    assert fm.delivered_bits == rm.delivered_bits
    assert fm.max_broadcast_bits == rm.max_broadcast_bits
    assert fm.first_decision_round == rm.first_decision_round
    assert fm.last_decision_round == rm.last_decision_round
    assert dict(fm.decision_rounds) == dict(rm.decision_rounds)
    assert dict(fm.counters) == dict(rm.counters)
    assert fm == rm  # catches any field this list falls behind on


# --------------------------------------------------------------------------
# the equivalence grid: topologies × algorithms
# --------------------------------------------------------------------------

GRID = [
    pytest.param(spec, id=label)
    for label, spec in [
        ("exact_count/lowdiam_T3", TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": 24, "T": 3},
            nodes="exact_count", node_params={"n": 24},
            max_rounds=3000, until="quiescent", quiescence_window=32,
            oracle="count_exact")),
        ("exact_count/fresh_spanning", TrialSpec(
            schedule="fresh_spanning",
            schedule_params={"n": 16, "noise_edges": 2},
            nodes="exact_count", node_params={"n": 16},
            max_rounds=3000, until="quiescent", quiescence_window=32,
            oracle="count_exact")),
        ("approx_count/overlap_T4", TrialSpec(
            schedule="overlap_handoff",
            schedule_params={"n": 16, "T": 4, "noise_edges": 2},
            nodes="approx_count",
            node_params={"n": 16, "eps": 0.25, "delta": 0.05},
            max_rounds=3000, until="quiescent", quiescence_window=32,
            oracle="count_approx", oracle_params={"eps": 0.25})),
        ("hybrid_count/repaired_mobility", TrialSpec(
            schedule="repaired_mobility", schedule_params={"n": 12, "T": 2},
            nodes="hybrid_count", node_params={"n": 12},
            max_rounds=3000, until="quiescent", quiescence_window=32,
            allow_timeout=True)),
        ("max/static_line", TrialSpec(
            schedule="static_line", schedule_params={"n": 16},
            nodes="sublinear_max_modvalue", node_params={"n": 16},
            max_rounds=4000, until="quiescent", quiescence_window=32,
            oracle="max_modvalue")),
        ("token/lowdiam_T2", TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": 16, "T": 2},
            nodes="token_dissemination",
            node_params={"n": 16, "known_count": True},
            max_rounds=1200, until="decided", oracle="count_exact")),
        ("klo/lowdiam_T2", TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": 8, "T": 2},
            nodes="klo_count", node_params={"n": 8},
            max_rounds=4000, until="halted", oracle="count_exact")),
        ("pipelined_exact/windowed_throttle", TrialSpec(
            schedule="windowed_throttle", schedule_params={"n": 12, "T": 3},
            nodes="pipelined_exact_count",
            node_params={"n": 12, "ids_per_message": 4},
            max_rounds=4000, until="quiescent", quiescence_window=32,
            allow_timeout=True)),
        ("exact_count/alternating", TrialSpec(
            schedule="alternating_matchings", schedule_params={"n": 10},
            nodes="exact_count", node_params={"n": 10},
            max_rounds=4000, until="quiescent", quiescence_window=32,
            allow_timeout=True)),
    ]
]


@pytest.mark.parametrize("spec", GRID)
@pytest.mark.parametrize("seed", [3, 11])
def test_engine_tiers_match_across_grid(spec, seed):
    results = _run_all(spec, seed)
    ref = results["reference"]
    for engine in ENGINES[:-1]:
        # TrialResult is a frozen dataclass: full equality.
        assert results[engine] == ref, f"{engine} diverges from reference"
    if spec.oracle is not None:
        assert ref.correct is True


@pytest.mark.parametrize("loss_rate", [0.1, 0.3])
@pytest.mark.parametrize("seed", [5, 19])
def test_fast_matches_reference_under_loss(loss_rate, seed):
    """Loss draws consume the shared stream in the identical order.

    The batch tier executes lossy runs natively (its vectorised
    per-edge keep mask consumes the shared loss stream bit-identically
    to the per-receiver draws), so under ``engine="fast"`` it must
    engage — and still match the reference loops exactly.
    """
    def factory(s):
        return OverlapHandoffAdversary(20, 2, noise_edges=2, seed=s)

    results = {}
    for engine in ENGINES:
        sim = _sim(factory, seed, engine=engine, loss_rate=loss_rate)
        results[engine] = sim.run(max_rounds=4000, until="quiescent",
                                  quiescence_window=32, allow_timeout=True)
        if engine == "fast":
            assert sim.tier_rounds["batch"] == results[engine].rounds
        else:
            assert sim.tier_rounds["batch"] == 0
    _assert_run_results_equal(results["fast"], results["reference"])
    assert results["fast"].metrics.counters.get("messages_lost", 0) > 0


@pytest.mark.parametrize("seed", [7])
def test_decision_event_streams_identical(seed):
    """Recorded decide/retract/halt events match, in order, across tiers."""
    def factory(s):
        return OverlapHandoffAdversary(16, 2, noise_edges=1, seed=s)

    streams, tiers = {}, {}
    for engine in ENGINES:
        rec = Recorder.in_memory()
        sim = _sim(factory, seed, engine=engine, recorder=rec)
        sim.run(max_rounds=2000, until="quiescent", quiescence_window=16)
        tiers[engine] = {t for t, k in sim.tier_rounds.items() if k}
        streams[engine] = [(e.round, e.node_id, e.action, e.value)
                           for e in rec.of_kind("decision")]
    # Recording leaves tier selection alone: each engine ran its own tier.
    assert tiers == {"fast": {"batch"}, "reference": {"reference"}}
    assert any(action == "decide" for _, _, action, _ in streams["reference"])
    assert streams["fast"] == streams["reference"]


def test_schedule_without_adjacency_is_refused():
    """A duck-typed schedule without ``adjacency`` raises at
    construction, whatever engine is asked for."""
    class Minimal:
        num_nodes = 6

        def edges(self, round_index):
            return StaticAdversary(6, line_graph(6)).edges(round_index)

    for engine in ENGINES:
        nodes = [ExactCount(i) for i in range(6)]
        with pytest.raises(ConfigurationError, match="adjacency"):
            Simulator(Minimal(), nodes, rng=RngRegistry(0), engine=engine)


# --------------------------------------------------------------------------
# batch-kernel tier: dispatch rules and direct-Simulator equivalence
# --------------------------------------------------------------------------

def _handoff(seed):
    return OverlapHandoffAdversary(20, 4, noise_edges=2, seed=seed)


def test_batch_tier_engages_on_eligible_run():
    """The default engine runs every round on the batch tier when the
    population provides a kernel and nothing disqualifies the run."""
    sim = _sim(_handoff, 5, engine="fast")
    result = sim.run(max_rounds=2000, until="quiescent",
                     quiescence_window=32)
    assert sim.tier_rounds["batch"] == result.rounds
    assert sim.tier_rounds["reference"] == 0


def test_stop_when_predicate_keeps_batch_tier():
    """A stop predicate reads the round index and the progress vector,
    which the kernel serves, so the batch tier stays engaged — and
    results still match the reference, predicate stop included."""
    results = {}
    for engine in ENGINES:
        sim = _sim(_handoff, 9, engine=engine)
        results[engine] = sim.run(
            max_rounds=2000, until="quiescent", quiescence_window=32,
            stop_when=lambda r, progress: progress.min() >= 12)
        assert sim.tier_rounds["batch"] == (
            results[engine].rounds if engine == "fast" else 0)
    assert results["reference"].stop_reason == "predicate"
    _assert_run_results_equal(results["fast"], results["reference"])


def test_mixed_population_disables_batch_tier():
    """Kernels require a homogeneous population of one exact class.

    ExactCount and ExactCountKnownBound interoperate (both fold id-set
    unions) but are distinct classes, so the batch tier must stand down.
    """
    from repro.core.exact_count import ExactCountKnownBound

    schedule = _handoff(3)
    n = schedule.num_nodes
    nodes = [ExactCount(i) if i % 2 else ExactCountKnownBound(i, 3 * n)
             for i in range(n)]
    sim = Simulator(schedule, nodes, rng=RngRegistry(3), engine="fast")
    sim.run(max_rounds=500, until="quiescent", quiescence_window=16,
            allow_timeout=True)
    assert sim.tier_rounds["batch"] == 0
    assert sim.tier_rounds["reference"] > 0


@pytest.mark.parametrize("seed", [2, 13])
def test_flood_max_three_way_equivalence(seed):
    """The known-N flood (MaxKnownBound at rounds_bound=N-1) has no exec
    spec; compare the tiers via direct Simulators."""
    from repro.core.max_compute import MaxKnownBound

    results = {}
    for engine in ENGINES:
        schedule = _handoff(seed)
        n = schedule.num_nodes
        nodes = [MaxKnownBound(i, value=(i * 7919) % 1023,
                               rounds_bound=n - 1)
                 for i in range(n)]
        sim = Simulator(schedule, nodes, rng=RngRegistry(seed),
                        engine=engine)
        results[engine] = sim.run(max_rounds=4000, until="halted")
        if engine == "fast":
            assert sim.tier_rounds["batch"] > 0
    _assert_run_results_equal(results["fast"], results["reference"])


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_stats_only_present_when_profiled(engine, monkeypatch):
    """The per-tier round split is telemetry: it never enters a
    RunResult, and only profiled trial rows carry it, as ``engine.*``
    columns."""
    def run():
        sim = Simulator(_handoff(4), [ExactCount(i) for i in range(20)],
                        rng=RngRegistry(4), engine=engine)
        result = sim.run(max_rounds=1000, until="quiescent",
                         quiescence_window=16)
        assert set(sim.tier_rounds) == {"batch", "reference"}
        assert sum(sim.tier_rounds.values()) == result.rounds
        assert not any(k.startswith("engine.")
                       for k in result.metrics.as_dict())
        return result

    plain = run()
    with profiling():
        assert run() == plain

    monkeypatch.setenv("REPRO_ENGINE", engine)
    spec = TrialSpec(
        schedule="lowdiam_handoff", schedule_params={"n": 12, "T": 2},
        nodes="exact_count", node_params={"n": 12},
        max_rounds=1000, until="quiescent", quiescence_window=16)
    assert not any(k.startswith("engine.")
                   for k in run_trial(spec, 4).as_row())
    with profiling():
        row = run_trial(spec, 4).as_row()
    tiers = [row[f"engine.{tier}_rounds"] for tier in ("batch", "reference")]
    assert sum(tiers) == row["rounds"]


# --------------------------------------------------------------------------
# CSR adjacency and the interval-aware cache
# --------------------------------------------------------------------------

def _naive_neighbors(edge_arr, n):
    out = [[] for _ in range(n)]
    for u, v in edge_arr.tolist():
        out[u].append(v)
        out[v].append(u)
    return [sorted(nbrs) for nbrs in out]


@pytest.mark.parametrize("factory", [
    lambda: OverlapHandoffAdversary(18, 3, noise_edges=2, seed=4),
    lambda: FreshSpanningAdversary(15, noise_edges=1, seed=4),
    lambda: AlternatingMatchingsAdversary(12),
    lambda: EdgeChurnAdversary(14, line_graph(14), dwell=3, seed=4),
    lambda: StaticAdversary(10, line_graph(10)),
    lambda: RepairedMobilityAdversary(12, T=2, seed=4),
])
def test_csr_matches_naive_adjacency(factory):
    schedule = factory()
    n = schedule.num_nodes
    for r in range(1, 13):
        csr = schedule.adjacency(r)
        expected = _naive_neighbors(schedule.edges(r), n)
        assert csr.neighbor_lists() == expected
        assert csr.degrees().tolist() == [len(nbrs) for nbrs in expected]
        assert [csr.indices[csr.indptr[j]:csr.indptr[j + 1]].tolist()
                for j in range(n)] == expected


def test_build_csr_empty_graph():
    csr = build_csr(np.empty((0, 2), dtype=np.int64), 5)
    assert csr.neighbor_lists() == [[], [], [], [], []]
    assert csr.num_edges == 0


def test_stable_window_shares_one_csr_object():
    """Rounds 2..T of a stable window reuse the same CSR build."""
    schedule = OverlapHandoffAdversary(16, 4, noise_edges=0, seed=1)
    # window rounds: 1 (handoff union), then 2..4 stable
    a2 = schedule.adjacency(2)
    assert schedule.adjacency(3) is a2
    assert schedule.adjacency(4) is a2
    assert schedule.adjacency(5) is not a2  # next window's handoff round


def test_consecutive_repeat_reuses_previous_csr():
    """A round whose graph equals the previous round's shares its CSR
    object; a graph seen earlier but not just before is built afresh,
    with equal content."""
    from repro.dynamics import ExplicitSchedule, FunctionSchedule

    ga = [(0, 1), (1, 2)]
    gb = [(0, 2)]
    rounds = [ga, ga, gb, ga]
    # The explicit schedule's stable span covers rounds 1-2; the function
    # schedule promises nothing, so its round 2 is a previous-round repeat.
    for schedule, stats in (
            (ExplicitSchedule(3, rounds), (1, 0, 3)),
            (FunctionSchedule(3, lambda r: rounds[r - 1]), (0, 1, 3))):
        served = [schedule.adjacency(r) for r in range(1, 5)]
        assert served[1] is served[0]
        assert served[2] is not served[1]
        assert served[3] is not served[0]
        assert np.array_equal(served[3].indptr, served[0].indptr)
        assert np.array_equal(served[3].indices, served[0].indices)
        assert tuple(schedule.adjacency_stats[k] for k in (
            "span_hits", "repeat_hits", "builds")) == stats
    # AlternatingMatchings repeats its full ring on odd rounds only, with
    # an even round between: each odd round builds its own equal CSR.
    alt = AlternatingMatchingsAdversary(12)
    first, second, third = (alt.adjacency(r) for r in (1, 2, 3))
    assert second is not first and third is not first
    assert np.array_equal(third.indices, first.indices)


def test_static_schedule_is_stable_forever():
    schedule = StaticAdversary(8, line_graph(8))
    assert schedule.stable_until(1) == STABLE_FOREVER
    first = schedule.adjacency(1)
    assert schedule.adjacency(10_000) is first


@pytest.mark.parametrize("factory", [
    lambda: OverlapHandoffAdversary(16, 4, noise_edges=0, seed=2),
    lambda: OverlapHandoffAdversary(16, 4, noise_edges=2, seed=2),
    lambda: EdgeChurnAdversary(14, line_graph(14), dwell=4, seed=2),
    lambda: FreshSpanningAdversary(12, seed=2),
    lambda: RepairedMobilityAdversary(12, T=3, seed=2),
])
def test_stable_until_promise_holds(factory):
    """``edges(r')`` really is identical for r' in [r, stable_until(r)]."""
    schedule = factory()
    horizon = 20
    for r in range(1, horizon + 1):
        until = schedule.stable_until(r)
        assert until >= r
        ref = schedule.edges(r)
        for rp in range(r + 1, min(until, horizon) + 1):
            assert np.array_equal(schedule.edges(rp), ref), (
                f"stable_until({r})={until} but edges({rp}) differ")


# --------------------------------------------------------------------------
# bit-size cache eviction
# --------------------------------------------------------------------------

def test_bits_cache_evicts_oldest_quarter_not_everything():
    schedule = StaticAdversary(4, line_graph(4))
    nodes = [ExactCount(i) for i in range(4)]
    sim = Simulator(schedule, nodes, rng=RngRegistry(0))
    cap = sim._bits_cache_cap
    payloads = [("payload", i) for i in range(cap)]
    for p in payloads:
        sim._payload_bits(p)
    assert len(sim._bits_cache) == cap
    # One more insert triggers eviction of the oldest quarter only.
    overflow = ("payload", "overflow")
    sim._payload_bits(overflow)
    assert len(sim._bits_cache) == cap - cap // 4 + 1
    survivors = {entry[0] for entry in sim._bits_cache.values()}
    assert overflow in survivors
    assert payloads[-1] in survivors          # newest retained
    assert payloads[0] not in survivors       # oldest evicted


# --------------------------------------------------------------------------
# per-phase profiling surface
# --------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_profile_collects_phase_seconds(engine):
    def factory(s):
        return OverlapHandoffAdversary(12, 2, noise_edges=1, seed=s)

    schedule = factory(0)
    nodes = [ExactCount(i) for i in range(12)]
    with profiling():
        sim = Simulator(schedule, nodes, rng=RngRegistry(0), engine=engine)
    result = sim.run(max_rounds=1000, until="quiescent",
                     quiescence_window=16)
    phases = sim.phase_seconds
    assert phases is not None
    assert set(phases) == set(PHASES)
    assert all(seconds >= 0.0 for seconds in phases.values())
    # Wall-clock timings are not measured data.
    assert not any(k.startswith("phase.") for k in result.metrics.as_dict())


def test_profile_off_keeps_metrics_unannotated():
    schedule = StaticAdversary(6, line_graph(6))
    nodes = [ExactCount(i) for i in range(6)]
    sim = Simulator(schedule, nodes, rng=RngRegistry(0))
    result = sim.run(max_rounds=500, until="quiescent", quiescence_window=8)
    assert sim.phase_seconds is None
    assert not any(k.startswith("phase.") for k in result.metrics.as_dict())


def test_profile_flows_into_trial_result_rows():
    spec = TrialSpec(
        schedule="lowdiam_handoff", schedule_params={"n": 12, "T": 2},
        nodes="exact_count", node_params={"n": 12},
        max_rounds=1000, until="quiescent", quiescence_window=16)
    with profiling():
        result = run_trial(spec, 3)
    row = result.as_row()
    for name in PHASES:
        assert f"phase.{name}_s" in row
    assert set(result.telemetry) <= set(row)
    # Unprofiled rows carry no telemetry columns at all.
    unprofiled = run_trial(spec, 3)
    assert unprofiled.telemetry == {}
    assert unprofiled.as_row() == durable_row(row)


def test_worker_fold_counts_each_executed_row_once(tmp_path):
    """A profiled two-worker run returns ``phase.*`` / ``engine.*``
    columns on each executed row, a deduplicated cell shares its
    original's, a warm rerun's rows carry none, and the CLI's total
    ``[profile]`` line folds each executed cell once."""
    from repro.harness.cli import _render_profile

    cells = [(TrialSpec(
        schedule="lowdiam_handoff", schedule_params={"n": n, "T": 2},
        nodes="exact_count", node_params={"n": n},
        max_rounds=1000, until="quiescent", quiescence_window=16), seed)
        for n in (8, 10) for seed in (1, 2)]
    cells.append(cells[0])  # deduplicated: executes once
    executor = ParallelExecutor(workers=2, cache=str(tmp_path))
    with profiling():
        report = executor.run(cells)
        warm = executor.run(cells)
    assert report.executed == 4 and report.deduped == 1
    assert warm.executed == 0 and warm.cache_hits == 4
    assert report.rows[4] == report.rows[0]
    telemetry = ({f"phase.{name}_s" for name in PHASES}
                 | {f"engine.{tier}_rounds" for tier in ("batch", "reference")})
    executed = report.rows[:4]
    for row in executed:
        assert telemetry <= set(row)
        assert sum(row[f"engine.{tier}_rounds"]
                   for tier in ("batch", "reference")) == row["rounds"]
    assert not any(key.startswith(("phase.", "engine."))
                   for row in warm.rows for key in row)
    assert _render_profile(executed).startswith("[profile] 4 trials: ")
    assert _render_profile(warm.rows).startswith(
        "[profile] no trials executed")


def test_executor_strips_phase_columns_from_cache(tmp_path):
    """Wall-clock timings stay in in-memory rows but never in the
    content-addressed cache (rows must be deterministic per (spec, seed))."""
    spec = TrialSpec(
        schedule="lowdiam_handoff", schedule_params={"n": 10, "T": 2},
        nodes="exact_count", node_params={"n": 10},
        max_rounds=1000, until="quiescent", quiescence_window=16)
    with profiling():
        executor = ParallelExecutor(cache=str(tmp_path))
        report = executor.run([(spec, 7)])
        row = report.rows[0]
        for name in PHASES:
            assert f"phase.{name}_s" in row
        cached = executor.cache.get(spec.key(7))
        assert cached is not None
        assert not any(k.startswith("phase.") for k in cached)
    # A later unprofiled run served from the same cache stays clean.
    report2 = ParallelExecutor(cache=str(tmp_path)).run([(spec, 7)])
    assert report2.cache_hits == 1
    assert not any(k.startswith("phase.") for k in report2.rows[0])


# --------------------------------------------------------------------------
# baseline kernels: KLO and random token dissemination on the batch tier
# --------------------------------------------------------------------------

def _klo_spec(n, T, **params):
    return TrialSpec(
        schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
        nodes="klo_count", node_params={"n": n, **params},
        max_rounds=20000, until="halted")


def _token_spec(n, T):
    return TrialSpec(
        schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
        nodes="token_dissemination",
        node_params={"n": n, "known_count": True},
        max_rounds=40 * n + 400, until="decided")


def _run_baseline_tiers(spec, seed, loss_rate=0.0):
    """Run *spec* on every tier via direct Simulators (to read each
    run's tier split); returns ``{engine: (RunResult, tier_rounds)}``."""
    runs = {}
    for engine in ENGINES:
        schedule = spec.build_schedule(seed)
        nodes = spec.build_nodes(schedule, seed)
        sim = Simulator(schedule, nodes, rng=RngRegistry(seed),
                        loss_rate=loss_rate, engine=engine)
        result = sim.run(max_rounds=spec.max_rounds, until=spec.until)
        runs[engine] = (result, dict(sim.tier_rounds))
    return runs


BASELINE_CELLS = [
    # T3's guess-growth ablation values, plus a larger first guess.
    pytest.param(_klo_spec(10, 2, guess_growth=3), id="klo/growth=3"),
    pytest.param(_klo_spec(12, 2, guess_growth=4), id="klo/growth=4"),
    pytest.param(_klo_spec(9, 2, guess_growth=8), id="klo/growth=8"),
    pytest.param(_klo_spec(12, 4, initial_guess=4), id="klo/initial_guess=4"),
    pytest.param(_klo_spec(10, 4, initial_guess=3, guess_growth=3),
                 id="klo/initial_guess=3,growth=3"),
] + [
    pytest.param(_token_spec(n, T), id=f"token/n={n},T={T}")
    for n in (16, 33) for T in (2, 4)
]


@pytest.mark.parametrize("loss_rate", [0.0, 0.2])
@pytest.mark.parametrize("spec", BASELINE_CELLS)
def test_baseline_kernels_match_reference(spec, loss_rate):
    """The KLO and token kernels run every round on the batch tier and
    match the reference tier bit for bit, with and without loss."""
    n = spec.node_params["n"]
    runs = _run_baseline_tiers(spec, 3, loss_rate)
    ref, ref_tiers = runs["reference"]
    assert ref_tiers["reference"] == ref.rounds
    for engine in ENGINES[:-1]:
        _assert_run_results_equal(runs[engine][0], ref)
    batch, tiers = runs["fast"]
    assert tiers["batch"] == batch.rounds
    assert set(batch.outputs.values()) == {n}
    if loss_rate:
        assert batch.metrics.counters.get("messages_lost", 0) > 0


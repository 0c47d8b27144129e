"""Tier agreement on generated specs, not only on a hand-picked grid.

A Hypothesis strategy draws :class:`~repro.exec.specs.TrialSpec`\\ s from
the registered schedule and node builders — n, T, loss, seed, ``until``,
``quiescence_window``, the stop predicate or none, and a small
``max_rounds`` — and runs each spec under the default engine (the
population's batch kernel, else the reference loop) and under
``engine="reference"``.  The two runs must agree on:

* the :class:`~repro.simnet.engine.RunResult` (outputs, rounds, stop
  reason and every metric, ``max_broadcast_bits`` included);
* the recorded decide/retract/halt event streams;
* every node's final ``bit_generator.state``.

A run that raises :class:`~repro.errors.AlgorithmViolation` must raise
it under both engines with the same wording in the same round (node
state is not compared then; see :mod:`repro.simnet.batch`).

Tier 1 runs a derandomized profile of ``REPRO_FUZZ_EXAMPLES`` examples
(25 by default); ``make fuzz`` runs thousands with fresh randomness, and
Hypothesis shrinks any failure to a minimal spec.  Both also run the
pinned ``CONVERGED_TAILS`` examples, whose populations converge well
before the run ends, so the aggregate kernels' merge-free tail is
always compared, and the pinned ``SETTLING_KLO`` examples, which run
KLO to its halt, so phases of guess ``k >= 4`` settle and their
fold-free rounds are always compared.
"""

import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import AlgorithmViolation
from repro.exec import specs
from repro.exec.specs import TrialSpec
from repro.obs import Recorder
from repro.simnet import RngRegistry, Simulator
from repro.simnet.engine import select_tier

EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

_T = st.integers(min_value=1, max_value=4)
_NOISE = st.integers(min_value=0, max_value=3)


def _params(n, **draws):
    """``{"n": n, **drawn}`` with every strategy in *draws* drawn."""
    return st.fixed_dictionaries(draws).map(lambda p: {"n": n, **p})


#: Schedule builder -> ``n -> strategy of its params``.
SCHEDULES = {
    "lowdiam_handoff": lambda n: _params(n, T=_T),
    "overlap_handoff": lambda n: _params(n, T=_T, noise_edges=_NOISE),
    "fresh_spanning": lambda n: _params(n, noise_edges=_NOISE),
    "static": lambda n: _params(n, topology=st.sampled_from(
        ["line", "ring", "star", "complete", "random_tree", "expander"])),
    "static_ring_of_cliques": lambda n: _params(
        n, num_cliques=st.integers(min_value=2, max_value=n)),
    "static_line": lambda n: _params(n),
    "alternating_matchings": lambda n: _params(n),
    "repaired_mobility": lambda n: _params(n, T=_T),
    "windowed_throttle": lambda n: _params(n, T=_T),
    "cut_throttle": lambda n: _params(n),
    "edge_churn": lambda n: _params(
        n, tree_seed=st.integers(min_value=0, max_value=99)),
}

_BOUND = st.integers(min_value=1, max_value=12)

#: Node builder -> ``n -> strategy of its params``.
NODES = {
    "exact_count": lambda n: _params(
        n, initial_window=st.integers(min_value=1, max_value=4),
        window_growth=st.integers(min_value=2, max_value=3)),
    "exact_count_known_bound": lambda n: _params(n, rounds_bound=_BOUND),
    "approx_count_known_bound": lambda n: _params(
        n, rounds_bound=_BOUND, width=st.integers(min_value=2, max_value=10)),
    "approx_count": lambda n: _params(
        n, eps=st.sampled_from([0.25, 0.5]),
        delta=st.sampled_from([0.05, 0.2])),
    "hybrid_count": lambda n: _params(n),
    "klo_count": lambda n: _params(
        n, initial_guess=st.integers(min_value=1, max_value=2),
        guess_growth=st.integers(min_value=2, max_value=3)),
    "token_dissemination": lambda n: _params(n, known_count=st.booleans()),
    "sublinear_max_modvalue": lambda n: _params(
        n, mod=st.integers(min_value=1, max_value=50)),
    "sublinear_consensus": lambda n: _params(n),
    "pipelined_approx_count": lambda n: _params(
        n, words_per_message=st.integers(min_value=1, max_value=6),
        width=st.integers(min_value=2, max_value=12),
        strategy=st.sampled_from(["tdm", "greedy"])),
    "pipelined_exact_count": lambda n: _params(
        n, ids_per_message=st.integers(min_value=1, max_value=4)),
}


#: Node builder -> ``(node params, tier)``: the tier a fresh run of its
#: population takes.  Eight populations have a batch kernel; the other
#: three define no ``__batch_kernel__`` hook.
TIERS = {
    "exact_count": ({}, "batch"),
    "exact_count_known_bound": ({"rounds_bound": 4}, "batch"),
    "approx_count_known_bound": ({"rounds_bound": 4, "width": 4}, "batch"),
    "approx_count": ({}, "batch"),
    "klo_count": ({}, "batch"),
    "token_dissemination": ({}, "batch"),
    "sublinear_max_modvalue": ({}, "batch"),
    "pipelined_approx_count": ({}, "batch"),
    "hybrid_count": ({}, "reference"),
    "sublinear_consensus": ({}, "reference"),
    "pipelined_exact_count": ({}, "reference"),
}


def _builtin(table):
    """The builders :mod:`repro.exec.specs` itself registers in *table*."""
    return {name for name, fn in table.items()
            if fn.__module__ == specs.__name__}


def test_strategy_covers_every_builtin_builder():
    """A builder registered by :mod:`repro.exec.specs` cannot be left
    out of the generated specs."""
    assert _builtin(specs._SCHEDULES) == set(SCHEDULES)
    assert _builtin(specs._NODES) == set(NODES)


def test_every_builtin_builder_runs_on_its_pinned_tier():
    """Each builder's fresh population runs every round on its pinned
    tier.  The agreement checks still pass when a kernel silently
    declines, so this is what catches a population that drops to the
    reference tier."""
    assert set(TIERS) == _builtin(specs._NODES)
    n = 8
    for nodes, (params, tier) in sorted(TIERS.items()):
        spec = TrialSpec(schedule="lowdiam_handoff",
                         schedule_params={"n": n, "T": 2}, nodes=nodes,
                         node_params={"n": n, **params}, max_rounds=3,
                         until="halted", allow_timeout=True)
        schedule = spec.build_schedule(0)
        population = spec.build_nodes(schedule, 0)
        sim = Simulator(schedule, population, rng=RngRegistry(0))
        declined = [] if tier == "batch" else [
            ("batch", f"{type(population[0]).__name__} exposes no "
                      f"__batch_kernel__ hook")]
        assert select_tier(sim) == (tier, declined), nodes
        result = sim.run(max_rounds=spec.max_rounds, until=spec.until,
                         allow_timeout=True)
        assert sim.tier_rounds[tier] == result.rounds == 3, nodes


@st.composite
def trial_specs(draw):
    """``(spec, seed)`` over the registered builders."""
    n = draw(st.integers(min_value=6, max_value=14))
    schedule = draw(st.sampled_from(sorted(SCHEDULES)))
    nodes = draw(st.sampled_from(sorted(NODES)))
    node_params = draw(NODES[nodes](n))
    # The one registered predicate reads the progress vector, so it
    # applies to every population (it never fires where progress is 0).
    stop_when = draw(st.sampled_from([None, "dissemination_complete"]))
    spec = TrialSpec(
        schedule=schedule, schedule_params=draw(SCHEDULES[schedule](n)),
        nodes=nodes, node_params=node_params,
        max_rounds=draw(st.integers(min_value=1, max_value=40)),
        until=draw(st.sampled_from(["halted", "decided", "quiescent"])),
        quiescence_window=draw(st.integers(min_value=1, max_value=8)),
        loss_rate=draw(st.sampled_from([0.0, 0.0, 0.1, 0.4])),
        stop_when=stop_when, allow_timeout=True)
    return spec, draw(st.integers(min_value=0, max_value=2 ** 16))


def _tail(schedule, schedule_params, nodes, node_params, until, window,
          loss, seed, max_rounds=60):
    """A pinned ``(spec, seed)`` drawn as :func:`trial_specs` draws (a
    longer *max_rounds* aside)."""
    n = schedule_params["n"]
    return TrialSpec(
        schedule=schedule, schedule_params=schedule_params, nodes=nodes,
        node_params={"n": n, **node_params}, max_rounds=max_rounds,
        until=until, quiescence_window=window, loss_rate=loss,
        allow_timeout=True), seed


#: Specs whose populations converge (every row identical) rounds before
#: the run ends, so the aggregate kernels' merge-free tail always runs:
#: quiescent stops with windows longer than convergence, loss,
#: a halting bound, and window growth with retractions first.
CONVERGED_TAILS = [
    _tail("lowdiam_handoff", {"n": 12, "T": 2}, "exact_count", {},
          "quiescent", 20, 0.4, 7),
    _tail("overlap_handoff", {"n": 10, "T": 3, "noise_edges": 2},
          "approx_count", {"eps": 0.5, "delta": 0.2}, "quiescent", 8, 0.1, 3),
    _tail("static", {"n": 9, "topology": "ring"}, "sublinear_max_modvalue",
          {"mod": 7}, "quiescent", 12, 0.4, 3),
    _tail("fresh_spanning", {"n": 8, "noise_edges": 1},
          "pipelined_approx_count",
          {"words_per_message": 2, "width": 6, "strategy": "greedy"},
          "quiescent", 12, 0.1, 3),
    _tail("lowdiam_handoff", {"n": 10, "T": 1}, "approx_count_known_bound",
          {"rounds_bound": 20, "width": 4}, "halted", 1, 0.4, 3),
    _tail("static_line", {"n": 12}, "exact_count",
          {"initial_window": 1, "window_growth": 2}, "quiescent", 8, 0.4, 3),
]

#: KLO specs run to their halt (n=8 halts at round 288, guess 8), so
#: phases of guess ``k >= 4`` settle rounds before they end, with and
#: without loss, and with a guess growth of 3 and an initial guess of 2.
SETTLING_KLO = [
    _tail("lowdiam_handoff", {"n": 8, "T": 2}, "klo_count", {}, "halted",
          1, 0.0, 3, max_rounds=320),
    _tail("lowdiam_handoff", {"n": 8, "T": 2}, "klo_count", {}, "halted",
          1, 0.4, 5, max_rounds=320),
    _tail("overlap_handoff", {"n": 8, "T": 3, "noise_edges": 2},
          "klo_count", {"guess_growth": 3}, "halted", 1, 0.1, 2,
          max_rounds=320),
    _tail("fresh_spanning", {"n": 6, "noise_edges": 1}, "klo_count",
          {"initial_guess": 2}, "halted", 1, 0.4, 1, max_rounds=320),
]


def _outcome(spec, seed, engine):
    """Everything a run under *engine* shows of itself."""
    schedule = spec.build_schedule(seed)
    nodes = spec.build_nodes(schedule, seed)
    recorder = Recorder.in_memory()
    sim = Simulator(schedule, nodes, rng=RngRegistry(seed),
                    loss_rate=spec.loss_rate, engine=engine,
                    recorder=recorder)
    try:
        result = sim.run(max_rounds=spec.max_rounds, until=spec.until,
                         quiescence_window=spec.quiescence_window,
                         stop_when=spec.stop_predicate(),
                         allow_timeout=spec.allow_timeout)
    except AlgorithmViolation as exc:
        return {"violation": str(exc), "round": sim.round_index}
    return {
        "result": result,
        "decisions": [(e.round, e.node_id, e.action, repr(e.value))
                      for e in recorder.of_kind("decision")],
        "streams": [rng.bit_generator.state for rng in sim._node_rngs],
    }


@settings(max_examples=EXAMPLES, deadline=None,
          derandomize="REPRO_FUZZ_EXAMPLES" not in os.environ,
          suppress_health_check=[HealthCheck.too_slow])
@given(trial_specs())
def test_default_engine_agrees_with_reference(drawn):
    spec, seed = drawn
    fast = _outcome(spec, seed, "fast")
    reference = _outcome(spec, seed, "reference")
    if "result" in reference:
        assert fast["result"] == reference["result"]
        assert (fast["result"].metrics.max_broadcast_bits
                == reference["result"].metrics.max_broadcast_bits)
        assert fast["decisions"] == reference["decisions"]
        assert fast["streams"] == reference["streams"]
    else:
        assert fast == reference


for _drawn in CONVERGED_TAILS + SETTLING_KLO:
    test_default_engine_agrees_with_reference = example(_drawn)(
        test_default_engine_agrees_with_reference)


def test_pinned_tails_converge_before_the_run_ends(monkeypatch):
    """Each pinned spec reaches the converged path on its kernel, with
    rounds to spare; the window-growth spec retracts first."""
    from repro.simnet import batch

    converged_at = []
    converge = batch._AggregateKernel._converge
    rounds = []
    step = Simulator._step_inner

    def counting_step(sim):
        rounds.append(sim.round_index + 1)
        step(sim)

    def recording(kernel):
        converged_at.append(rounds[-1])
        converge(kernel)

    monkeypatch.setattr(Simulator, "_step_inner", counting_step)
    monkeypatch.setattr(batch._AggregateKernel, "_converge", recording)
    for spec, seed in CONVERGED_TAILS:
        converged_at.clear()
        result = _outcome(spec, seed, "fast")["result"]
        assert len(converged_at) == 1, spec
        assert result.rounds - converged_at[0] >= 5, spec
    assert result.metrics.counters["retractions"] > 0


def test_pinned_klo_phases_settle_before_they_end(monkeypatch):
    """Each pinned KLO spec halts with the exact count on the batch tier,
    and phases of guess ``k >= 4`` reach the settled path."""
    from repro.simnet import batch

    settled_k = []
    fixed_point = batch.KCommitteeBatchKernel._fixed_point

    def recording(kernel):
        settles = fixed_point(kernel)
        if settles:
            settled_k.append(kernel._k)
        return settles

    monkeypatch.setattr(batch.KCommitteeBatchKernel, "_fixed_point",
                        recording)
    for spec, seed in SETTLING_KLO:
        settled_k.clear()
        result = _outcome(spec, seed, "fast")["result"]
        assert result.stop_reason == "halted", spec
        assert set(result.outputs.values()) == {spec.node_params["n"]}
        assert max(settled_k) >= 4, spec


@pytest.mark.parametrize("nodes", ["token_dissemination", "exact_count",
                                   "pipelined_approx_count"])
def test_adaptive_specs_engage_the_batch_tier(nodes):
    """Adaptive schedules and stop predicates read the progress vector,
    so these populations run every round on their kernels."""
    spec = TrialSpec(
        schedule="windowed_throttle", schedule_params={"n": 10, "T": 2},
        nodes=nodes, node_params={"n": 10}, max_rounds=30,
        until="quiescent", quiescence_window=4, allow_timeout=True,
        stop_when=("dissemination_complete"
                   if nodes == "token_dissemination" else None))
    schedule = spec.build_schedule(1)
    sim = Simulator(schedule, spec.build_nodes(schedule, 1),
                    rng=RngRegistry(1))
    result = sim.run(max_rounds=spec.max_rounds, until=spec.until,
                     quiescence_window=spec.quiescence_window,
                     stop_when=spec.stop_predicate(), allow_timeout=True)
    assert sim.tier_rounds == {"batch": result.rounds, "reference": 0}

"""Property tests for the batch-kernel tier (:mod:`repro.simnet.batch`).

Three layers of evidence, in increasing integration order:

1. **Numeric helpers** — `int_payload_bits` / `segment_reduce`
   against their scalar Python definitions (Hypothesis
   where the domain is a plain value space, seeded random otherwise).
2. **BatchQuiescence** — the vectorised decide/retract state machine
   against a population of per-node
   :class:`~repro.core.termination.QuiescenceController` replicas driven
   by the same random change sequences.
3. **Kernel vs per-node fold** — every registered ``deliver_batch``
   kernel against the per-node ``deliver`` fold, driven through the
   engine on seeded-random explicit schedules that deliberately include
   empty rounds (every inbox empty) and isolated nodes (some inboxes
   empty); the batch tier must both *engage* and match bit-for-bit.

Also here: the numpy-scalar `bit_size` regression tests (kernels hand
``np.int64`` payloads to the accounting layer, which must cost them like
the equal Python ``int``), and the converged-population tests: the
aggregate kernels stop merging once every row is identical, and keep
merging quiet rounds whose rows still differ; and the settled-phase
tests: KLO rounds whose phase has reached its fixed point fold nothing.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.klo import KCommitteeCount, total_rounds_prediction
from repro.baselines.token import RandomTokenDissemination
from repro.core.approx_count import ApproxCount, ApproxCountKnownBound
from repro.core.exact_count import ExactCount, ExactCountKnownBound
from repro.core.max_compute import MaxKnownBound, SublinearMax
from repro.core.pipelining import PipelinedApproxCount
from repro.core.termination import QuiescenceController
from repro.dynamics import ExplicitSchedule
from repro.errors import AlgorithmViolation
from repro.exec.specs import TrialSpec
from repro.obs import Recorder
from repro.simnet import RngRegistry, Simulator
from repro.simnet.batch import (
    BatchContext,
    BatchQuiescence,
    KCommitteeBatchKernel,
    MinVectorBatchKernel,
    _AggregateKernel,
    _BoundedDraws,
    _DeliveryView,
    _distinct_rows,
    build_batch_kernel,
    int_payload_bits,
    popcount64,
    segment_reduce,
)
from repro.simnet.message import bit_size
from repro.simnet.node import RoundContext


# --------------------------------------------------------------------------
# numeric helpers
# --------------------------------------------------------------------------

BOUND = 2 ** 62 - 1  # kernel int-eligibility range: |v| < 2**62


@given(st.lists(st.integers(min_value=-BOUND, max_value=BOUND),
                min_size=1, max_size=64))
def test_int_payload_bits_matches_bit_size(values):
    got = int_payload_bits(np.array(values, dtype=np.int64))
    expected = [bit_size(v) for v in values]
    assert got.tolist() == expected


def _bit_length_edges():
    """Every bit-length boundary of int64: 0, ±1, ±(2**j - 1), ±2**j and
    ±(2**j + 1) for j < 63, and both extremes."""
    values = {0, 1, -1, -2 ** 63, 2 ** 63 - 1}
    for j in range(63):
        for v in (2 ** j - 1, 2 ** j, 2 ** j + 1):
            values.update((v, -v))
    return sorted(values)


def test_int_payload_bits_exact_at_every_bit_length_edge():
    values = _bit_length_edges()
    got = int_payload_bits(np.array(values, dtype=np.int64))
    assert got.tolist() == [bit_size(v) for v in values]


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_popcount64_matches_python_bit_count(value):
    got = popcount64(np.array([value], dtype=np.uint64))
    assert got.tolist() == [bin(value).count("1")]


def _random_csr(rng, n, max_degree=4):
    """Random receiver-grouped CSR (indptr, indices) with empty segments."""
    degrees = rng.integers(0, max_degree + 1, size=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = rng.integers(0, n, size=int(indptr[-1])).astype(np.int64)
    return indptr, indices


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("ufunc", [np.maximum, np.minimum, np.bitwise_or])
def test_segment_reduce_matches_naive_fold(seed, ufunc):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20))
    indptr, indices = _random_csr(rng, n)
    own = rng.integers(0, 1000, size=n).astype(np.int64)
    data = own[indices]  # message rows in receiver-grouped order

    expected = own.copy()
    for j in range(n):
        seg = data[indptr[j]:indptr[j + 1]]
        for row in seg:  # empty segment: receiver keeps its own state
            expected[j] = ufunc(expected[j], row)

    got = segment_reduce(ufunc, data, indptr, own.copy())
    assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("seed", range(8))
def test_segment_reduce_matches_naive_fold_2d(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 16))
    width = int(rng.integers(1, 5))
    indptr, indices = _random_csr(rng, n)
    own = rng.random((n, width))
    data = own[indices]

    expected = own.copy()
    for j in range(n):
        for row in data[indptr[j]:indptr[j + 1]]:
            expected[j] = np.minimum(expected[j], row)

    got = segment_reduce(np.minimum, data, indptr, own.copy())
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("inboxes", ["all_nonempty", "some_empty",
                                     "all_empty"])
@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("ufunc", [np.minimum, np.maximum])
def test_segment_reduce_branches_match_per_segment_loop(inboxes, width,
                                                        ufunc):
    """All three of segment_reduce's cases (every inbox non-empty, some
    empty, none non-empty) on 1-D and 2-D data."""
    rng = np.random.default_rng(7)
    n = 9
    low = {"all_nonempty": 1, "some_empty": 0, "all_empty": 0}[inboxes]
    high = 0 if inboxes == "all_empty" else 3
    degrees = rng.integers(low, high + 1, size=n)
    if inboxes == "some_empty":
        degrees[[0, 4]] = 0
        degrees[[1, 8]] = 2
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    shape = (int(indptr[-1]),) if width is None else (int(indptr[-1]), width)
    data = rng.integers(-50, 50, size=shape)
    own = rng.integers(-50, 50, size=(n,) + shape[1:])

    expected = own.copy()
    for j in range(n):
        for row in data[indptr[j]:indptr[j + 1]]:
            expected[j] = ufunc(expected[j], row)

    got = segment_reduce(ufunc, data, indptr, own.copy())
    assert np.array_equal(got, expected)


@given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.5, float("nan")]),
                         min_size=3, max_size=3), min_size=1, max_size=12))
def test_distinct_rows_groups_rows_byte_for_byte(rows):
    matrix = np.array(rows, dtype=np.float64)
    first, inverse = _distinct_rows(matrix)
    keys = [row.tobytes() for row in matrix]
    assert sorted(keys[f] for f in first.tolist()) == sorted(set(keys))
    assert all(keys.index(keys[f]) == f for f in first.tolist())
    for i, g in enumerate(inverse.tolist()):
        assert keys[i] == keys[first[g]]


# --------------------------------------------------------------------------
# numpy-scalar payload accounting (regression: kernels produce np.int64)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("value", [0, 1, -1, 5, -937, 2 ** 40, -(2 ** 40)])
def test_bit_size_numpy_int_matches_python_int(value):
    assert bit_size(np.int64(value)) == bit_size(value)
    if abs(value) < 2 ** 31:
        assert bit_size(np.int32(value)) == bit_size(value)


def test_bit_size_numpy_bool_and_float():
    assert bit_size(np.bool_(True)) == bit_size(True) == 1
    assert bit_size(np.bool_(False)) == bit_size(False) == 1
    assert bit_size(np.float64(3.25)) == bit_size(3.25) == 64
    assert bit_size(np.float32(3.25)) == 64


# --------------------------------------------------------------------------
# BatchQuiescence vs per-node QuiescenceController
# --------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=6),      # population size
       st.integers(min_value=1, max_value=4),      # initial window
       st.sampled_from([2, 3, 4]),                 # growth
       st.integers(min_value=0, max_value=2 ** 31 - 1))  # change-seq seed
@settings(max_examples=60, deadline=None)
def test_batch_quiescence_matches_controllers(n, window, growth, seq_seed):
    controllers = [QuiescenceController(window, growth) for _ in range(n)]
    batch = BatchQuiescence.from_controllers(controllers)
    assert batch is not None
    rng = np.random.default_rng(seq_seed)
    for _ in range(40):
        changed = rng.random(n) < 0.4
        decide, retract = batch.observe(changed)
        for i, ctl in enumerate(controllers):
            verdict = ctl.observe(bool(changed[i]))
            assert bool(decide[i]) == (verdict == "decide")
            assert bool(retract[i]) == (verdict == "retract")
    # restore() must write the final scalar state back verbatim.
    replicas = [QuiescenceController(window, growth) for _ in range(n)]
    batch.restore(replicas)
    for ctl, rep in zip(controllers, replicas):
        assert (rep.window, rep.quiet_streak, rep.holding,
                rep.retraction_count) == (ctl.window, ctl.quiet_streak,
                                          ctl.holding, ctl.retraction_count)


def test_batch_quiescence_rejects_mixed_growth():
    controllers = [QuiescenceController(1, 2), QuiescenceController(1, 4)]
    assert BatchQuiescence.from_controllers(controllers) is None


# --------------------------------------------------------------------------
# kernel deliver vs per-node deliver fold (engine-driven property test)
# --------------------------------------------------------------------------

def _random_rounds(seed, n, horizon=12):
    """Seeded-random per-round edge lists with adversarial edge cases:
    at least one fully empty round (every inbox empty) and rounds where
    node 0 is isolated (its inbox empty while others fold messages)."""
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(horizon):
        if r % 5 == 1:
            rounds.append([])  # empty graph: all inboxes empty
            continue
        lo = 1 if r % 3 == 0 else 0  # r%3==0: node 0 isolated
        count = int(rng.integers(1, 2 * n))
        edges = set()
        for _ in range(count):
            u = int(rng.integers(lo, n))
            v = int(rng.integers(lo, n))
            if u != v:
                edges.add((min(u, v), max(u, v)))
        rounds.append(sorted(edges))
    return rounds


BOUND_ROUNDS = 30

KERNEL_POPULATIONS = [
    ("sublinear_max", lambda n: [
        SublinearMax(i, value=(i * 7919) % 65537) for i in range(n)]),
    ("max_known_bound", lambda n: [
        MaxKnownBound(i, value=(i * 7919) % 65537, rounds_bound=BOUND_ROUNDS)
        for i in range(n)]),
    ("exact_count", lambda n: [ExactCount(i) for i in range(n)]),
    ("exact_count_known_bound", lambda n: [
        ExactCountKnownBound(i, BOUND_ROUNDS) for i in range(n)]),
    ("approx_count", lambda n: [
        ApproxCount(i, width=8) for i in range(n)]),
    ("approx_count_known_bound", lambda n: [
        ApproxCountKnownBound(i, BOUND_ROUNDS, width=8) for i in range(n)]),
    # The folklore known-N flood: the known-bound Max halting at N-1.
    ("flood_max", lambda n: [
        MaxKnownBound(i, value=(i * 104729) % 9973, rounds_bound=n - 1)
        for i in range(n)]),
    ("pipelined_approx_count/tdm", lambda n: [
        PipelinedApproxCount(i, words_per_message=3, width=8)
        for i in range(n)]),
    ("pipelined_approx_count/greedy", lambda n: [
        PipelinedApproxCount(i, words_per_message=5, width=9,
                             strategy="greedy")
        for i in range(n)]),
]


def _run(label, factory, seed, engine):
    n = 10
    schedule = ExplicitSchedule(n, _random_rounds(seed, n), cycle=True,
                                interval=None)
    nodes = factory(n)
    sim = Simulator(schedule, nodes, rng=RngRegistry(seed), engine=engine)
    until = ("halted" if "known_bound" in label or label.startswith("flood_")
             else "quiescent")
    result = sim.run(max_rounds=120, until=until, quiescence_window=8,
                     allow_timeout=True)
    return sim, result


@pytest.mark.parametrize("label,factory", KERNEL_POPULATIONS,
                         ids=[label for label, _ in KERNEL_POPULATIONS])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kernel_deliver_matches_per_node_fold(label, factory, seed):
    """Random CSR segments (incl. empty inboxes): each deliver_batch
    kernel is bit-identical to the per-node deliver fold."""
    sim_batch, batch = _run(label, factory, seed, "fast")
    assert sim_batch.tier_rounds["batch"] > 0, "kernel never engaged"
    _, ref = _run(label, factory, seed, "reference")
    assert batch == ref


@pytest.mark.parametrize("seed", [0, 1])
def test_fold_matches_with_all_halted_neighbours(seed):
    """All-halted-neighbours edge: staggered halt bounds mean late rounds
    deliver into inboxes whose senders are all halted.  The kernel
    builder must decline the non-uniform bound (halting must stay
    population-wide atomic on the batch tier) and every tier must agree."""
    def factory(n):
        return [MaxKnownBound(i, value=(i * 31) % 997,
                              rounds_bound=6 if i % 2 else BOUND_ROUNDS)
                for i in range(n)]

    results = {}
    for engine in ("fast", "reference"):
        sim, results[engine] = _run("flood_max_staggered", factory, seed,
                                    engine)
        if engine == "fast":
            assert sim.tier_rounds["batch"] == 0  # non-uniform bound
    assert results["fast"] == results["reference"]


@pytest.mark.parametrize("label,factory", KERNEL_POPULATIONS[:6],
                         ids=[label for label, _ in KERNEL_POPULATIONS[:6]])
def test_finalize_restores_node_state_across_split_runs(label, factory):
    """Stopping a batch run and resuming it (two ``run()`` calls) must
    equal one reference run split alike: ``finalize`` has to write the
    kernel arrays back into the node objects verbatim at every exit, and
    the second ``run()``, which starts mid-run, runs on the reference
    tier."""
    seed = 5
    n = 10

    def fresh(engine, recorder=None):
        schedule = ExplicitSchedule(n, _random_rounds(seed, n), cycle=True,
                                    interval=None)
        return Simulator(schedule, factory(n), rng=RngRegistry(seed),
                         engine=engine, recorder=recorder)

    recorder = Recorder.in_memory()
    sim_split = fresh("fast", recorder)
    sim_split.run(max_rounds=7, until="halted", allow_timeout=True)
    split = sim_split.run(max_rounds=60, until="halted", allow_timeout=True)

    sim_whole = fresh("reference")
    sim_whole.run(max_rounds=7, until="halted", allow_timeout=True)
    whole = sim_whole.run(max_rounds=60, until="halted", allow_timeout=True)

    assert sim_split.tier_rounds == {"batch": 7,
                                     "reference": split.rounds - 7}
    assert _select_events(recorder) == [
        ("batch", "population batch kernel engaged"),
        ("reference", _mid_run_reason(7))]
    assert split.outputs == whole.outputs
    assert split.rounds == whole.rounds
    assert split.stop_reason == whole.stop_reason
    assert split.metrics == whole.metrics


def _mid_run_reason(rounds):
    """Why a ``run()`` that starts after *rounds* rounds skips the batch
    tier."""
    return (f"population has run {rounds} rounds already (kernels start "
            f"only before round 1)")


def _select_events(recorder):
    """``(tier, reason)`` of every ``engine_tier`` select event."""
    return [(e.tier, e.reason) for e in recorder.of_kind("engine_tier")
            if e.action == "select"]


def test_build_batch_kernel_declines_prehalted_population():
    nodes = [MaxKnownBound(i, value=i, rounds_bound=5) for i in range(4)]
    nodes[2].halt()
    assert build_batch_kernel(nodes) == (
        None, "population already contains halted nodes")


def test_build_batch_kernel_declines_plain_algorithms():
    from repro.simnet.node import Algorithm

    class Plain(Algorithm):
        def compose(self, ctx):
            return None

        def deliver(self, ctx, inbox):
            self.mark_changed(False)

    assert build_batch_kernel([Plain(i) for i in range(3)]) == (
        None, "Plain exposes no __batch_kernel__ hook")


def _tier_select(nodes, engine="fast"):
    """Run *nodes* on a static line; return the result, the simulator
    and the run's ``engine_tier`` select event."""
    from repro.dynamics import StaticAdversary, line_graph
    n = len(nodes)
    recorder = Recorder.in_memory()
    sim = Simulator(StaticAdversary(n, line_graph(n)), nodes,
                    rng=RngRegistry(0), engine=engine, recorder=recorder)
    result = sim.run(max_rounds=200, until="quiescent",
                     quiescence_window=8)
    (select,) = [e for e in recorder.of_kind("engine_tier")
                 if e.action == "select"]
    return result, sim, select


def test_subclass_never_inherits_its_parents_kernel():
    """A subclass may change the semantics, so it runs on the reference
    tier even when its parent has a kernel: the hook is read from the
    class's own ``__dict__``."""
    class LoudExactCount(ExactCount):
        def deliver(self, ctx, inbox):
            super().deliver(ctx, inbox)
            ctx.incr("loud.deliveries")

    nodes = [LoudExactCount(i) for i in range(6)]
    reason = "LoudExactCount exposes no __batch_kernel__ hook"
    assert build_batch_kernel(nodes) == (None, reason)
    result, sim, select = _tier_select(nodes)
    assert sim.tier_rounds["batch"] == 0
    assert select.tier == "reference"
    assert select.declined == [{"tier": "batch", "reason": reason}]
    assert result.unanimous_output() == 6
    assert result.metrics.counters["loud.deliveries"] == 6 * result.rounds


def test_build_batch_kernel_declines_undrained_events():
    """A ``decide()`` made before ``run()`` is an undrained lifecycle
    event: the batch tier declines the population and the reference
    tier surfaces the event in round 1, as it does under
    ``engine="reference"``."""
    def population():
        nodes = [ExactCount(i) for i in range(6)]
        nodes[2].decide(99)
        return nodes

    reason = "population holds lifecycle events made outside a round"
    assert build_batch_kernel(population()) == (None, reason)
    fast, sim, select = _tier_select(population())
    assert sim.tier_rounds["batch"] == 0
    assert select.tier == "reference"
    assert select.declined == [{"tier": "batch", "reason": reason}]
    reference, _, _ = _tier_select(population(), engine="reference")
    assert fast == reference
    assert fast.outputs == {i: 99 if i == 2 else 6 for i in range(6)}


# --------------------------------------------------------------------------
# baseline kernels (KLO, random token dissemination): per-round fold
# --------------------------------------------------------------------------

def _scattered_ids(n):
    """Distinct ids whose order differs from the node-index order."""
    return [(37 * i + 5) % 101 for i in range(n)]


def _fold_outcome(step):
    """Run *step*; return ``None`` or the raised violation's wording."""
    try:
        step()
    except AlgorithmViolation as exc:
        return str(exc)
    return None


def _assert_kernel_folds_per_round(factory, seed, rounds=60, schedule=None):
    """Step a batch kernel and a per-node population side by side on a
    schedule (default: seeded-random, with empty rounds and isolated
    nodes) and compare every round: who sends, each payload's bit cost,
    every node's changed flag, and the decide/halt events.  A violation
    must be raised by both, with the same wording, in the same round.
    A kernel that retires (KLO's epoch position splitting) stops the
    comparison after that round, once the state it writes back equals
    the per-node population's.  Returns how the run ended:
    ``"violation"``, ``"halted"``, ``"retired"`` or ``"running"``."""
    if schedule is None:
        schedule = ExplicitSchedule(10, _random_rounds(seed, 10),
                                    cycle=True, interval=None)
    n = schedule.num_nodes
    nodes, mirror = factory(n), factory(n)
    kernel, reason = build_batch_kernel(mirror)
    assert kernel is not None, reason
    rngs = RngRegistry(seed)
    node_rngs = [rngs.for_node("node", node.node_id) for node in nodes]
    kernel_rngs = RngRegistry(seed)
    ctx = BatchContext(0, [kernel_rngs.for_node("node", node.node_id)
                           for node in mirror], lambda *a: None)
    for r in range(1, rounds + 1):
        ctx.round_index = r
        payloads = [node.compose(RoundContext(r, node_rngs[i],
                                              lambda *a: None))
                    for i, node in enumerate(nodes)]
        sends, bits = kernel.compose(ctx)
        sends = [True] * n if sends is None else sends.tolist()
        assert sends == [p is not None for p in payloads], f"round {r}"
        for i, payload in enumerate(payloads):
            if payload is not None:
                assert bits[i] == bit_size(payload), f"round {r}"
        csr = schedule.adjacency(r)

        def per_node():
            for j, node in enumerate(nodes):
                row = csr.indices[csr.indptr[j]:csr.indptr[j + 1]]
                inbox = [payloads[s] for s in row.tolist()
                         if payloads[s] is not None]
                node.deliver(RoundContext(r, node_rngs[j], None), inbox)

        result = {}

        def batched():
            result["events"] = kernel.deliver(ctx, csr, None)[1]

        expected = _fold_outcome(per_node)
        assert _fold_outcome(batched) == expected, f"round {r}"
        if expected is not None:
            return "violation"
        assert kernel.changed_last.tolist() == [
            node.state_changed for node in nodes], f"round {r}"
        want = sorted((event[0], i, event[1] if len(event) > 1 else None)
                      for i, node in enumerate(nodes)
                      for event in node._drain_events())
        assert sorted(result["events"]) == want, f"round {r}"
        if any(node.halted for node in nodes):
            return "halted"
        if kernel._retire_reason is not None:
            kernel.finalize(mirror)
            assert [vars(node) for node in mirror] == [
                vars(node) for node in nodes], f"round {r}"
            return "retired"
    return "running"


@pytest.mark.parametrize("seed", range(6))
def test_token_kernel_folds_per_round(seed):
    _assert_kernel_folds_per_round(
        lambda n: [RandomTokenDissemination(i, target_count=n)
                   for i in _scattered_ids(n)], seed)


@pytest.mark.parametrize("growth", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_klo_kernel_folds_per_round(seed, growth):
    """Sparse random graphs break KLO's connectivity promise, so runs
    also end in a split epoch position (the kernel retires) or a
    dissemination violation."""
    _assert_kernel_folds_per_round(
        lambda n: [KCommitteeCount(i, guess_growth=growth)
                   for i in _scattered_ids(n)], seed, rounds=150)


@pytest.mark.parametrize("params", [
    [{"initial_guess": 1}, {"initial_guess": 2}],
    [{"guess_growth": 2}, {"guess_growth": 3}],
])
def test_klo_kernel_declines_mixed_guess_parameters(params):
    from repro.dynamics import StaticAdversary, line_graph
    n = 6
    nodes = [KCommitteeCount(i, **params[i % 2]) for i in range(n)]
    kernel, reason = build_batch_kernel(nodes)
    assert kernel is None
    assert reason.startswith("KCommitteeCount.__batch_kernel__ declined")
    recorder = Recorder.in_memory()
    sim = Simulator(StaticAdversary(n, line_graph(n)), nodes,
                    rng=RngRegistry(0), engine="fast", recorder=recorder)
    sim.run(max_rounds=4, until="halted", allow_timeout=True)
    assert sim.tier_rounds["batch"] == 0
    (select,) = [e for e in recorder.of_kind("engine_tier")
                 if e.action == "select"]
    assert select.tier == "reference"
    assert select.declined == [{"tier": "batch", "reason": reason}]


@pytest.mark.parametrize("late_edges,wording,at_round", [
    # Node 1 hears its leader's count 2 and the singleton's count 1.
    ([(0, 1), (1, 2)], "node 1: conflicting counts 2 vs 1", 7),
    # Node 1 never hears its leader's count.
    ([], "node 1: dissemination ended without a count (k=1)", 9),
])
def test_klo_kernel_raises_per_node_violations(late_edges, wording,
                                               at_round):
    """With k=1, nodes 0 and 1 form one committee while node 2 stays
    isolated and forms another; both verify clean, so dissemination
    carries two counts (or none) and must raise as the per-node fold."""
    rounds = [[(0, 1)]] * 6 + [late_edges] * 3
    schedule = ExplicitSchedule(3, rounds, interval=None)
    factory = lambda n: [KCommitteeCount(i) for i in range(n)]  # noqa: E731
    assert _assert_kernel_folds_per_round(
        factory, 0, rounds=9, schedule=schedule) == "violation"
    sim = Simulator(ExplicitSchedule(3, rounds, interval=None), factory(3),
                    rng=RngRegistry(0), engine="fast")
    with pytest.raises(AlgorithmViolation, match=re.escape(wording)):
        sim.run(max_rounds=9)
    assert sim.tier_rounds["batch"] == sim.round_index == at_round


def _klo_split_rounds(k, variant):
    """Per-round edges for six KLO nodes with initial guess *k*.

    Through the cycles only nodes 0 and 1 meet, so they form one
    committee and nodes 2–5 singletons.  In verification nodes 3–5 meet
    and end it polluted, restarting with a grown guess, while 0, 1 and
    the isolated 2 stay clean and disseminate for ``k + 2`` rounds.
    Dissemination then either ends cleanly (``"halts"``, with an edge
    between the clean node 1 and the restarted node 3), carries two
    counts to node 1 (``"conflict"``), or never reaches it
    (``"no_count"``)."""
    dissemination = {
        "halts": [(0, 1), (1, 3), (3, 4), (4, 5)],
        "conflict": [(0, 1), (1, 2), (3, 4), (4, 5)],
        "no_count": [(3, 4), (4, 5)],
    }[variant]
    return ([[(0, 1)]] * (3 * k * k)
            + [[(0, 1), (3, 4), (4, 5)]] * (k + 2)
            + [dissemination] * (k + 2)
            + [[(0, 1), (3, 4), (4, 5)]] * 4)


#: The reason a KLO kernel retires when its epoch position splits.
KLO_SPLIT_REASON = ("verification ended with only some nodes polluted: "
                    "the KLO epoch position split")


@pytest.mark.parametrize("k", [1, 32])
@pytest.mark.parametrize("variant", ["halts", "conflict", "no_count"])
def test_klo_tiers_agree_through_split_epoch_positions(k, variant):
    """Clean nodes disseminate while polluted ones restart: the batch
    kernel, which holds one epoch position, retires after the round
    verification ends, writing both positions back, and the reference
    tier runs the rest.  The run agrees with ``engine="reference"`` on
    the result or the violation's wording and round, and on every node's
    final ``(k, epoch round)``; a recorded run emits one ``fallback``
    event naming the split."""
    rounds = _klo_split_rounds(k, variant)
    split_round = 3 * k * k + k + 2  # verification's last round

    def run(engine, recorder=None):
        nodes = [KCommitteeCount(i, initial_guess=k)
                 for i in _scattered_ids(6)]
        sim = Simulator(ExplicitSchedule(6, rounds, interval=None), nodes,
                        rng=RngRegistry(3), engine=engine, recorder=recorder)
        try:
            outcome = sim.run(max_rounds=len(rounds), until="halted",
                              allow_timeout=True)
        except AlgorithmViolation as exc:
            outcome = str(exc)
        positions = [(node.k, node._epoch_round) for node in nodes]
        return sim, (outcome, sim.round_index, positions)

    recorder = Recorder.in_memory()
    sim, batch = run("fast", recorder)
    assert run("reference")[1] == batch
    assert run("fast")[1] == batch  # the recorder changes nothing
    outcome = batch[0]
    if variant == "halts":
        assert outcome.outputs == {5: 2, 42: 2, 79: 1}
    else:
        assert outcome == {
            "conflict": "node 42: conflicting counts 2 vs 1",
            "no_count": ("node 42: dissemination ended without a count "
                         f"(k={k})"),
        }[variant]
    assert sim.tier_rounds == {"batch": split_round,
                               "reference": sim.round_index - split_round}
    (fallback,) = [e for e in recorder.of_kind("engine_tier")
                   if e.action == "fallback"]
    assert (fallback.round, fallback.tier, fallback.reason) == (
        split_round, "reference", KLO_SPLIT_REASON)
    assert fallback.declined == [{"tier": "batch",
                                  "reason": KLO_SPLIT_REASON}]


@pytest.mark.parametrize("cut", [1, 5, 11, 23, 32])
@pytest.mark.parametrize("factory", [
    lambda n: [KCommitteeCount(i) for i in _scattered_ids(n)],
    lambda n: [RandomTokenDissemination(i, target_count=n)
               for i in _scattered_ids(n)],
], ids=["klo", "token"])
def test_baseline_kernels_resume_split_runs(factory, cut):
    """A batch run cut after *cut* rounds and resumed equals the
    reference tier's run split alike: the first ``run()`` writes its
    state back (mid-epoch for KLO), and the second, which starts
    mid-run, runs on the reference tier from that state."""
    from repro.dynamics import OverlapHandoffAdversary

    n = 9

    def run(engine, recorder=None):
        sim = Simulator(OverlapHandoffAdversary(n, 2, noise_edges=1, seed=4),
                        factory(n), rng=RngRegistry(4), engine=engine,
                        recorder=recorder)
        sim.run(max_rounds=cut, until="halted", allow_timeout=True)
        return sim, sim.run(max_rounds=2000, until="halted",
                            allow_timeout=True)

    recorder = Recorder.in_memory()
    split_sim, split = run("fast", recorder)
    _, whole = run("reference")
    assert split_sim.tier_rounds == {"batch": cut,
                                     "reference": split.rounds - cut}
    assert _select_events(recorder)[1] == ("reference", _mid_run_reason(cut))
    assert split == whole


def test_token_tiers_agree_after_direct_token_updates():
    """Tokens added straight to ``tokens`` before ``run()`` are state
    other than a node's own token, so the kernel declines them and the
    run equals ``engine="reference"``, down to every node's RNG
    stream."""
    from repro.dynamics import OverlapHandoffAdversary

    n = 9

    def run(engine):
        nodes = [RandomTokenDissemination(i, target_count=n)
                 for i in range(n)]
        for i, node in enumerate(nodes):
            node.tokens.update({(i + 3) % n, (i + 5) % n})
        sim = Simulator(OverlapHandoffAdversary(n, 2, noise_edges=1, seed=4),
                        nodes, rng=RngRegistry(4), engine=engine)
        result = sim.run(max_rounds=2000, until="decided")
        # Every node stream ends where the per-node draws leave it.
        states = [rng.bit_generator.state for rng in sim._node_rngs]
        return sim, result, [sorted(node.tokens) for node in nodes], states

    batch_sim, *batch = run("fast")
    assert batch_sim.tier_rounds == {"batch": 0,
                                     "reference": batch[0].rounds}
    nodes = [RandomTokenDissemination(i, target_count=n) for i in range(n)]
    assert build_batch_kernel(nodes)[0] is not None
    nodes[4].tokens.add(0)
    assert build_batch_kernel(nodes) == (None, (
        "RandomTokenDissemination.__batch_kernel__ declined the population "
        "(state other than before round 1, or parameters it cannot share)"))
    assert run("reference")[1:] == tuple(batch)


#: Bounds with no rejections (1 takes no word at all, 2 and 2**32 are
#: powers of two), about 50% rejections (2**31 + 1), and the edge of
#: the 32-bit path (2**32 - 1), mixed with small odd and even counts.
_DRAW_BOUNDS = st.sampled_from([1, 2, 3, 6, 7, 128, 2 ** 31 + 1,
                                2 ** 32 - 1, 2 ** 32])


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2 ** 32 - 1),
                          st.integers(min_value=0, max_value=2)),
                min_size=1, max_size=5),          # (seed, pre-drawn words)
       st.integers(min_value=1, max_value=8),     # block size
       st.data())
@settings(max_examples=150, deadline=None)
def test_bounded_draws_match_per_node_integers(streams, block, data):
    """The token kernel's vectorised draws equal ``integers(0, c)``
    called node by node, and ``restore`` leaves every stream exactly
    where those calls do (including PCG64's buffered half-word)."""
    def generators():
        rngs = [np.random.default_rng(seed) for seed, _ in streams]
        for rng, (_, pre) in zip(rngs, streams):
            rng.integers(0, 1 << 32, size=pre, dtype=np.uint32)
        return rngs

    per_node, batched = generators(), generators()
    draws = _BoundedDraws(batched, block=block)
    n = len(streams)
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        counts = data.draw(st.lists(_DRAW_BOUNDS, min_size=n, max_size=n))
        expected = [int(rng.integers(0, c))
                    for rng, c in zip(per_node, counts)]
        got = draws.draw(np.array(counts, dtype=np.int64))
        assert got.tolist() == expected
    draws.restore()
    for a, b in zip(per_node, batched):
        assert a.bit_generator.state == b.bit_generator.state
        assert a.integers(0, 2 ** 40) == b.integers(0, 2 ** 40)


# --------------------------------------------------------------------------
# lazy node streams, shared write-back, one-pass decide values
# --------------------------------------------------------------------------

def _node_streams_built(sim):
    """How many ``"node"`` generators the run's registry has created."""
    return sum(name == "node" for name, _ in sim.rng._cache)


@pytest.mark.parametrize("factory,until", [
    pytest.param(lambda n: [ExactCount(i) for i in _scattered_ids(n)],
                 "quiescent", id="exact_count"),
    pytest.param(lambda n: [ExactCountKnownBound(i, BOUND_ROUNDS)
                            for i in _scattered_ids(n)],
                 "halted", id="exact_count_known_bound"),
    pytest.param(lambda n: [KCommitteeCount(i) for i in _scattered_ids(n)],
                 "halted", id="klo_count"),
])
def test_non_drawing_batch_runs_build_no_streams_or_contexts(factory, until):
    """Kernels that never draw leave every node stream unbuilt (and build
    no round context), while the reference tier builds every stream."""
    from repro.dynamics import OverlapHandoffAdversary

    n = 12

    def run(engine):
        sim = Simulator(OverlapHandoffAdversary(n, 2, noise_edges=1, seed=2),
                        factory(n), rng=RngRegistry(2), engine=engine)
        result = sim.run(max_rounds=4000, until=until, quiescence_window=8)
        return sim, result

    batch_sim, batch = run("fast")
    assert batch_sim.tier_rounds["batch"] == batch.rounds
    assert set(batch.outputs.values()) == {n}
    assert _node_streams_built(batch_sim) == 0
    per_node_sim, per_node = run("reference")
    assert per_node == batch
    assert _node_streams_built(per_node_sim) == n


def _klo_fallback_run(engine):
    """The split KLO epoch of :func:`_klo_split_rounds`: the clean
    committee halts mid-run while the restarted nodes go on, so the batch
    tier hands the rest of the run to the reference tier."""
    rounds = _klo_split_rounds(1, "halts")
    nodes = [KCommitteeCount(i) for i in _scattered_ids(6)]
    sim = Simulator(ExplicitSchedule(6, rounds, interval=None), nodes,
                    rng=RngRegistry(3), engine=engine)
    return sim, sim.run(max_rounds=len(rounds), until="halted",
                        allow_timeout=True)


def _approx_fallback_run(engine):
    """A drawing kernel: every node draws its sketch on the batch tier,
    then the population halts at its bound and the kernel retires."""
    n = 10
    schedule = ExplicitSchedule(n, _random_rounds(4, n), cycle=True,
                                interval=None)
    nodes = [ApproxCountKnownBound(i, BOUND_ROUNDS, width=8)
             for i in _scattered_ids(n)]
    sim = Simulator(schedule, nodes, rng=RngRegistry(4), engine=engine)
    return sim, sim.run(max_rounds=120, until="halted")


@pytest.mark.parametrize("run", [_klo_fallback_run, _approx_fallback_run],
                         ids=["klo_split", "approx_known_bound"])
def test_runs_leaving_the_batch_tier_match_per_node_tiers(run):
    """A halt retires the kernel (``deactivate_batch``); the run still
    equals the reference tier's, and every node's stream ends in the same
    state, whether it was built by a kernel's draw, by a reference round
    after the fall-back, or only now by reading it."""
    def outcome(engine):
        sim, result = run(engine)
        states = [rng.bit_generator.state for rng in sim._node_rngs]
        return sim, (result, states)

    batch_sim, batch = outcome("fast")
    assert batch_sim.tier_rounds["batch"] > 0
    assert batch_sim._tier == "reference"  # the kernel retired
    assert outcome("reference")[1] == batch
    if run is _klo_fallback_run:
        assert batch_sim.tier_rounds["reference"] > 0  # left mid-run


@pytest.mark.parametrize("cut", [1, 2, 3, 60])
def test_idset_write_back_matches_per_node_frozensets(cut):
    """After *cut* rounds every node holds a frozenset equal to the one
    the per-node path gives it; equal rows share one frozenset."""
    n = 10

    def run(engine):
        schedule = ExplicitSchedule(n, _random_rounds(6, n), cycle=True,
                                    interval=None)
        nodes = [ExactCount(i) for i in _scattered_ids(n)]
        sim = Simulator(schedule, nodes, rng=RngRegistry(6), engine=engine)
        sim.run(max_rounds=cut, until="quiescent", quiescence_window=8,
                allow_timeout=True)
        return sim, nodes

    batch_sim, batch = run("fast")
    assert batch_sim.tier_rounds["batch"] > 0
    _, per_node = run("reference")
    for mine, theirs in zip(batch, per_node):
        assert type(mine.state) is frozenset
        assert mine.state == theirs.state
    distinct = {node.state for node in batch}
    assert len({id(node.state) for node in batch}) == len(distinct)
    if cut == 60:
        assert distinct == {frozenset(_scattered_ids(n))}


def test_sketch_decide_values_estimate_once_per_distinct_row(monkeypatch):
    """A converged min-vector population decides with one ``estimate``
    call in all, and decides the per-node path's floats."""
    from repro.core.sketches import ExponentialCountSketch

    calls = []
    estimate = ExponentialCountSketch.estimate

    def counting_estimate(self, minima):
        calls.append(1)
        return estimate(self, minima)

    def run(engine):
        n = 10
        schedule = ExplicitSchedule(n, _random_rounds(4, n), cycle=True,
                                    interval=None)
        nodes = [ApproxCountKnownBound(i, BOUND_ROUNDS, width=8)
                 for i in range(n)]
        sim = Simulator(schedule, nodes, rng=RngRegistry(4), engine=engine)
        return sim.run(max_rounds=120, until="halted")

    per_node = run("reference")
    monkeypatch.setattr(ExponentialCountSketch, "estimate",
                        counting_estimate)
    batch = run("fast")
    assert len(set(batch.outputs.values())) == 1  # converged
    assert len(calls) == 1
    assert batch == per_node


def test_mixed_sketch_families_stay_per_node():
    """The decide values use one sketch's ``estimate``, so a population
    mixing sketch families is left to the reference tier."""
    nodes = [ApproxCount(i, width=8, family="geometric" if i else
                         "exponential") for i in range(4)]
    kernel, reason = build_batch_kernel(nodes)
    assert kernel is None and "declined" in reason


# --------------------------------------------------------------------------
# converged populations stop merging
# --------------------------------------------------------------------------

#: ``(label, node builder, its params, until)`` for every aggregate
#: kernel family, run on a population that converges well before the
#: run ends.
CONVERGING = [
    ("exact_count", "exact_count", {}, "quiescent"),
    ("approx_count", "approx_count", {}, "quiescent"),
    ("pipelined_approx_count/tdm", "pipelined_approx_count",
     {"words_per_message": 3, "width": 12, "strategy": "tdm"}, "quiescent"),
    ("pipelined_approx_count/greedy", "pipelined_approx_count",
     {"words_per_message": 5, "width": 12, "strategy": "greedy"},
     "quiescent"),
    ("sublinear_max_modvalue", "sublinear_max_modvalue", {}, "quiescent"),
    ("exact_count_known_bound", "exact_count_known_bound",
     {"rounds_bound": 70}, "halted"),
    ("approx_count_known_bound", "approx_count_known_bound",
     {"rounds_bound": 70, "width": 8}, "halted"),
]


def _identical_rows(kernel):
    """Every state row equals row 0 byte for byte (not via the hook)."""
    raw = np.ascontiguousarray(kernel._rows).view(np.uint8).reshape(
        kernel.n, -1)
    return bool((raw == raw[0]).all())


def _count_merges(monkeypatch):
    """Patch the aggregate kernels' shared ``_merge`` to log ``(changed
    any, identical rows after)`` per call; returns the log."""
    merges = []
    merge = _AggregateKernel._merge

    def counting(self, csr):
        changed = merge(self, csr)
        merges.append((bool(changed.any()), _identical_rows(self)))
        return changed
    monkeypatch.setattr(_AggregateKernel, "_merge", counting)
    return merges


def _spec_outcome(spec, seed, engine, node_state=None):
    """A spec's run under *engine*: the four points the tiers must agree
    on (plus every node's *node_state*, when given), and the tier
    split."""
    schedule = spec.build_schedule(seed)
    nodes = spec.build_nodes(schedule, seed)
    recorder = Recorder.in_memory()
    sim = Simulator(schedule, nodes, rng=RngRegistry(seed),
                    loss_rate=spec.loss_rate, engine=engine,
                    recorder=recorder)
    result = sim.run(max_rounds=spec.max_rounds, until=spec.until,
                     quiescence_window=spec.quiescence_window,
                     allow_timeout=True)
    outcome = {
        "result": result,
        "max_broadcast_bits": result.metrics.max_broadcast_bits,
        "decisions": [(e.round, e.node_id, e.action, repr(e.value))
                      for e in recorder.of_kind("decision")],
        "streams": [rng.bit_generator.state for rng in sim._node_rngs],
    }
    if node_state is not None:
        outcome["nodes"] = [node_state(node) for node in nodes]
    return sim.tier_rounds, outcome


@pytest.mark.parametrize("loss", [0.0, 0.3])
@pytest.mark.parametrize("label,nodes,params,until", CONVERGING,
                         ids=[c[0] for c in CONVERGING])
def test_converged_kernels_stop_merging_and_match_reference(
        monkeypatch, label, nodes, params, until, loss):
    """Merges stop at the first merge that changes no node and leaves
    every row identical; the long quiescent tail after it runs without
    them and still equals the reference tier on the run's result,
    ``max_broadcast_bits``, decision streams and node streams."""
    n = 24
    spec = TrialSpec(
        schedule="lowdiam_handoff", schedule_params={"n": n, "T": 2},
        nodes=nodes, node_params={"n": n, **params}, max_rounds=200,
        until=until, quiescence_window=40, loss_rate=loss,
        allow_timeout=True)
    _, reference = _spec_outcome(spec, 3, "reference")
    merges = _count_merges(monkeypatch)
    tiers, batch = _spec_outcome(spec, 3, "fast")
    assert batch == reference
    assert tiers["batch"] == batch["result"].rounds
    converged = merges.index((False, True)) + 1
    assert len(merges) == converged
    assert tiers["batch"] - converged >= 30  # the tail merged nothing


def test_unequal_rows_keep_merging_after_quiet_rounds(monkeypatch):
    """Two halves that each converge apart go quiet with unequal rows;
    the kernel keeps merging, so the rounds that join them still count
    every node, as on the reference tier."""
    n, split = 12, 8
    halves = [(u, v) for u in range(n) for v in range(u + 1, n)
              if (u < n // 2) == (v < n // 2)]
    joined = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def run(engine):
        schedule = ExplicitSchedule(n, [halves] * split + [joined],
                                    cycle=True, interval=None)
        sim = Simulator(schedule, [ExactCount(i) for i in range(n)],
                        rng=RngRegistry(0), engine=engine)
        return sim.run(max_rounds=60, until="quiescent",
                       quiescence_window=20, allow_timeout=True)

    reference = run("reference")
    merges = _count_merges(monkeypatch)
    assert run("fast") == reference
    assert set(reference.outputs.values()) == {n}
    quiet_unequal = merges.index((False, False))
    assert (True, True) in merges[quiet_unequal:]  # the join still merged
    assert len(merges) == split + 2


def test_signed_zero_rows_are_not_converged():
    """Rows equal as floats but not as bytes (``-0.0`` against ``0.0``)
    do not count as identical, so the kernel keeps merging them.  The
    kernel is built from fresh nodes (state set before ``run()`` is
    declined) and handed the rows after its first compose."""
    nodes = [ApproxCountKnownBound(i, 50, width=2) for i in range(2)]
    kernel = build_batch_kernel(nodes)[0]
    assert type(kernel) is MinVectorBatchKernel
    nodes[1].state = np.array([-0.0, 1.0])
    assert build_batch_kernel(nodes)[0] is None
    rngs = RngRegistry(0)
    ctx = BatchContext(1, [rngs.for_node("node", i) for i in range(2)],
                       lambda *args: None)
    kernel.compose(ctx)
    kernel._rows = np.array([[0.0, 1.0], [-0.0, 1.0]])
    silent = _DeliveryView(np.zeros(0, dtype=np.int64),
                           np.zeros(3, dtype=np.int64))
    changed_any, _ = kernel.deliver(ctx, silent, None)
    assert not changed_any and not kernel._converged
    kernel._rows[1, 0] = 0.0
    kernel.deliver(ctx, silent, None)
    assert kernel._converged
    assert not kernel.deliver(ctx, silent, None)[0]


# --------------------------------------------------------------------------
# settled KLO phases stop folding
# --------------------------------------------------------------------------

def _klo_node_state(node):
    """Everything the KLO kernel's ``finalize`` writes back, and the
    lifecycle flags the drain sets."""
    return (node.k, node._epoch_round, node.committee, node.poll_min,
            node.grants_made, node.granted_ids, node.request_best,
            node.grant_seen, node.polluted, node.count_heard,
            node._state_changed, node._decided, node._output, node._halted)


def _klo_rounds_log(monkeypatch):
    """Patch the KLO kernel to log one ``[folds, settled, phase end,
    retires]`` entry per delivered round: how many phase folds ran,
    whether the round was settled, whether it ends its phase, and
    whether the kernel retires after it."""
    log = []
    for name in ("_poll_round", "_merge_rows", "_verify_round",
                 "_disseminate"):
        def counting(self, *args, fold=getattr(KCommitteeBatchKernel, name)):
            log[-1][0] += 1
            return fold(self, *args)
        monkeypatch.setattr(KCommitteeBatchKernel, name, counting)
    deliver = KCommitteeBatchKernel.deliver

    def logging_deliver(self, ctx, csr, sender_mask):
        log.append([0, self._settled is not None, self._phase_ends()])
        outcome = deliver(self, ctx, csr, sender_mask)
        log[-1].append(self._retire_reason is not None)
        return outcome

    monkeypatch.setattr(KCommitteeBatchKernel, "deliver", logging_deliver)
    return log


def _assert_only_settled_rounds_skip_folds(log):
    """Settled rounds fold nothing; every other round folds, phase-end
    rounds among them, and none of those is settled."""
    for folds, settled, end, _ in log:
        assert (folds == 0) == settled
        if end:
            assert not settled


def _klo_spec(schedule, schedule_params, n, loss, max_rounds):
    return TrialSpec(
        schedule=schedule, schedule_params={"n": n, **schedule_params},
        nodes="klo_count", node_params={"n": n}, max_rounds=max_rounds,
        until="halted", loss_rate=loss, allow_timeout=True)


#: Lowest share of settled rounds per n on T1's schedule: phases last k
#: rounds but their floods settle within a few, so the share grows with
#: the guesses a run reaches.
SETTLED_SHARE = {8: 0.2, 16: 0.4, 32: 0.6}


@pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("n", sorted(SETTLED_SHARE))
def test_settled_klo_phases_stop_folding_and_match_reference(
        monkeypatch, n, loss):
    """On T1's schedule the phases settle rounds before they end; the
    settled rounds fold nothing, phase-end rounds still fold, and the run
    equals the reference tier's on the result, ``max_broadcast_bits``,
    decision streams, node streams and every node's written-back
    state."""
    spec = _klo_spec("lowdiam_handoff", {"T": 2}, n, loss,
                     total_rounds_prediction(n) + 10)
    _, reference = _spec_outcome(spec, 1, "reference", _klo_node_state)
    log = _klo_rounds_log(monkeypatch)
    tiers, batch = _spec_outcome(spec, 1, "fast", _klo_node_state)
    assert batch == reference
    result = batch["result"]
    assert result.stop_reason == "halted"
    assert set(result.outputs.values()) == {n}
    assert tiers["batch"] == len(log) == result.rounds
    _assert_only_settled_rounds_skip_folds(log)
    assert sum(settled for _, settled, _, _ in log) >= (
        SETTLED_SHARE[n] * len(log))
    assert not any(retires for *_, retires in log)


def test_settled_klo_state_ends_before_the_epoch_group_splits(monkeypatch):
    """Loss on a line leaves verification with polluted and clean nodes,
    so the epoch position splits and the kernel retires after that
    round.  Phases settle before the split, the split round (a phase
    end) folds, and the run equals the reference tier's."""
    spec = _klo_spec("static_line", {}, 8, 0.3, 400)
    _, reference = _spec_outcome(spec, 0, "reference", _klo_node_state)
    log = _klo_rounds_log(monkeypatch)
    tiers, batch = _spec_outcome(spec, 0, "fast", _klo_node_state)
    assert batch == reference
    assert tiers == {"batch": len(log),
                     "reference": batch["result"].rounds - len(log)}
    assert tiers["reference"] > 0
    _assert_only_settled_rounds_skip_folds(log)
    assert [retires for *_, retires in log] == [False] * (len(log) - 1) + [
        True]
    assert log[-1][2]  # verification's last round
    assert any(settled for _, settled, _, _ in log)


def test_settled_klo_rounds_reuse_read_only_arrays():
    """On a complete graph the first poll round floods the minimum and
    the second changes nothing, so the phase settles: the third round
    returns the second's ``(sends, bits)`` and a shared all-False mask,
    all read-only, and the phase's last round composes afresh."""
    n = 5
    kernel = build_batch_kernel(
        [KCommitteeCount(i, initial_guess=4) for i in range(n)])[0]
    complete = ExplicitSchedule(
        n, [[(u, v) for u in range(n) for v in range(u + 1, n)]],
        cycle=True, interval=None)
    ctx = BatchContext(0, [], lambda *args: None)
    composed, masks = [], []
    for r in range(1, 5):  # the guess-4 epoch's first poll phase
        ctx.round_index = r
        composed.append(kernel.compose(ctx))
        masks.append((kernel.deliver(ctx, complete.adjacency(r), None)[0],
                      kernel.changed_last))
    assert [changed_any for changed_any, _ in masks] == [True, False,
                                                         False, True]
    for settled, first in zip(composed[2], composed[1]):
        assert settled is first
    assert composed[3][1] is not composed[2][1]
    for array in (*composed[2], masks[2][1]):
        assert not array.flags.writeable
    assert not masks[2][1].any()
    assert kernel._settled is None  # the phase ended


# --------------------------------------------------------------------------
# the progress vector
# --------------------------------------------------------------------------

PROGRESS_POPULATIONS = [
    pytest.param(lambda n: [ExactCount(i) for i in _scattered_ids(n)],
                 "quiescent", True, id="exact_count"),
    pytest.param(lambda n: [ExactCountKnownBound(i, BOUND_ROUNDS)
                            for i in _scattered_ids(n)],
                 "halted", False, id="exact_count_known_bound"),
    pytest.param(lambda n: [RandomTokenDissemination(i, target_count=n)
                            for i in _scattered_ids(n)],
                 "decided", True, id="token"),
] + [
    pytest.param(lambda n, s=strategy: [
        PipelinedApproxCount(i, words_per_message=3, width=8, strategy=s)
        for i in range(n)],
        "quiescent", False, id=f"pipelined_approx_count/{strategy}")
    for strategy in ("tdm", "greedy")
]


@pytest.mark.parametrize("factory,until,moves", PROGRESS_POPULATIONS)
@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_progress_equals_node_progress(factory, until, moves, seed):
    """After every round the engaged kernel's ``progress()`` (what
    ``stop_when`` receives on the batch tier) equals
    ``[node.progress for node in nodes]`` (what it receives on the
    reference tier): heard-set size for ExactCount, 0.0 for
    ExactCountKnownBound, token counts, informed flags."""
    n = 10

    def run(engine):
        seen = []

        def record(round_index, progress):
            seen.append((round_index, progress.tolist()))
            return False

        schedule = ExplicitSchedule(n, _random_rounds(seed, n), cycle=True,
                                    interval=None)
        sim = Simulator(schedule, factory(n), rng=RngRegistry(seed),
                        engine=engine)
        result = sim.run(max_rounds=60, until=until, quiescence_window=8,
                         stop_when=record, allow_timeout=True)
        return sim, result, seen

    batch_sim, batch, batch_seen = run("fast")
    assert batch_sim.tier_rounds["batch"] == batch.rounds
    _, reference, reference_seen = run("reference")
    assert batch == reference
    assert batch_seen == reference_seen
    assert any(any(row) for _, row in batch_seen) == moves

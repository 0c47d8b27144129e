"""Property tests for the batch-kernel tier (:mod:`repro.simnet.batch`).

Three layers of evidence, in increasing integration order:

1. **Numeric helpers** — `int_payload_bits` / `segment_reduce` /
   `segment_counts` against their scalar Python definitions (Hypothesis
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
the equal Python ``int``).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.flooding import FloodBroadcast, FloodMax, FloodToken
from repro.baselines.klo import KCommitteeCount
from repro.baselines.token import RandomTokenDissemination
from repro.core.approx_count import ApproxCount, ApproxCountKnownBound
from repro.core.exact_count import ExactCount, ExactCountKnownBound
from repro.core.max_compute import MaxKnownBound, SublinearMax
from repro.core.termination import QuiescenceController
from repro.dynamics import ExplicitSchedule
from repro.errors import AlgorithmViolation
from repro.simnet import RngRegistry, Simulator
from repro.simnet.batch import (
    BatchContext,
    BatchQuiescence,
    _BoundedDraws,
    build_batch_kernel,
    int_payload_bits,
    popcount64,
    segment_counts,
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


@pytest.mark.parametrize("seed", range(8))
def test_segment_counts_matches_naive_sum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20))
    indptr, indices = _random_csr(rng, n)
    values = rng.integers(0, 5, size=n).astype(np.int64)
    expected = [int(values[indices[indptr[j]:indptr[j + 1]]].sum())
                for j in range(n)]
    got = segment_counts(values, indptr, indices)
    assert got.tolist() == expected


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
    ("flood_token", lambda n: [
        FloodToken(i, informed=(i == 0)) for i in range(n)]),
    ("flood_max", lambda n: [
        FloodMax(i, value=(i * 104729) % 9973, rounds_bound=BOUND_ROUNDS)
        for i in range(n)]),
    ("flood_broadcast", lambda n: [
        FloodBroadcast(i, rounds_bound=BOUND_ROUNDS,
                       payload=("tok", i) if i < 2 else None)
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
    if label == "flood_token":
        until = "decided"
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
    _, nobatch = _run(label, factory, seed, "fast-nobatch")
    _, ref = _run(label, factory, seed, "reference")
    assert batch == nobatch
    assert batch == ref


@pytest.mark.parametrize("seed", [0, 1])
def test_fold_matches_with_all_halted_neighbours(seed):
    """All-halted-neighbours edge: staggered halt bounds mean late rounds
    deliver into inboxes whose senders are all halted.  The kernel
    builder must decline the non-uniform bound (halting must stay
    population-wide atomic on the batch tier) and every tier must agree."""
    def factory(n):
        return [FloodMax(i, value=(i * 31) % 997,
                         rounds_bound=6 if i % 2 else BOUND_ROUNDS)
                for i in range(n)]

    results = {}
    for engine in ("fast", "fast-nobatch", "reference"):
        sim, results[engine] = _run("flood_max_staggered", factory, seed,
                                    engine)
        if engine == "fast":
            assert sim.tier_rounds["batch"] == 0  # non-uniform bound
    assert results["fast"] == results["fast-nobatch"] == results["reference"]


@pytest.mark.parametrize("label,factory", KERNEL_POPULATIONS[:6],
                         ids=[label for label, _ in KERNEL_POPULATIONS[:6]])
def test_finalize_restores_node_state_across_split_runs(label, factory):
    """Stopping a batch run and resuming it (two ``run()`` calls) must
    equal one uninterrupted per-node run: ``finalize`` has to write the
    kernel arrays back into the node objects verbatim at every exit."""
    seed = 5
    n = 10

    def fresh(engine):
        schedule = ExplicitSchedule(n, _random_rounds(seed, n), cycle=True,
                                    interval=None)
        return Simulator(schedule, factory(n), rng=RngRegistry(seed),
                         engine=engine)

    sim_split = fresh("fast")
    sim_split.run(max_rounds=7, until="halted", allow_timeout=True)
    split = sim_split.run(max_rounds=60, until="halted", allow_timeout=True)

    sim_whole = fresh("fast-nobatch")
    sim_whole.run(max_rounds=7, until="halted", allow_timeout=True)
    whole = sim_whole.run(max_rounds=60, until="halted", allow_timeout=True)

    assert sim_split.tier_rounds["batch"] > 0
    assert split.outputs == whole.outputs
    assert split.rounds == whole.rounds
    assert split.stop_reason == whole.stop_reason
    assert split.metrics == whole.metrics


def test_build_batch_kernel_declines_prehalted_population():
    nodes = [FloodMax(i, value=i, rounds_bound=5) for i in range(4)]
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
    Returns how the run ended: ``"violation"``, ``"halted"`` or
    ``"running"``."""
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
                inbox = [payloads[s] for s in csr.neighbors_of(j).tolist()
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
    also reach split epoch positions and dissemination violations."""
    _assert_kernel_folds_per_round(
        lambda n: [KCommitteeCount(i, guess_growth=growth)
                   for i in _scattered_ids(n)], seed, rounds=150)


@pytest.mark.parametrize("params", [
    [{"initial_guess": 1}, {"initial_guess": 2}],
    [{"guess_growth": 2}, {"guess_growth": 3}],
])
def test_klo_kernel_declines_mixed_guess_parameters(params):
    from repro.dynamics import StaticAdversary, line_graph
    from repro.obs import Recorder

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
    assert select.tier == "fast"
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


@pytest.mark.parametrize("k", [1, 32])
@pytest.mark.parametrize("variant", ["halts", "conflict", "no_count"])
def test_klo_tiers_agree_through_split_epoch_positions(k, variant,
                                                       monkeypatch):
    """Clean nodes disseminate while polluted ones restart: the batch
    kernel holds two epoch groups from the end of verification on, and
    agrees with both per-node tiers on the result or the violation's
    wording and round, and on every node's final ``(k, epoch round)``.

    A violation interrupts the per-node fold mid-round, after the nodes
    before the raising one (index 1 here) have delivered; the kernel
    raises before the round writes any state, so those nodes' positions
    are compared only on runs that end without one."""
    from repro.simnet.batch import KCommitteeBatchKernel

    groups = []
    advance = KCommitteeBatchKernel._advance

    def counting_advance(self):
        advance(self)
        groups.append(len(self._groups))

    monkeypatch.setattr(KCommitteeBatchKernel, "_advance", counting_advance)
    rounds = _klo_split_rounds(k, variant)

    def run(engine):
        nodes = [KCommitteeCount(i, initial_guess=k)
                 for i in _scattered_ids(6)]
        sim = Simulator(ExplicitSchedule(6, rounds, interval=None), nodes,
                        rng=RngRegistry(3), engine=engine)
        try:
            outcome = sim.run(max_rounds=len(rounds), until="halted",
                              allow_timeout=True)
            compared = nodes
        except AlgorithmViolation as exc:
            outcome = str(exc)
            compared = nodes[1:]
        positions = [(node.k, node._epoch_round) for node in compared]
        return outcome, sim.round_index, positions

    batch = run("fast")
    for engine in ("fast-nobatch", "reference"):
        assert run(engine) == batch, engine
    outcome = batch[0]
    if variant == "halts":
        assert outcome.outputs == {5: 2, 42: 2, 79: 1}
    else:
        assert outcome == {
            "conflict": "node 42: conflicting counts 2 vs 1",
            "no_count": ("node 42: dissemination ended without a count "
                         f"(k={k})"),
        }[variant]
    # Two groups from the round verification ends to the last kernel
    # round: all k + 2 dissemination rounds, or up to the violation.
    assert max(groups) == 2
    split_rounds = {"halts": k + 3, "conflict": 1, "no_count": k + 2}
    assert sum(count == 2 for count in groups) == split_rounds[variant]


@pytest.mark.parametrize("cut", [1, 5, 11, 23, 32])
@pytest.mark.parametrize("factory", [
    lambda n: [KCommitteeCount(i) for i in _scattered_ids(n)],
    lambda n: [RandomTokenDissemination(i, target_count=n)
               for i in _scattered_ids(n)],
], ids=["klo", "token"])
def test_baseline_kernels_resume_split_runs(factory, cut):
    """A batch run cut after *cut* rounds and resumed (the second
    ``run()`` re-imports the state ``finalize`` wrote back, mid-epoch for
    KLO) equals one uninterrupted per-node run."""
    from repro.dynamics import OverlapHandoffAdversary

    n = 9

    def run(engine):
        sim = Simulator(OverlapHandoffAdversary(n, 2, noise_edges=1, seed=4),
                        factory(n), rng=RngRegistry(4), engine=engine)
        sim.run(max_rounds=cut, until="halted", allow_timeout=True)
        return sim, sim.run(max_rounds=2000, until="halted",
                            allow_timeout=True)

    split_sim, split = run("fast")
    _, whole = run("fast-nobatch")
    assert split_sim.tier_rounds["batch"] == split.rounds
    assert split == whole


def test_token_tiers_agree_after_direct_token_updates():
    """Tokens added straight to ``tokens`` (as adaptive adversaries and
    tests do) are forwarded alike by the per-node and batch tiers, which
    leave every node's RNG stream in the same state."""
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
    assert batch_sim.tier_rounds["batch"] == batch[0].rounds
    for engine in ("fast-nobatch", "reference"):
        assert run(engine)[1:] == tuple(batch)


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

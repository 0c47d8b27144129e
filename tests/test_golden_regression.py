"""Golden regression tests: exact values pinned for fixed seeds.

These freeze the observable behaviour of the deterministic pieces (and
the seed-determined behaviour of the randomized ones) so that
refactorings — cache layers, engine changes, aggregate tweaks — cannot
silently alter results.  If a change legitimately alters behaviour, the
goldens must be updated consciously, with the diff explaining why.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import RngRegistry, Simulator
from repro.baselines import KCommitteeCount
from repro.baselines.klo import total_rounds_prediction
from repro.core import ApproxCount, ExactCount
from repro.core.sketches import required_width
from repro.dynamics import (
    FunctionSchedule,
    OverlapHandoffAdversary,
    StaticAdversary,
    dynamic_diameter,
    line_graph,
    random_noise_edges,
    ring_of_cliques,
)
from repro.dynamics import interval
from repro.dynamics.interval import (_pcg64_state, _relabeled_random_tree,
                                     _rng_for, _seed_states)
from repro.exec import canonical_json
from repro.harness import run_experiments


class TestDeterministicGoldens:
    def test_klo_prediction_table(self):
        expected = {1: 9, 2: 9, 4: 82, 8: 288, 16: 1082, 32: 4204,
                    64: 16590, 128: 65936}
        for n, rounds in expected.items():
            assert total_rounds_prediction(n) == rounds, n

    def test_schedule_fingerprint(self):
        """First-round edge set of a seeded adversary is frozen."""
        adv = OverlapHandoffAdversary(8, 2, noise_edges=2, seed=42)
        assert adv.edges(1).tolist() == [[0, 2], [0, 4], [0, 6], [1, 6],
                                         [3, 4], [3, 6], [4, 5], [6, 7]]

    def test_dynamic_diameters(self):
        assert dynamic_diameter(StaticAdversary(50, line_graph(50))) == 49
        assert dynamic_diameter(
            StaticAdversary(64, ring_of_cliques(64, 8))) == 9

    def test_required_widths(self):
        assert required_width(0.5, 0.1) == 10
        assert required_width(0.25, 0.1) == 43
        assert required_width(0.1, 0.05) == 385
        assert required_width(0.25, 0.05) == 62  # T1 / core_count target


class TestSeededRunGoldens:
    def test_exact_count_run_fingerprint(self):
        n = 32
        sched = OverlapHandoffAdversary(n, 2, seed=7)
        nodes = [ExactCount(i) for i in range(n)]
        result = Simulator(sched, nodes, rng=RngRegistry(7)).run(
            max_rounds=4000, until="quiescent", quiescence_window=32)
        assert result.unanimous_output() == 32
        assert result.metrics.last_decision_round == 8
        assert result.rounds == 38

    def test_klo_run_fingerprint(self):
        n = 10
        sched = OverlapHandoffAdversary(n, 2, seed=3)
        nodes = [KCommitteeCount(i) for i in range(n)]
        result = Simulator(sched, nodes).run(max_rounds=2000)
        assert result.unanimous_output() == 10
        assert result.rounds == total_rounds_prediction(10) == 1082

    def test_approx_count_estimate_fingerprint(self):
        n = 64
        sched = OverlapHandoffAdversary(n, 2, seed=11)
        nodes = [ApproxCount(i, width=32) for i in range(n)]
        result = Simulator(sched, nodes, rng=RngRegistry(11)).run(
            max_rounds=4000, until="quiescent", quiescence_window=32)
        assert result.unanimous_output() == pytest.approx(
            56.31518094904481, rel=1e-9)
        assert result.metrics.last_decision_round == 9

    def test_node_rng_stream_fingerprint(self):
        gen = RngRegistry(7).for_node("node", 3)
        assert gen.integers(1000, size=4).tolist() == [322, 934, 101, 947]


# Rows of the quick experiments that run trials outside the T1 grid
# (captured before they moved onto TrialSpec cells; X2 without the
# engine-tier columns it used to carry).  Exact floats: a change here is
# a change in what the experiment measured.
MIGRATED_EXPERIMENT_ROWS = {
    "f2": [
        {"T": 1, "algorithm": "exact_count_ours", "n": 24, "rounds": 7.0,
         "rounds_std": 0.0},
        {"T": 1, "algorithm": "token_dissem_throttled", "n": 24,
         "rounds": 215.0, "rounds_std": 0.0},
        {"T": 1, "algorithm": "klo_count", "n": 24, "rounds": 4204.0,
         "rounds_std": 0.0},
        {"T": 2, "algorithm": "exact_count_ours", "n": 24, "rounds": 6.0,
         "rounds_std": 0.0},
        {"T": 2, "algorithm": "token_dissem_throttled", "n": 24,
         "rounds": 230.0, "rounds_std": 0.0},
        {"T": 2, "algorithm": "klo_count", "n": 24, "rounds": 4204.0,
         "rounds_std": 0.0},
        {"T": 4, "algorithm": "exact_count_ours", "n": 24, "rounds": 8.0,
         "rounds_std": 0.0},
        {"T": 4, "algorithm": "token_dissem_throttled", "n": 24,
         "rounds": 230.0, "rounds_std": 0.0},
        {"T": 4, "algorithm": "klo_count", "n": 24, "rounds": 4204.0,
         "rounds_std": 0.0},
    ],
    "f4": [
        {"coverage_analytic": 0.9006948857445348, "coverage_mc": 0.9015,
         "delta": 0.1, "eps": 0.5, "mc_trials": 2000,
         "mean_rel_err_mc": 0.26830649527971173,
         "mean_rel_err_sim": 0.2631029638285599,
         "p95_rel_err_mc": 0.6751676790066738, "sim_trials": 4, "width": 10},
        {"coverage_analytic": 0.9021000537102589, "coverage_mc": 0.8955,
         "delta": 0.1, "eps": 0.25, "mc_trials": 2000,
         "mean_rel_err_mc": 0.12345068193791191,
         "mean_rel_err_sim": 0.09264433565003535,
         "p95_rel_err_mc": 0.3007826487537452, "sim_trials": 4, "width": 43},
    ],
    "t2": [
        {"adversary": "static_line", "baseline_rounds": 23.0, "correct": True,
         "d": 23.0, "problem": "max_ours", "rounds": 24.0},
        {"adversary": "static_line", "baseline_rounds": 23.0, "correct": True,
         "d": 23.0, "problem": "consensus_ours", "rounds": 24.0},
        {"adversary": "static_line", "baseline_rounds": 4204.0,
         "correct": True, "d": 23.0, "problem": "count_ours", "rounds": 24.0},
        {"adversary": "static_expander", "baseline_rounds": 23.0,
         "correct": True, "d": 5.0, "problem": "max_ours", "rounds": 6.0},
        {"adversary": "static_expander", "baseline_rounds": 23.0,
         "correct": True, "d": 5.0, "problem": "consensus_ours",
         "rounds": 6.0},
        {"adversary": "static_expander", "baseline_rounds": 4204.0,
         "correct": True, "d": 5.0, "problem": "count_ours", "rounds": 6.0},
        {"adversary": "fresh_random", "baseline_rounds": 23.0, "correct": True,
         "d": 5.0, "problem": "max_ours", "rounds": 7.0},
        {"adversary": "fresh_random", "baseline_rounds": 23.0, "correct": True,
         "d": 5.0, "problem": "consensus_ours", "rounds": 6.0},
        {"adversary": "fresh_random", "baseline_rounds": 4204.0,
         "correct": True, "d": 5.0, "problem": "count_ours", "rounds": 6.0},
        {"adversary": "handoff_T2", "baseline_rounds": 23.0, "correct": True,
         "d": 6.0, "problem": "max_ours", "rounds": 6.0},
        {"adversary": "handoff_T2", "baseline_rounds": 23.0, "correct": True,
         "d": 6.0, "problem": "consensus_ours", "rounds": 7.0},
        {"adversary": "handoff_T2", "baseline_rounds": 4204.0, "correct": True,
         "d": 6.0, "problem": "count_ours", "rounds": 8.0},
        {"adversary": "alternating", "baseline_rounds": 23.0, "correct": True,
         "d": 15.0, "problem": "max_ours", "rounds": 16.0},
        {"adversary": "alternating", "baseline_rounds": 23.0, "correct": True,
         "d": 15.0, "problem": "consensus_ours", "rounds": 17.0},
        {"adversary": "alternating", "baseline_rounds": 4204.0,
         "correct": True, "d": 15.0, "problem": "count_ours", "rounds": 16.0},
        {"adversary": "churn", "baseline_rounds": 23.0, "correct": True,
         "d": 4.0, "problem": "max_ours", "rounds": 5.0},
        {"adversary": "churn", "baseline_rounds": 23.0, "correct": True,
         "d": 4.0, "problem": "consensus_ours", "rounds": 4.0},
        {"adversary": "churn", "baseline_rounds": 4204.0, "correct": True,
         "d": 4.0, "problem": "count_ours", "rounds": 5.0},
        {"adversary": "mobility_T2", "baseline_rounds": 23.0, "correct": True,
         "d": 5.0, "problem": "max_ours", "rounds": 7.0},
        {"adversary": "mobility_T2", "baseline_rounds": 23.0, "correct": True,
         "d": 5.0, "problem": "consensus_ours", "rounds": 6.0},
        {"adversary": "mobility_T2", "baseline_rounds": 4204.0,
         "correct": True, "d": 5.0, "problem": "count_ours", "rounds": 6.0},
        {"adversary": "adaptive_throttle", "baseline_rounds": 23.0,
         "correct": True, "d": None, "problem": "max_ours", "rounds": 24.0},
        {"adversary": "adaptive_throttle", "baseline_rounds": 23.0,
         "correct": True, "d": None, "problem": "consensus_ours",
         "rounds": 24.0},
        {"adversary": "adaptive_throttle", "baseline_rounds": 4204.0,
         "correct": True, "d": None, "problem": "count_ours", "rounds": 17.0},
    ],
    "t3": [
        {"ablation": "controller",
         "metric": "decision rounds / total retractions", "retractions": 1.0,
         "rounds": 6.0, "variant": "growth=2,init_window=1"},
        {"ablation": "controller",
         "metric": "decision rounds / total retractions", "retractions": 0.0,
         "rounds": 13.0, "variant": "growth=2,init_window=8"},
        {"ablation": "controller",
         "metric": "decision rounds / total retractions", "retractions": 1.0,
         "rounds": 8.0, "variant": "growth=4,init_window=1"},
        {"ablation": "controller",
         "metric": "decision rounds / total retractions", "retractions": 0.0,
         "rounds": 13.0, "variant": "growth=4,init_window=8"},
        {"ablation": "controller",
         "metric": "decision rounds / total retractions", "retractions": 1.0,
         "rounds": 12.0, "variant": "growth=8,init_window=1"},
        {"ablation": "controller",
         "metric": "decision rounds / total retractions", "retractions": 0.0,
         "rounds": 13.0, "variant": "growth=8,init_window=8"},
        {"ablation": "sketch_family",
         "metric": "mean rel err=0.097 (width 64, 4104 bits/msg)",
         "retractions": None, "rounds": None, "variant": "exponential"},
        {"ablation": "sketch_family",
         "metric": "mean rel err=0.657 (width 64, 392 bits/msg)",
         "retractions": None, "rounds": None, "variant": "geometric"},
        {"ablation": "klo_guess_growth",
         "metric": "exact closed-form rounds at N=64", "retractions": None,
         "rounds": 16590.0, "variant": "growth=2"},
        {"ablation": "klo_guess_growth",
         "metric": "exact closed-form rounds at N=64", "retractions": None,
         "rounds": 22357.0, "variant": "growth=3"},
        {"ablation": "klo_guess_growth",
         "metric": "exact closed-form rounds at N=64", "retractions": None,
         "rounds": 13266.0, "variant": "growth=4"},
        {"ablation": "klo_guess_growth",
         "metric": "exact closed-form rounds at N=64", "retractions": None,
         "rounds": 12628.0, "variant": "growth=8"},
        {"ablation": "pipelining",
         "metric": "decision rounds under 4-word budget", "retractions": None,
         "rounds": 59.0, "variant": "tdm"},
        {"ablation": "pipelining",
         "metric": "decision rounds under 4-word budget", "retractions": None,
         "rounds": 74.0, "variant": "greedy"},
    ],
    "x2": [
        {"known_bound_2d_correct": True, "loss_rate": 0.0,
         "stabilizing_correct": True, "stabilizing_rounds": 6.0},
        {"known_bound_2d_correct": True, "loss_rate": 0.3,
         "stabilizing_correct": True, "stabilizing_rounds": 10.0},
        {"known_bound_2d_correct": True, "loss_rate": 0.6,
         "stabilizing_correct": True, "stabilizing_rounds": 13.0},
    ],
}


def _schedule_digest(schedule, horizon):
    """sha256 (first 16 hex digits) of every round's edges and CSR arrays,
    dtype and shape included, over rounds ``1 .. horizon``."""
    digest = hashlib.sha256()
    for r in range(1, horizon + 1):
        adjacency = schedule.adjacency(r)
        for arr in (schedule.edges(r), adjacency.indptr, adjacency.indices):
            digest.update(arr.dtype.str.encode())
            digest.update(repr(arr.shape).encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


#: ``(n, T, seed, noise_edges) -> (digest, adjacency_stats)`` of rounds
#: 1..300, read forward, captured from the per-round generator before
#: the block generator replaced it.  Seed 1 with ``n // 8`` churn edges
#: is ``lowdiam_handoff``; noise 0 is ``overlap_handoff``.
SCHEDULE_DIGESTS = {
    (16, 1, 1, 0): ("71c8695ef393006d", (0, 0, 300, 284)),
    (16, 1, 1, 2): ("9e1d2b592b1b8c89", (0, 0, 300, 284)),
    (16, 1, 2, 0): ("198de52f2114a810", (0, 0, 300, 284)),
    (16, 2, 1, 0): ("5c5c68d8e283d1be", (0, 0, 300, 284)),
    (16, 2, 1, 2): ("69a45cae302079ae", (0, 0, 300, 284)),
    (16, 2, 2, 0): ("0e8fbf3d37080e3a", (0, 0, 300, 284)),
    (16, 4, 1, 0): ("506399a9585c1205", (150, 0, 150, 134)),
    (16, 4, 1, 2): ("bc9736cfddbc3b62", (0, 1, 299, 283)),
    (16, 4, 2, 0): ("7ddad9e2153fe413", (150, 0, 150, 134)),
    (16, 8, 1, 0): ("f371492fb7269579", (224, 0, 76, 60)),
    (16, 8, 1, 2): ("6754c63b8036bbf2", (0, 0, 300, 284)),
    (16, 8, 2, 0): ("3374b2feab33439e", (224, 0, 76, 60)),
    (32, 1, 1, 0): ("c4e86d8da536aef3", (0, 0, 300, 284)),
    (32, 1, 1, 4): ("668ae60d708765e2", (0, 0, 300, 284)),
    (32, 1, 2, 0): ("9542a3604cceca76", (0, 0, 300, 284)),
    (32, 2, 1, 0): ("9bf7d7a95c4b7197", (0, 0, 300, 284)),
    (32, 2, 1, 4): ("c48b4529623ece6e", (0, 0, 300, 284)),
    (32, 2, 2, 0): ("f33396312ad66a4c", (0, 0, 300, 284)),
    (32, 4, 1, 0): ("78d2a38d04836553", (150, 0, 150, 134)),
    (32, 4, 1, 4): ("4ab0f2567115c701", (0, 0, 300, 284)),
    (32, 4, 2, 0): ("c3397a7166ffbde8", (150, 0, 150, 134)),
    (32, 8, 1, 0): ("4d68ddee41087766", (224, 0, 76, 60)),
    (32, 8, 1, 4): ("e47ba0326b0107fd", (0, 0, 300, 284)),
    (32, 8, 2, 0): ("ef80b5f5c6dd372e", (224, 0, 76, 60)),
    (128, 1, 1, 0): ("da334e248a0e5922", (0, 0, 300, 284)),
    (128, 1, 1, 16): ("d2c6ce28242e4bd1", (0, 0, 300, 284)),
    (128, 1, 2, 0): ("4b281b67aeb97b1c", (0, 0, 300, 284)),
    (128, 2, 1, 0): ("a29a4fe4def38ab7", (0, 0, 300, 284)),
    (128, 2, 1, 16): ("a6b07d97ad90dbc4", (0, 0, 300, 284)),
    (128, 2, 2, 0): ("30cbcb5719abf818", (0, 0, 300, 284)),
    (128, 4, 1, 0): ("3fa248cb8dc1df12", (150, 0, 150, 134)),
    (128, 4, 1, 16): ("f526e076ce9d2e5c", (0, 0, 300, 284)),
    (128, 4, 2, 0): ("03a43f8b0d7cef76", (150, 0, 150, 134)),
    (128, 8, 1, 0): ("d702055160d77a36", (224, 0, 76, 60)),
    (128, 8, 1, 16): ("5adee2a20c411a64", (0, 0, 300, 284)),
    (128, 8, 2, 0): ("071c18374dfb0407", (224, 0, 76, 60)),
    (512, 1, 1, 0): ("b4e1113c2d3a6376", (0, 0, 300, 284)),
    (512, 1, 1, 64): ("e0d6815a47c2d5be", (0, 0, 300, 284)),
    (512, 1, 2, 0): ("622254bd5f191e71", (0, 0, 300, 284)),
    (512, 2, 1, 0): ("ffdede2ecbbe664a", (0, 0, 300, 284)),
    (512, 2, 1, 64): ("59143104713e9983", (0, 0, 300, 284)),
    (512, 2, 2, 0): ("d3092a7850ad866a", (0, 0, 300, 284)),
    (512, 4, 1, 0): ("1374d139fb39d37c", (150, 0, 150, 134)),
    (512, 4, 1, 64): ("5c4ee68767793acf", (0, 0, 300, 284)),
    (512, 4, 2, 0): ("41ecd3bc14800350", (150, 0, 150, 134)),
    (512, 8, 1, 0): ("eef270d2f8e1c739", (224, 0, 76, 60)),
    (512, 8, 1, 64): ("62f62e07f1a81837", (0, 0, 300, 284)),
    (512, 8, 2, 0): ("aa9e6fd8b2ed5731", (224, 0, 76, 60)),
}


class TestScheduleDigests:
    @pytest.mark.parametrize("key", sorted(SCHEDULE_DIGESTS))
    def test_handoff_edges_and_csr_pinned(self, key):
        n, T, seed, noise = key
        schedule = OverlapHandoffAdversary(n, T, noise_edges=noise, seed=seed)
        digest, stats = SCHEDULE_DIGESTS[key]
        assert _schedule_digest(schedule, 300) == digest
        assert tuple(schedule.adjacency_stats[k] for k in (
            "span_hits", "fingerprint_hits", "builds", "evictions")) == stats


def _per_round_handoff(n, T, noise, seed):
    """The handoff adversary rebuilt one round at a time from its
    definition, with the adversary's stability hints: the oracle the
    block generator must match."""
    hints = OverlapHandoffAdversary(n, T, noise_edges=noise, seed=seed)

    def backbone(window):
        return _relabeled_random_tree(n, _rng_for(seed, 0, window))

    def fn(r):
        window, pos_in_window = divmod(r - 1, T)
        parts = [backbone(window)]
        if pos_in_window:
            parts.append(backbone(window + 1))
        if noise:
            parts.append(random_noise_edges(n, noise, _rng_for(seed, 1, r)))
        return np.concatenate(parts)

    return FunctionSchedule(n, fn, interval=T, stable_until=hints.stable_until)


#: Access patterns: runs of consecutive rounds, read forwards or
#: backwards, starting anywhere in rounds 1..400.
_ACCESS_RUNS = st.lists(
    st.tuples(st.integers(1, 400), st.integers(1, 80), st.booleans()),
    min_size=1, max_size=6)


class TestBlockGeneratorAccessOrder:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 5, 16, 40, 300]),
           T=st.integers(1, 4), noise=st.sampled_from([0, 1, 3]),
           seed=st.integers(0, 2 ** 16), runs=_ACCESS_RUNS)
    def test_any_access_order_matches_per_round_generation(
            self, n, T, noise, seed, runs):
        """Backwards reads, jumps across block boundaries and revisits
        after eviction serve the arrays (and cache statistics) that
        per-round generation does, and that a forward pass does."""
        schedule = OverlapHandoffAdversary(n, T, noise_edges=noise, seed=seed)
        oracle = _per_round_handoff(n, T, noise, seed)
        forward = OverlapHandoffAdversary(n, T, noise_edges=noise, seed=seed)
        last = max(start + length - 1 for start, length, _ in runs)
        expected = {}
        for r in range(1, last + 1):
            adjacency = forward.adjacency(r)
            expected[r] = (forward.edges(r), adjacency.indptr,
                           adjacency.indices)
        for start, length, backwards in runs:
            rounds = range(start, start + length)
            for r in (reversed(rounds) if backwards else rounds):
                got, want = schedule.adjacency(r), oracle.adjacency(r)
                served = (schedule.edges(r), got.indptr, got.indices)
                for arr, ref, fwd in zip(
                        served, (oracle.edges(r), want.indptr, want.indices),
                        expected[r]):
                    assert arr.dtype == ref.dtype == fwd.dtype
                    assert np.array_equal(arr, ref)
                    assert np.array_equal(arr, fwd)
        assert schedule.adjacency_stats == oracle.adjacency_stats


class TestBlockWideStreams:
    """The block generator derives each round's and window's stream state
    in array arithmetic and bounds its draws block-wide; NumPy's own
    ``SeedSequence``/``PCG64``/``integers`` are the reference."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3,
                                 2 ** 130 + 7]),
           k0=st.sampled_from([0, 1]),
           keys=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                         max_size=4))
    def test_states_match_seed_sequence(self, seed, k0, keys):
        schedule = OverlapHandoffAdversary(4, 2, seed=seed)
        for k, words in zip(keys, _seed_states(seed, k0, keys)):
            reference = np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(k0, k)))
            assert _pcg64_state(words.tolist()) == reference.state
            assert np.array_equal(
                schedule._stream(k0, k).integers(0, 2 ** 40, size=3),
                np.random.Generator(reference).integers(0, 2 ** 40, size=3))

    @pytest.mark.parametrize("bound", [3, 300, 2 ** 30 + 1])
    def test_lemire_matches_integers_on_unflagged_rows(self, bound):
        """``_lemire`` bounds words as ``Generator.integers`` does and flags
        every row where NumPy rejects a word; at ``2**30 + 1`` about a
        quarter of all words are rejected."""
        words, expected = [], []
        for row in range(200):
            words.append(np.random.default_rng([9, row]).integers(
                0, 2 ** 32, size=4, dtype=np.uint32))
            expected.append(
                np.random.default_rng([9, row]).integers(0, bound, size=4))
        values, rejected = interval._lemire(np.array(words), bound)
        assert (~rejected).any()
        assert rejected.any() == (bound > 300)
        for row in np.flatnonzero(~rejected):
            assert np.array_equal(values[row], expected[row])

    @pytest.mark.parametrize("T", [1, 2])
    def test_rounds_past_single_word_keys(self, T):
        """Keys of ``2**32`` and up take two entropy words; those streams
        come from ``SeedSequence`` itself."""
        schedule = OverlapHandoffAdversary(16, T, noise_edges=2, seed=3)
        oracle = _per_round_handoff(16, T, 2, 3)
        for r in range(2 ** 32 - 3, 2 ** 32 + 4):
            assert np.array_equal(schedule.edges(r), oracle.edges(r))

    @pytest.mark.parametrize("T", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 16, 300])
    def test_rejected_draws_redraw_by_reference(self, n, T, monkeypatch):
        """Rows whose words NumPy would reject are redrawn by the
        reference functions; forcing every churn row and every window
        down that path, with its block-wide values zeroed so that only
        the redraw can restore them, changes no array and no cache
        statistic."""
        horizon = 40
        for noise in (0, max(1, n // 8)):
            unforced = _served(
                OverlapHandoffAdversary(n, T, noise_edges=noise, seed=5),
                horizon)
            oracle = _served(_per_round_handoff(n, T, noise, 5), horizon)
            lemire = interval._lemire
            redraws = []

            def always_rejected(words, bound):
                values, rejected = lemire(words, bound)
                redraws.append(len(rejected))
                return np.zeros_like(values), np.ones_like(rejected)

            with monkeypatch.context() as patch:
                patch.setattr(interval, "_lemire", always_rejected)
                forced = _served(
                    OverlapHandoffAdversary(n, T, noise_edges=noise, seed=5),
                    horizon)
            assert sum(redraws) > 0
            for got, want in ((forced, unforced), (forced, oracle)):
                assert got[1] == want[1]
                for a, b in zip(got[0], want[0]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


def _served(schedule, horizon):
    """Every array *schedule* serves over rounds ``1 .. horizon``, and its
    cache statistics."""
    arrays = []
    for r in range(1, horizon + 1):
        adjacency = schedule.adjacency(r)
        arrays += [schedule.edges(r), adjacency.indptr, adjacency.indices]
    return arrays, dict(schedule.adjacency_stats)


class TestMigratedExperimentGoldens:
    @pytest.mark.parametrize("exp_id", sorted(MIGRATED_EXPERIMENT_ROWS))
    def test_quick_rows_pinned(self, exp_id):
        rows = run_experiments([exp_id], quick=True).results[exp_id].rows
        assert canonical_json(rows) == canonical_json(
            MIGRATED_EXPERIMENT_ROWS[exp_id])

    @pytest.mark.parametrize("exp_id", sorted(MIGRATED_EXPERIMENT_ROWS))
    def test_quick_rows_independent_of_engine(self, exp_id, monkeypatch):
        """Engine choice never changes an experiment's rows: tier splits
        are telemetry (``--profile``, ``engine.*`` columns), not data."""
        rows = {}
        for engine in ("fast", "fast-nobatch", "reference"):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            rows[engine] = canonical_json(
                run_experiments([exp_id], quick=True).results[exp_id].rows)
        assert rows["fast-nobatch"] == rows["fast"]
        assert rows["reference"] == rows["fast"]

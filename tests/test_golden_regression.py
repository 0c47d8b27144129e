"""Golden regression tests: exact values pinned for fixed seeds.

These freeze the observable behaviour of the deterministic pieces (and
the seed-determined behaviour of the randomized ones) so that
refactorings — cache layers, engine changes, aggregate tweaks — cannot
silently alter results.  If a change legitimately alters behaviour, the
goldens must be updated consciously, with the diff explaining why.
"""

import pytest

from repro import RngRegistry, Simulator
from repro.baselines import KCommitteeCount
from repro.baselines.klo import total_rounds_prediction
from repro.core import ApproxCount, ExactCount
from repro.core.sketches import required_width
from repro.dynamics import (
    OverlapHandoffAdversary,
    StaticAdversary,
    dynamic_diameter,
    line_graph,
    ring_of_cliques,
)
from repro.exec import canonical_json
from repro.harness import run_experiment


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


class TestMigratedExperimentGoldens:
    @pytest.mark.parametrize("exp_id", sorted(MIGRATED_EXPERIMENT_ROWS))
    def test_quick_rows_pinned(self, exp_id):
        rows = run_experiment(exp_id, quick=True).rows
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
                run_experiment(exp_id, quick=True).rows)
        assert rows["fast-nobatch"] == rows["fast"]
        assert rows["reference"] == rows["fast"]

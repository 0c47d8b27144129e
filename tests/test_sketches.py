"""Tests for the cardinality sketches and their analytic guarantees."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import sketches
from repro.core.approx_count import ApproxCount
from repro.core.sketches import (
    ExponentialCountSketch,
    GeometricCountSketch,
    estimate_from_minima,
    failure_probability,
    required_width,
)

#: The (eps, delta) targets the evaluation sizes sketches for: T1's and
#: X1's approximate Count, then F4's three accuracy levels.
EVALUATION_TARGETS = [(0.25, 0.05), (0.5, 0.1), (0.25, 0.1), (0.1, 0.1)]


class TestEstimator:
    def test_known_value(self):
        # minima summing to S with width k -> (k-1)/S
        est = estimate_from_minima(np.array([0.1, 0.2, 0.2]))
        assert est == pytest.approx(2 / 0.5)

    def test_width_one_rejected(self):
        with pytest.raises(ValueError, match="width >= 2"):
            estimate_from_minima(np.array([0.1]))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            estimate_from_minima(np.array([0.0, 0.1]))

    def test_unbiased_at_scale(self):
        rng = np.random.default_rng(7)
        N, k, trials = 500, 64, 400
        draws = rng.exponential(1.0, size=(trials, N, k))
        estimates = (k - 1) / draws.min(axis=1).sum(axis=1)
        assert abs(estimates.mean() / N - 1.0) < 0.02

    def test_error_shrinks_with_width(self):
        rng = np.random.default_rng(7)
        N, trials = 200, 300

        def mean_err(k):
            draws = rng.exponential(1.0, size=(trials, N, k))
            est = (k - 1) / draws.min(axis=1).sum(axis=1)
            return np.abs(est / N - 1).mean()

        assert mean_err(128) < mean_err(8)


class TestFailureProbability:
    def test_monotone_in_width(self):
        probs = [failure_probability(k, 0.25) for k in [4, 16, 64, 256]]
        assert probs == sorted(probs, reverse=True)

    def test_monotone_in_eps(self):
        assert (failure_probability(64, 0.1)
                > failure_probability(64, 0.25)
                > failure_probability(64, 0.5))

    def test_degenerate_cases(self):
        assert failure_probability(1, 0.25) == 1.0
        assert failure_probability(64, 0.0) == 1.0

    def test_matches_empirical(self):
        """The analytic Gamma tail equals the simulated failure rate."""
        rng = np.random.default_rng(3)
        k, eps, N, trials = 30, 0.3, 100, 4000
        draws = rng.exponential(1.0, size=(trials, N, k))
        est = (k - 1) / draws.min(axis=1).sum(axis=1)
        empirical = float((np.abs(est / N - 1) > eps).mean())
        analytic = failure_probability(k, eps)
        assert abs(empirical - analytic) < 0.02

    def test_independent_of_N(self):
        # the distribution of relative error is N-free; check at two N's
        rng = np.random.default_rng(5)
        k, eps, trials = 20, 0.4, 3000

        def emp(N):
            draws = rng.exponential(1.0, size=(trials, N, k))
            est = (k - 1) / draws.min(axis=1).sum(axis=1)
            return float((np.abs(est / N - 1) > eps).mean())

        assert abs(emp(10) - emp(300)) < 0.03

    def test_matches_scipy_stats_gamma_bit_for_bit(self, monkeypatch):
        """The incomplete-gamma form returns the very floats the
        ``scipy.stats.gamma`` tails return: on every width the
        evaluation's width searches visit, and on a grid of widths up to
        2^20 and eps up to 1.5."""
        from scipy.stats import gamma

        visited = set()
        evaluate = sketches.failure_probability

        def recorded(width, eps):
            visited.add((width, eps))
            return evaluate(width, eps)

        monkeypatch.setattr(sketches, "failure_probability", recorded)
        for eps, delta in EVALUATION_TARGETS:
            sketches._solve_width.__wrapped__(eps, delta)
        monkeypatch.undo()
        assert len(visited) > 20
        widths = sorted({int(k) for k in np.geomspace(2, 1 << 20, 60)}
                        | set(range(2, 40)))
        grid = visited | {(k, eps) for k in widths
                          for eps in (0.01, 0.1, 0.25, 0.5, 0.99, 1.0, 1.5)}
        for k, eps in sorted(grid):
            reference = gamma.cdf((k - 1) / (1.0 + eps), a=k) + (
                gamma.sf((k - 1) / (1.0 - eps), a=k) if eps < 1 else 0.0)
            assert failure_probability(k, eps) == float(reference), (k, eps)


class TestRequiredWidth:
    def test_meets_target(self):
        k = required_width(0.25, 0.1)
        assert failure_probability(k, 0.25) <= 0.1
        assert failure_probability(k - 1, 0.25) > 0.1  # minimal

    def test_tighter_eps_needs_more(self):
        assert required_width(0.1, 0.1) > required_width(0.5, 0.1)

    def test_tighter_delta_needs_more(self):
        assert required_width(0.25, 0.01) > required_width(0.25, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_width(0.0, 0.1)
        with pytest.raises(ValueError):
            required_width(0.25, 0.0)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=0.01, max_value=0.5))
    def test_property_guarantee(self, eps, delta):
        k = required_width(eps, delta)
        assert failure_probability(k, eps) <= delta

    def test_population_solves_once(self, monkeypatch):
        """256 nodes sharing one (eps, delta) target make one solve's
        worth of exact failure-probability evaluations."""
        calls = []
        evaluate = sketches.failure_probability

        def counted(width, eps):
            calls.append(width)
            return evaluate(width, eps)

        monkeypatch.setattr(sketches, "failure_probability", counted)
        sketches._solve_width.cache_clear()
        required_width(0.25, 0.05)
        one_solve = len(calls)
        assert one_solve > 0
        sketches._solve_width.cache_clear()
        calls.clear()
        nodes = [ApproxCount(i, eps=0.25, delta=0.05) for i in range(256)]
        assert len(calls) == one_solve
        assert {node.sketch.width for node in nodes} == {
            required_width(0.25, 0.05)}

    def test_bad_input_raises_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                required_width(0.25, 0.0)

    def test_numpy_scalars_share_the_python_entry(self):
        assert (required_width(np.float64(0.25), 0.05)
                == required_width(0.25, 0.05))

    def test_cold_process_never_imports_scipy_stats(self):
        """A fresh process that runs an approximate-Count trial, solves
        every evaluation width and summarises replicates must not load
        ``scipy.stats`` (about 0.8 s of start-up) through any import."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        code = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "import repro\n"
            "from repro.analysis import summarize\n"
            "from repro.core.sketches import required_width\n"
            "from repro.exec import TrialSpec\n"
            "from repro.harness.runner import run_trial\n"
            "spec = TrialSpec(schedule='lowdiam_handoff',"
            " schedule_params={{'n': 16, 'T': 2}}, nodes='approx_count',"
            " node_params={{'n': 16}}, max_rounds=2000,"
            " until='quiescent', quiescence_window=64,"
            " oracle='count_approx', oracle_params={{'eps': 0.25}})\n"
            "result = run_trial(spec, 1)\n"
            "for eps, delta in {targets!r}:\n"
            "    required_width(eps, delta)\n"
            "summarize([1.0, 2.0, 4.0])\n"
            "print(result.correct, 'scipy.stats' in sys.modules)\n"
        ).format(src=src, targets=EVALUATION_TARGETS)
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["True", "False"]


class TestExponentialSketchClass:
    def test_for_accuracy(self):
        sk = ExponentialCountSketch.for_accuracy(0.25, 0.1)
        assert sk.width == required_width(0.25, 0.1)

    def test_draw_shape_and_positivity(self, rng):
        sk = ExponentialCountSketch(16)
        draws = sk.draw(rng)
        assert draws.shape == (16,)
        assert (draws > 0).all()

    def test_message_bits(self):
        assert ExponentialCountSketch(10).message_bits() == 648

    def test_width_one_rejected(self):
        with pytest.raises(ValueError):
            ExponentialCountSketch(1)

    def test_end_to_end_estimate(self, rng):
        sk = ExponentialCountSketch(256)
        N = 64
        draws = np.stack([sk.draw(rng) for _ in range(N)])
        est = sk.estimate(draws.min(axis=0))
        assert abs(est / N - 1) < 0.3


class TestGeometricSketch:
    def test_levels_are_nonpositive_after_negation(self, rng):
        sk = GeometricCountSketch(32)
        draws = sk.draw(rng)
        assert (draws <= 0).all()

    def test_estimate_order_of_magnitude(self, rng):
        sk = GeometricCountSketch(256)
        N = 128
        draws = np.stack([sk.draw(rng) for _ in range(N)])
        est = sk.estimate(draws.min(axis=0))
        assert N / 4 < est < N * 4  # coarse by design

    def test_cheaper_messages_than_exponential(self):
        assert (GeometricCountSketch(64).message_bits()
                < ExponentialCountSketch(64).message_bits())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GeometricCountSketch(32).estimate(np.array([]))

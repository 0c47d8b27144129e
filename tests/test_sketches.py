"""Tests for the cardinality sketches and their analytic guarantees."""

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

"""Tests for the analysis package: predictors, fits, stats, tables, plots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    ascii_plot,
    ascii_series,
    crossover_n,
    flood_rounds,
    klo_rounds,
    loglog_slope,
    power_law_fit,
    quiescence_rounds_bound,
    render_markdown,
    render_table,
    rows_to_csv,
    summarize,
    tdm_rounds_bound,
)


class TestPredictors:
    def test_klo_matches_baseline_module(self):
        from repro.baselines.klo import total_rounds_prediction
        assert klo_rounds(20) == total_rounds_prediction(20)

    def test_flood_rounds(self):
        assert flood_rounds(10) == 9
        assert flood_rounds(1) == 1

    def test_quiescence_bound_formula(self):
        assert quiescence_rounds_bound(10) == 10 + 20 + 1
        assert quiescence_rounds_bound(10, growth=4) == 10 + 40 + 1
        assert quiescence_rounds_bound(1, initial_window=8) == 1 + 8 + 1

    def test_tdm_bound(self):
        assert tdm_rounds_bound(5, width=12, words_per_message=3) == 5 * 4 + 4 + 1


class TestCrossover:
    def test_simple_crossing(self):
        f = lambda n: 10 * math.log2(n)
        g = lambda n: float(n)
        x = crossover_n(f, g)
        assert f(x) < g(x)
        assert f(x - 1) >= g(x - 1)

    def test_immediate(self):
        assert crossover_n(lambda n: 0.0, lambda n: 1.0, n_min=3) == 3

    def test_no_crossover_returns_none(self):
        assert crossover_n(lambda n: n + 1.0, lambda n: float(n),
                           n_max=10**4) is None

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            crossover_n(lambda n: 0.0, lambda n: 1.0, n_min=5, n_max=4)


class TestPowerLawFit:
    def test_exact_law_recovered(self):
        xs = [2, 4, 8, 16, 32]
        ys = [3 * x ** 2 for x in xs]
        fit = power_law_fit(xs, ys)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.coefficient == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = power_law_fit([1, 2, 4], [5, 10, 20])
        assert fit.predict(8) == pytest.approx(40.0)

    def test_loglog_slope_shortcut(self):
        assert loglog_slope([2, 4], [4, 16]) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            power_law_fit([1], [1])
        with pytest.raises(ValueError, match="positive"):
            power_law_fit([1, 2], [0, 1])
        with pytest.raises(ValueError, match="equal-length"):
            power_law_fit([1, 2], [1, 2, 3])

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=0.1, max_value=100))
    def test_property_recovers_any_law(self, b, a):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [a * x ** b for x in xs]
        fit = power_law_fit(xs, ys)
        assert fit.exponent == pytest.approx(b, abs=1e-6)


class TestSummarize:
    def test_single_value(self):
        s = summarize([5.0])
        assert s.mean == 5.0 and s.ci_low == s.ci_high == 5.0

    def test_interval_contains_mean(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.ci_low < s.mean < s.ci_high
        assert s.minimum == 1.0 and s.maximum == 4.0

    def test_wider_confidence_wider_interval(self):
        values = [1.0, 2.0, 3.0, 4.0]
        narrow = summarize(values, confidence=0.5)
        wide = summarize(values, confidence=0.99)
        assert wide.ci_high - wide.ci_low > narrow.ci_high - narrow.ci_low

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0], confidence=1.5)

    def test_str_formats(self):
        assert "±" in str(summarize([1.0, 2.0]))
        assert "±" not in str(summarize([1.0]))

    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99])
    def test_half_width_matches_scipy_stats_t_bit_for_bit(self, confidence):
        """``stdtrit`` gives the very half-widths ``scipy.stats.t.ppf``
        gave, so every CI column keeps its bytes."""
        from scipy.stats import t

        rng = np.random.default_rng(11)
        for n in list(range(2, 40)) + [64, 100, 1000]:
            values = rng.exponential(3.0, size=n)
            s = summarize(values, confidence=confidence)
            half = float(t.ppf(0.5 + confidence / 2.0, df=n - 1)
                         * s.std / math.sqrt(n))
            assert (s.ci_low, s.ci_high) == (s.mean - half, s.mean + half)


class TestTables:
    ROWS = [{"a": 1, "b": "x"}, {"a": 2.5, "b": None}]

    def test_render_table_alignment(self):
        text = render_table(self.ROWS)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "-" in lines[1]
        assert "2.5" in text and "-" in lines[-1]

    def test_title_and_empty(self):
        assert "T" in render_table([], title="T")
        assert "(no rows)" in render_table([])

    def test_column_selection_and_union(self):
        text = render_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text
        only_a = render_table(self.ROWS, columns=["a"])
        assert "b" not in only_a.splitlines()[0]

    def test_bool_formatting(self):
        text = render_table([{"ok": True}, {"ok": False}])
        assert "yes" in text and "no" in text

    def test_markdown(self):
        md = render_markdown(self.ROWS)
        assert md.splitlines()[0] == "| a | b |"
        assert md.splitlines()[1] == "|---|---|"

    def test_csv_roundtrip(self):
        import csv
        import io

        text = rows_to_csv(self.ROWS)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["a"] == "1"
        assert rows[1]["a"] == "2.5"


class TestAsciiPlot:
    def test_series_glyphs_and_legend(self):
        text = ascii_plot({"one": ([1, 2, 3], [1, 4, 9]),
                           "two": ([1, 2, 3], [2, 3, 4])})
        assert "o=one" in text and "x=two" in text
        assert "o" in text and "x" in text

    def test_log_axes(self):
        text = ascii_plot({"s": ([1, 10, 100], [1, 100, 10000])},
                          logx=True, logy=True)
        assert "log" in text

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            ascii_plot({"s": ([0, 1], [1, 2])}, logx=True)

    def test_single_point_ok(self):
        text = ascii_series([5], [7])
        assert "o" in text

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            ascii_plot({})
        with pytest.raises(ValueError, match="lengths differ"):
            ascii_plot({"s": ([1, 2], [1])})
        with pytest.raises(ValueError, match="at most"):
            ascii_plot({str(i): ([1], [1]) for i in range(9)})

    def test_title_present(self):
        assert ascii_series([1, 2], [1, 2], title="Ttl").startswith("Ttl")

    def test_dimensions(self):
        text = ascii_plot({"s": ([1, 2], [3, 4])}, width=30, height=8)
        plot_lines = [l for l in text.splitlines() if "|" in l]
        assert len(plot_lines) == 8

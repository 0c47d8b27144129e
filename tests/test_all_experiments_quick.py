"""Every registered experiment must run end-to-end in quick mode.

This is the harness's integration safety net: each experiment, run
alone, produces rows, at least one rendered table or figure, and internally
consistent measurements.  (Full-size runs: ``repro-experiments --all``.)
"""

import pytest

from repro.harness import EXPERIMENTS, run_experiments


def run_experiment(exp_id):
    """*exp_id*'s quick-mode result, run alone."""
    return run_experiments([exp_id], quick=True).results[exp_id]


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_experiment_quick_mode(exp_id):
    result = run_experiment(exp_id)
    assert result.exp_id.lower() == exp_id
    assert result.rows, f"{exp_id} produced no rows"
    assert result.tables or result.figures, f"{exp_id} rendered nothing"
    assert result.notes, f"{exp_id} has no interpretation notes"
    # Every row must be a flat dict of scalars (CSV-serialisable).
    for row in result.rows:
        for key, value in row.items():
            assert isinstance(key, str)
            assert value is None or isinstance(
                value, (int, float, str, bool)), (exp_id, key, type(value))


def test_t1_rounds_ordering_quick():
    """Even at quick sizes the headline ordering must hold at max N."""
    result = run_experiment("t1")
    n_max = max(r["n"] for r in result.rows)
    at_max = {r["algorithm"]: r["rounds"] for r in result.rows
              if r["n"] == n_max}
    assert (at_max["exact_count_ours"]
            < at_max["token_dissemination_knownN"]
            < at_max["klo_count"])


def test_f3_ours_tracks_d_quick():
    result = run_experiment("f3")
    ours = sorted(((r["d"], r["rounds"]) for r in result.rows
                   if r["algorithm"] == "exact_count_ours"))
    # rounds grow with d and stay within the proved bound + margin
    assert ours == sorted(ours)
    for d, rounds in ours:
        assert rounds <= 3 * d + 8


def test_f4_coverage_matches_analytic_quick():
    result = run_experiment("f4")
    for row in result.rows:
        assert abs(row["coverage_mc"] - row["coverage_analytic"]) < 0.06


def test_t2_all_correct_quick():
    result = run_experiment("t2")
    assert all(r["correct"] for r in result.rows)


def test_x1_ladder_quick():
    result = run_experiment("x1")
    n_max = max(r["n"] for r in result.rows)
    at_max = {r["algorithm"]: r["rounds"] for r in result.rows
              if r["n"] == n_max}
    assert (at_max["exact_count_stabilizing"]
            < at_max["hybrid_count_halting_whp"]
            < at_max["klo_halting_deterministic"])

"""Tests for the experiment harness: runner, experiments, io, cli."""

import os
import types

import pytest

from repro.exec import TrialSpec
from repro.harness import (
    EXPERIMENTS,
    load_rows,
    run_experiment,
    run_replicates,
    run_trial,
    save_experiment,
)
from repro.harness.experiments import ExperimentResult, run_f1, run_f5, run_t1
from repro.harness import cli
from repro.harness.cli import main as cli_main


def exact_count_spec(n=16):
    return TrialSpec(
        schedule="fresh_spanning", schedule_params={"n": n},
        nodes="exact_count", node_params={"n": n},
        max_rounds=4000,
        until="quiescent",
        quiescence_window=32,
        oracle="count_exact",
    )


class TestRunner:
    def test_run_trial_measures(self):
        tr = run_trial(exact_count_spec(), seed=1)
        assert tr.correct is True
        assert tr.last_decision_round is not None
        assert tr.last_decision_round <= tr.rounds
        assert tr.broadcast_bits > 0
        assert tr.max_message_bits > 0
        assert tr.stop_reason == "quiescent"

    def test_as_row_merges_params(self):
        tr = run_trial(exact_count_spec(), seed=1)
        row = tr.as_row(algorithm="exact", n=16)
        assert row["algorithm"] == "exact"
        assert row["rounds"] == tr.rounds

    def test_replicates_one_per_seed(self):
        results = run_replicates(exact_count_spec(), seeds=[1, 2, 3])
        assert len(results) == 3
        assert [r.seed for r in results] == [1, 2, 3]

    def test_determinism_across_calls(self):
        a = run_trial(exact_count_spec(), seed=7)
        b = run_trial(exact_count_spec(), seed=7)
        assert a.rounds == b.rounds
        assert a.broadcast_bits == b.broadcast_bits


class TestExperiments:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "t1", "f1", "f2", "f3", "f4", "t2", "f5", "f6", "t3", "x1", "x2"}

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("t9")

    def test_t1_quick(self):
        result = run_t1(quick=True)
        assert result.rows
        algos = {r["algorithm"] for r in result.rows}
        assert "klo_count" in algos and "exact_count_ours" in algos
        assert all(r.get("correct") in (True, None) for r in result.rows
                   if r["algorithm"] != "approx_count_ours")
        assert "t1" in result.tables

    def test_f1_reuses_t1(self):
        t1 = run_t1(quick=True)
        f1 = run_f1(quick=True, t1=t1)
        slopes = {r["algorithm"]: r["exponent_b"] for r in f1.rows}
        assert slopes["klo_count"] > 1.5
        assert slopes["exact_count_ours"] < 0.6
        assert "f1_loglog" in f1.figures

    def test_f5_produces_crossovers(self):
        t1 = run_t1(quick=True)
        f5 = run_f5(quick=True, t1=t1)
        assert all(r["crossover_N_predicted"] is not None for r in f5.rows)

    def test_render_includes_tables_and_notes(self):
        result = ExperimentResult("X1", "demo", rows=[{"a": 1}],
                                  tables={"t": "TBL"}, notes="note")
        text = result.render()
        assert "X1" in text and "TBL" in text and "note" in text


class TestIo:
    def test_save_and_load(self, tmp_path):
        result = ExperimentResult("T9", "demo",
                                  rows=[{"a": 1, "b": "x"}],
                                  tables={"t": "TBL"})
        exp_dir = save_experiment(result, str(tmp_path))
        assert os.path.exists(os.path.join(exp_dir, "rows.csv"))
        assert os.path.exists(os.path.join(exp_dir, "report.txt"))
        rows = load_rows(str(tmp_path), "t9")
        assert rows == [{"a": 1, "b": "x"}]


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "f6" in out

    def test_no_args_shows_help(self, capsys):
        assert cli_main([]) == 2

    def test_unknown_experiment(self, capsys):
        assert cli_main(["zz"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_t1_time_covers_its_run(self, monkeypatch, capsys):
        # T1 runs before the timed loop (F1/F5 share its rows); the time
        # printed for it must still be the time its run took.
        clock = [100.0]

        def fake_run_t1(quick, exec_opts):
            clock[0] += 5.0
            return ExperimentResult(exp_id="T1", title="stub")

        monkeypatch.setattr(cli, "run_t1", fake_run_t1)
        monkeypatch.setattr(cli, "time",
                            types.SimpleNamespace(time=lambda: clock[0]))
        assert cli_main(["t1"]) == 0
        assert "[t1 finished in 5.0s]" in capsys.readouterr().out

    def test_quick_run_with_save(self, tmp_path, capsys):
        code = cli_main(["--quick", "f4", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "F4" in out
        assert os.path.exists(tmp_path / "f4" / "rows.csv")

"""Tests for the experiment harness: runner, experiments, io, cli."""

import os
import re
import time

import pytest

from repro.exec import TrialSpec, canonical_json
from repro.harness import (
    EXPERIMENTS,
    load_rows,
    run_experiments,
    run_replicates,
    run_trial,
    save_experiment,
)
from repro.harness.experiments import (
    Experiment,
    ExperimentResult,
    f1_of_t1,
    f5_of_t1,
)
from repro.harness.cli import main as cli_main
from repro.simnet import set_profile_default


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
            run_experiments(["t9"])

    def test_t1_quick(self):
        result = run_experiments(["t1"], quick=True).results["t1"]
        assert result.rows
        algos = {r["algorithm"] for r in result.rows}
        assert "klo_count" in algos and "exact_count_ours" in algos
        assert all(r.get("correct") in (True, None) for r in result.rows
                   if r["algorithm"] != "approx_count_ours")
        assert "t1" in result.tables

    def test_f1_reuses_t1(self):
        # F1 runs T1's cells: requested together they execute once, and
        # F1 is the fit of T1's result rows.
        run = run_experiments(["t1", "f1"], quick=True)
        t1, f1 = run.results["t1"], run.results["f1"]
        assert run.report.deduped == len(EXPERIMENTS["t1"].cells(True))
        assert f1 == f1_of_t1(t1.rows)
        slopes = {r["algorithm"]: r["exponent_b"] for r in f1.rows}
        assert slopes["klo_count"] > 1.5
        assert slopes["exact_count_ours"] < 0.6
        assert "f1_loglog" in f1.figures

    def test_f5_produces_crossovers(self):
        run = run_experiments(["t1", "f5"], quick=True)
        f5 = run.results["f5"]
        assert f5 == f5_of_t1(run.results["t1"].rows)
        assert all(r["crossover_N_predicted"] is not None for r in f5.rows)

    def test_shared_cells_execute_once(self):
        # X1 and F6 repeat some of T1's cells under other tags; one run
        # of all three executes each content key once and gives every
        # experiment the rows it gets alone.
        ids = ["t1", "x1", "f6"]
        cells = [cell for exp_id in ids
                 for cell in EXPERIMENTS[exp_id].cells(True)]
        shared = len(cells) - len({spec.key(seed) for spec, seed in cells})
        assert shared > 0
        run = run_experiments(ids, quick=True)
        assert run.report.deduped == shared
        assert run.report.executed == len(cells) - shared
        for exp_id in ids:
            alone = run_experiments([exp_id], quick=True)
            assert (canonical_json(run.rows[exp_id])
                    == canonical_json(alone.rows[exp_id]))
            assert (canonical_json(run.results[exp_id].rows)
                    == canonical_json(alone.results[exp_id].rows))

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

    def test_help_names_every_experiment(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        listed = re.search(r"experiment ids \(([^)]*)\)",
                           " ".join(capsys.readouterr().out.split()))
        assert listed is not None
        assert listed.group(1).split() == list(EXPERIMENTS)

    def test_unknown_experiment(self, capsys):
        assert cli_main(["zz"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_finished_lines_time_the_cells_then_each_derive(
            self, monkeypatch, capsys):
        # The shared run of every experiment's cells is timed first; each
        # experiment's own line then times only its derivation.
        clock = [100.0]

        def cells(quick):
            clock[0] += 5.0
            return []

        def derive(quick, rows):
            clock[0] += 2.0
            return ExperimentResult(exp_id="T1", title="stub")

        monkeypatch.setitem(EXPERIMENTS, "t1", Experiment(cells, derive))
        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        assert cli_main(["t1"]) == 0
        out = capsys.readouterr().out
        assert "[cells finished in 5.0s]" in out
        assert "[cells: 0 requested, 0 unique, 0 executed, 0 cached]" in out
        assert "[t1 finished in 2.0s]" in out
        assert out.index("[cells finished") < out.index("[t1 finished")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_profile_lines_cover_one_experiment_each(self, workers, capsys):
        # Each [profile] line counts its own experiment's rows: F1 runs
        # T1's cells, so both count those 11 trials, and T3's line
        # excludes T2's trials.  The total line counts each executed
        # cell once.
        try:
            assert cli_main(["--quick", "t1", "f1", "t2", "t3", "--profile",
                             "--workers", str(workers)]) == 0
        finally:
            set_profile_default(False)
        out = capsys.readouterr().out
        assert "[cells: 54 requested, 43 unique, 43 executed, 0 cached]" in out
        lines = out.splitlines()
        trials = {}
        for i, line in enumerate(lines):
            match = re.match(r"\[(\w+) finished in", line)
            if match and match.group(1) != "cells":
                profile = lines[i + 2]
                assert profile.startswith("[profile] ")
                trials[match.group(1)] = profile.split()[1]
        assert trials == {"t1": "11", "f1": "11", "t2": "24", "t3": "8"}
        assert "[profile] total: 43 trials: " in out

    def test_quick_run_with_save(self, tmp_path, capsys):
        code = cli_main(["--quick", "f4", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "F4" in out
        assert os.path.exists(tmp_path / "f4" / "rows.csv")

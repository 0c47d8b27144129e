"""Tests for the parallel executor subsystem (repro.exec).

Covers the acceptance properties of the subsystem:

* spec hashing is stable across processes and insensitive to tags;
* parallel (``workers=4``) rows are identical to serial rows;
* a sweep run twice against one cache dir executes zero trials the
  second time (cache-hit accounting);
* a sweep interrupted after k rows resumes executing only the rest;
* per-trial failures can be recorded instead of torching the sweep.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    CODE_VERSION_SALT,
    ExecutionError,
    ParallelExecutor,
    ResultCache,
    SweepJournal,
    TrialSpec,
    canonical_json,
    execute_cell,
    register_nodes,
    write_rows_atomic,
)
from repro.exec.cli import load_sweep_file, spec_from_template
from repro.exec.progress import ProgressSnapshot
from repro.harness.runner import run_trial
from repro.harness.sweeps import sweep, sweep_with_report
from repro.simnet.rng import derive_seeds


def tiny_spec(n=8, **tags) -> TrialSpec:
    """A fast Count trial on the fresh-spanning adversary."""
    return TrialSpec(
        schedule="fresh_spanning", schedule_params={"n": n},
        nodes="exact_count", node_params={"n": n},
        max_rounds=2000, until="quiescent", quiescence_window=16,
        oracle="count_exact", tags=tags)


@register_nodes("_test_failing_nodes")
def _failing_nodes(schedule, seed, *, n):
    raise RuntimeError(f"boom seed-dependent={seed}")


def failing_spec(n=4) -> TrialSpec:
    return TrialSpec(
        schedule="fresh_spanning", schedule_params={"n": n},
        nodes="_test_failing_nodes", node_params={"n": n},
        max_rounds=100)


class TestTrialSpec:
    def test_runs_through_run_trial(self):
        tr = run_trial(tiny_spec(), seed=3)
        assert tr.correct is True
        assert tr.stop_reason == "quiescent"

    def test_key_stable_and_tag_insensitive(self):
        a = tiny_spec().key(1)
        b = tiny_spec().key(1)
        assert a == b and len(a) == 64
        assert tiny_spec(label="x").key(1) == a  # tags excluded
        assert tiny_spec().key(2) != a           # seed included
        assert tiny_spec(n=9).key(1) != a        # params included
        assert tiny_spec().key(1, salt="other") != a

    def test_key_stable_across_processes(self):
        spec = tiny_spec()
        code = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.exec import TrialSpec\n"
            "spec = TrialSpec(schedule='fresh_spanning',"
            " schedule_params={{'n': 8}}, nodes='exact_count',"
            " node_params={{'n': 8}}, max_rounds=2000, until='quiescent',"
            " quiescence_window=16, oracle='count_exact')\n"
            "print(spec.key(1))\n"
        ).format(src=os.path.join(os.path.dirname(__file__), "..", "src"))
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == spec.key(1)

    def test_rejects_non_json_params(self):
        with pytest.raises(ConfigurationError, match="plain JSON"):
            TrialSpec(schedule="fresh_spanning",
                      schedule_params={"n": {8}},  # a set
                      nodes="exact_count", node_params={"n": 8},
                      max_rounds=100)

    def test_unknown_builder_fails_at_resolution(self):
        spec = TrialSpec(schedule="no_such_schedule",
                         schedule_params={}, nodes="exact_count",
                         node_params={"n": 4}, max_rounds=100)
        with pytest.raises(ConfigurationError, match="no_such_schedule"):
            run_trial(spec, 1)

    def test_unknown_stop_predicate_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="stop_when"):
            TrialSpec(
                schedule="fresh_spanning", schedule_params={"n": 4},
                nodes="exact_count", node_params={"n": 4},
                max_rounds=100, stop_when="no_such_predicate")

    def test_run_fields_enter_the_content_address(self):
        base = tiny_spec()
        key = base.key(1)
        for change in ({"loss_rate": 0.1},
                       {"stop_when": "dissemination_complete"},
                       {"schedule_seed": 7}):
            assert dataclasses.replace(base, **change).key(1) != key

    def test_schedule_seed_decouples_schedule_from_trial_seed(self):
        pinned = dataclasses.replace(tiny_spec(), schedule_seed=3)
        assert (pinned.build_schedule(1).edges(1).tolist()
                == tiny_spec().build_schedule(3).edges(1).tolist())

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1})


class TestCacheAndJournal:
    def test_cache_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = tiny_spec().key(1)
        assert cache.get(key) is None
        cache.put(key, {"rounds": 7})
        assert cache.get(key) == {"rounds": 7}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.writes == 1
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_cache_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = tiny_spec().key(1)
        cache.put(key, {"rounds": 7})
        with open(cache.path(key), "w") as fh:
            fh.write("{torn")
        assert cache.get(key) is None

    def test_journal_roundtrip_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path) as journal:
            journal.append("k1", {"rounds": 1})
            journal.append("k2", {"rounds": 2})
        with open(path, "a") as fh:
            fh.write('{"key": "k3", "row": {"rou')  # crash mid-append
        loaded = SweepJournal(path).load()
        assert loaded == {"k1": {"rounds": 1}, "k2": {"rounds": 2}}

    def test_write_rows_atomic(self, tmp_path):
        path = write_rows_atomic(str(tmp_path / "rows.json"),
                                 [{"a": 1}], meta={"m": 2})
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["rows"] == [{"a": 1}] and doc["meta"] == {"m": 2}
        assert not [p for p in os.listdir(tmp_path)
                    if p.endswith(".tmp")]


class TestExecutor:
    def cells(self, seeds=(1, 2, 3), n=8):
        return [(tiny_spec(n=n, n_tag=n), s) for s in seeds]

    def test_serial_run_and_tags(self):
        report = ParallelExecutor(workers=1).run(self.cells())
        assert report.total == report.executed == 3
        assert [r["seed"] for r in report.rows] == [1, 2, 3]
        assert all(r["n_tag"] == 8 for r in report.rows)
        assert all(r["correct"] for r in report.rows)

    def test_parallel_rows_identical_to_serial(self):
        cells = self.cells(seeds=(1, 2, 3, 4))
        serial = ParallelExecutor(workers=1).run(cells)
        parallel = ParallelExecutor(workers=4).run(cells)
        assert parallel.executed == serial.executed == 4
        assert canonical_json(parallel.rows) == canonical_json(serial.rows)

    def test_duplicate_cells_execute_once(self):
        cells = self.cells(seeds=(1, 1, 1))
        report = ParallelExecutor(workers=1).run(cells)
        assert report.executed == 1 and report.deduped == 2
        assert report.rows[0] == report.rows[1] == report.rows[2]

    def test_cache_second_run_executes_nothing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = ParallelExecutor(cache=cache_dir).run(self.cells())
        assert first.executed == 3 and first.cache_hits == 0
        second = ParallelExecutor(cache=cache_dir).run(self.cells())
        assert second.executed == 0 and second.cache_hits == 3
        assert canonical_json(second.rows) == canonical_json(first.rows)

    def test_resume_after_simulated_crash(self, tmp_path):
        journal_path = str(tmp_path / "sweep.jsonl")
        cells = self.cells(seeds=(1, 2, 3, 4, 5))
        full = ParallelExecutor(journal=journal_path).run(cells)
        assert full.executed == 5
        # Simulate a crash after k=2 completions: keep the journal's
        # first two lines plus a torn third.
        with open(journal_path) as fh:
            lines = fh.readlines()
        assert len(lines) == 5
        with open(journal_path, "w") as fh:
            fh.writelines(lines[:2])
            fh.write(lines[2][: len(lines[2]) // 2])  # torn record
        resumed = ParallelExecutor(journal=journal_path,
                                   resume=True).run(cells)
        assert resumed.resumed == 2
        assert resumed.executed == 3  # only the missing rows re-ran
        assert canonical_json(resumed.rows) == canonical_json(full.rows)

    def test_on_error_raise_keeps_sweep_resumable(self, tmp_path):
        journal_path = str(tmp_path / "j.jsonl")
        cells = [(tiny_spec(), 1), (failing_spec(), 1), (tiny_spec(), 2)]
        with pytest.raises(ExecutionError, match="boom"):
            ParallelExecutor(journal=journal_path).run(cells)
        assert len(SweepJournal(journal_path).load()) >= 1

    def test_on_error_record_captures_error_column(self):
        cells = [(tiny_spec(), 1), (failing_spec(), 1), (tiny_spec(), 2)]
        report = ParallelExecutor(on_error="record").run(cells)
        assert report.errors == 1
        assert "boom" in report.rows[1]["error"]
        assert report.rows[0]["correct"] and report.rows[2]["correct"]

    def test_error_rows_never_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cells = [(failing_spec(), 1)]
        first = ParallelExecutor(cache=cache_dir,
                                 on_error="record").run(cells)
        assert first.errors == 1
        second = ParallelExecutor(cache=cache_dir,
                                  on_error="record").run(cells)
        assert second.executed == 1  # re-executed, not served from cache

    def test_rejects_trial_config_cells(self):
        not_a_spec = {"schedule": "fresh_spanning", "nodes": "exact_count"}
        with pytest.raises(ConfigurationError, match="TrialSpec"):
            ParallelExecutor().run([(not_a_spec, 1)])

    def test_progress_snapshots_emitted(self):
        snaps = []
        ParallelExecutor(progress=snaps.append).run(self.cells())
        assert snaps[-1].done == snaps[-1].total == 3
        assert snaps[-1].executed == 3
        assert isinstance(snaps[0], ProgressSnapshot)


class TestSweepIntegration:
    def build(self, p):
        return tiny_spec(n=p["n"])

    def test_sweep_with_specs_merges_grid_point(self):
        rows = sweep(grid={"n": [4, 8]}, build=self.build, seeds=[1, 2])
        assert len(rows) == 4
        assert [(r["n"], r["seed"]) for r in rows] == [
            (4, 1), (4, 2), (8, 1), (8, 2)]

    def test_sweep_parallel_equals_serial(self):
        kwargs = dict(grid={"n": [4, 8]}, build=self.build, seeds=[1, 2])
        assert sweep(workers=4, **kwargs) == sweep(workers=1, **kwargs)

    def test_sweep_twice_with_cache_executes_zero(self, tmp_path):
        kwargs = dict(grid={"n": [4, 8]}, build=self.build, seeds=[1, 2],
                      cache_dir=str(tmp_path / "cache"))
        rows1, report1 = sweep_with_report(**kwargs)
        rows2, report2 = sweep_with_report(**kwargs)
        assert report1.executed == 4
        assert report2.executed == 0 and report2.cache_hits == 4
        assert rows1 == rows2

    def test_sweep_rejects_non_spec_builder(self):
        with pytest.raises(ConfigurationError, match="TrialSpec"):
            sweep(grid={"n": [4]}, build=lambda p: {"n": p["n"]})

    def test_sweep_on_error_record(self):
        def build(p):
            return failing_spec() if p["n"] == 6 else tiny_spec(n=p["n"])

        rows = sweep(grid={"n": [4, 6, 8]}, build=build, seeds=[1],
                     on_error="record")
        assert "error" in rows[1] and rows[1]["n"] == 6
        assert rows[0]["correct"] and rows[2]["correct"]

    @pytest.mark.slow
    def test_experiment_grid_parallel_matches_serial(self, tmp_path):
        from repro.exec import ExecOptions
        from repro.harness.experiments import run_t1

        serial = run_t1(quick=True)
        parallel = run_t1(quick=True, exec_opts=ExecOptions(
            workers=2, cache_dir=str(tmp_path / "cache")))
        assert canonical_json(serial.rows) == canonical_json(parallel.rows)


class TestExecCli:
    def sweep_doc(self):
        return {
            "grid": {"n": [4, 8]},
            "seeds": [1, 2],
            "spec": {
                "schedule": "fresh_spanning",
                "schedule_params": {"n": "$n"},
                "nodes": "exact_count",
                "node_params": {"n": "$n"},
                "max_rounds": 2000,
                "until": "quiescent",
                "quiescence_window": 16,
                "oracle": "count_exact",
            },
        }

    def test_spec_from_template_substitutes(self):
        spec = spec_from_template(self.sweep_doc()["spec"], {"n": 8})
        assert spec.schedule_params == {"n": 8}
        assert spec.tags == {"n": 8}

    def test_template_unknown_reference_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\$n"):
            spec_from_template(self.sweep_doc()["spec"], {"m": 8})

    def test_load_sweep_file_and_cli_run(self, tmp_path, capsys):
        from repro.exec.cli import main as exec_main

        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps(self.sweep_doc()))
        cells = load_sweep_file(str(sweep_file))
        assert len(cells) == 4
        out_file = tmp_path / "rows.json"
        code = exec_main(["run", str(sweep_file), "--workers", "2",
                          "--cache-dir", str(tmp_path / "cache"),
                          "--out", str(out_file), "--no-progress"])
        assert code == 0
        with open(out_file) as fh:
            assert len(json.load(fh)["rows"]) == 4
        assert "executed 4" in capsys.readouterr().out

    def test_cli_builders_lists_registry(self, capsys):
        from repro.exec.cli import main as exec_main

        assert exec_main(["builders"]) == 0
        out = capsys.readouterr().out
        assert "fresh_spanning" in out and "exact_count" in out

    def test_derive_seeds_stable(self):
        assert derive_seeds(42, 3) == derive_seeds(42, 3)
        assert len(set(derive_seeds(42, 10))) == 10
        assert derive_seeds(42, 3) != derive_seeds(43, 3)

    def test_salt_constant_unchanged(self):
        # Changing the salt silently orphans every cache on disk; bump it
        # deliberately (and this string) when trial semantics change.
        assert CODE_VERSION_SALT == "repro-exec-v2"

    def test_execute_cell_returns_measured_row(self):
        row = execute_cell(tiny_spec(ignored_tag=1), 1)
        assert "rounds" in row and "ignored_tag" not in row

"""Tests for the parallel executor subsystem (repro.exec).

Covers the acceptance properties of the subsystem:

* spec hashing is stable across processes and insensitive to tags;
* parallel (``workers=4``) rows are identical to serial rows;
* a sweep run twice against one cache dir executes zero trials the
  second time (cache-hit accounting);
* a sweep that lost k rows reruns only those k from the cache;
* per-trial failures can be recorded instead of torching the sweep.
"""

import dataclasses
import io
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
    TrialSpec,
    canonical_json,
    execute_cell,
    register_nodes,
)
from repro.exec.progress import ConsoleProgress, ProgressSnapshot
from repro.harness.runner import run_trial


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

    def test_cache_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = tiny_spec().key(1)
        cache.put(key, {"rounds": 7})
        with open(cache.path(key), "w") as fh:
            fh.write("{torn")
        assert cache.get(key) is None


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
        # A crash leaves some cells unwritten: deleting k=3 cache entries
        # reruns exactly those k, and the rows come out the same.
        cache_dir = str(tmp_path / "cache")
        cells = self.cells(seeds=(1, 2, 3, 4, 5))
        full = ParallelExecutor(cache=cache_dir).run(cells)
        assert full.executed == 5
        cache = ResultCache(cache_dir)
        for spec, seed in cells[1:4]:
            os.unlink(cache.path(cache.key(spec, seed)))
        resumed = ParallelExecutor(cache=cache_dir).run(cells)
        assert resumed.cache_hits == 2
        assert resumed.executed == 3  # only the missing rows re-ran
        assert canonical_json(resumed.rows) == canonical_json(full.rows)

    def test_on_error_raise_keeps_sweep_resumable(self, tmp_path):
        # The serial run stops at the failing cell; the cell completed
        # before it is a cache hit when the sweep is rerun.
        cache_dir = str(tmp_path / "cache")
        cells = [(tiny_spec(), 1), (failing_spec(), 1), (tiny_spec(), 2)]
        with pytest.raises(ExecutionError, match="boom"):
            ParallelExecutor(cache=cache_dir).run(cells)
        report = ParallelExecutor(cache=cache_dir,
                                  on_error="record").run(cells)
        assert report.cache_hits == 1 and report.executed == 2
        assert "boom" in report.rows[1]["error"]
        assert report.rows[0]["correct"] and report.rows[2]["correct"]

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
        # The finished snapshot arrives once, last.
        assert [s.done == s.total for s in snaps].count(True) == 1

    def test_progress_off_a_terminal_writes_one_line(self):
        stream = io.StringIO()
        ParallelExecutor(progress=ConsoleProgress("cells", stream=stream,
                                                  min_interval=0.0)
                         ).run(self.cells())
        text = stream.getvalue()
        assert "\r" not in text
        assert text.count("\n") == 1 and text.endswith("\n")
        assert text.startswith("[cells] 3/3 rows |")
        assert "exec 3 cache 0" in text

    @pytest.mark.slow
    def test_experiment_grid_parallel_matches_serial(self, tmp_path):
        # The whole quick grid, all experiments in one pass, on two
        # workers with a cache gives the serial rows.
        from repro.harness.experiments import EXPERIMENTS, run_experiments

        serial = run_experiments(list(EXPERIMENTS), quick=True)
        parallel = run_experiments(
            list(EXPERIMENTS), quick=True, executor=ParallelExecutor(
                workers=2, cache=str(tmp_path / "cache")))
        assert parallel.report.executed == serial.report.executed
        assert (canonical_json(parallel.report.rows)
                == canonical_json(serial.report.rows))
        for exp_id in EXPERIMENTS:
            assert (canonical_json(parallel.results[exp_id].rows)
                    == canonical_json(serial.results[exp_id].rows))


class TestExecCli:
    def test_salt_constant_unchanged(self):
        # Changing the salt silently orphans every cache on disk; bump it
        # deliberately (and this string) when trial semantics change.
        assert CODE_VERSION_SALT == "repro-exec-v2"

    def test_execute_cell_returns_measured_row(self):
        row = execute_cell(tiny_spec(ignored_tag=1), 1)
        assert "rounds" in row and "ignored_tag" not in row

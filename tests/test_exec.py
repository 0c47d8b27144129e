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
import hashlib
import io
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
    TrialSpec,
    canonical_json,
    execute_cell,
    register_nodes,
)
from repro.exec import specs as exec_specs
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


@register_nodes("_test_dying_nodes")
def _dying_nodes(schedule, seed, *, n, dies_on):
    """Exact Count nodes, except that seed *dies_on* kills its worker."""
    import multiprocessing

    if seed == dies_on and multiprocessing.parent_process() is not None:
        os._exit(1)
    return exec_specs._NODES["exact_count"](schedule, seed, n=n)


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

    def test_key_stable_and_tag_insensitive(self, monkeypatch):
        a = tiny_spec().key(1)
        b = tiny_spec().key(1)
        assert a == b and len(a) == 64
        assert tiny_spec(label="x").key(1) == a  # tags excluded
        assert tiny_spec().key(2) != a           # seed included
        assert tiny_spec(n=9).key(1) != a        # params included
        monkeypatch.setattr(exec_specs, "CODE_VERSION_SALT", "other")
        assert tiny_spec().key(1) != a           # salt included

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

    def test_key_hashes_one_canonical_json_of_spec_seed_and_salt(
            self, monkeypatch):
        """``key`` encodes the spec once but hashes the bytes of the
        whole ``{"spec", "seed", "salt"}`` object's canonical JSON."""
        odd = TrialSpec(
            schedule="overlap_handoff",
            schedule_params={"n": 16, "T": 4, "p": 0.5,
                             "path": [1, None, "\u00e9", {"b": 1, "a": 2}]},
            nodes="approx_count", node_params={"n": 16, "eps": 0.25},
            max_rounds=3000, loss_rate=0.1, schedule_seed=7,
            stop_when="dissemination_complete", tags={"t": 1})
        for spec in (tiny_spec(), tiny_spec(n=9, label="x"), odd):
            for seed in (0, 1, 2 ** 40):
                for salt in (CODE_VERSION_SALT, 'q"uot\u00e9'):
                    monkeypatch.setattr(exec_specs, "CODE_VERSION_SALT",
                                        salt)
                    blob = canonical_json({"spec": spec.payload(),
                                           "seed": seed, "salt": salt})
                    assert spec.key(seed) == hashlib.sha256(
                        blob.encode("utf-8")).hexdigest()
        # The key as first published for this spec: caches stay warm.
        monkeypatch.setattr(exec_specs, "CODE_VERSION_SALT", "pinned")
        assert tiny_spec().key(1) == (
            "94a856272d554de7ae266b43c873772338d2f0f4fddd0c8883da81b5dede801c")

    def test_int_loss_rate_shares_the_float_key(self):
        """``loss_rate`` is stored as the float it validates to, so an
        int rate and its float name one trial."""
        def spec(rate):
            return TrialSpec(schedule="fresh_spanning",
                             schedule_params={"n": 8}, nodes="exact_count",
                             node_params={"n": 8}, max_rounds=100,
                             loss_rate=rate)
        assert type(spec(0).loss_rate) is float
        assert spec(0).key(1) == spec(0.0).key(1)

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

    def test_cache_renamed_entry_is_a_miss(self, tmp_path):
        # An entry copied under another cell's name keeps its own key.
        cache = ResultCache(str(tmp_path))
        key, other = tiny_spec().key(1), tiny_spec().key(2)
        cache.put(key, {"rounds": 7})
        os.makedirs(os.path.dirname(cache.path(other)), exist_ok=True)
        os.replace(cache.path(key), cache.path(other))
        assert cache.get(other) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_cache_edited_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = tiny_spec().key(1)
        cache.put(key, {"rounds": 7, "correct": True})
        with open(cache.path(key)) as fh:
            text = fh.read()
        with open(cache.path(key), "w") as fh:
            fh.write(text.replace('"rounds": 7', '"rounds": 3'))
        assert cache.get(key) is None
        cache.put(key, {"rounds": 7, "correct": True})
        assert cache.get(key) == {"rounds": 7, "correct": True}

    def test_cache_bare_row_entry_is_a_miss(self, tmp_path):
        # Entries written before rows carried their key and digest.
        cache = ResultCache(str(tmp_path))
        key = tiny_spec().key(1)
        cache.put(key, {"rounds": 7})
        with open(cache.path(key), "w") as fh:
            json.dump({"rounds": 7}, fh)
        assert cache.get(key) is None

    def test_cache_digest_survives_json_round_trip(self, tmp_path):
        # Values JSON stores differently from how they came (tuples,
        # non-finite floats, objects written as strings) still verify.
        cache = ResultCache(str(tmp_path))
        key = tiny_spec().key(1)
        row = {"outputs": (1, 2), "ratio": float("nan"), "x": -0.0,
               "inf": float("inf"), "obj": frozenset({3})}
        cache.put(key, row)
        got = cache.get(key)
        assert got is not None and got["outputs"] == [1, 2]


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
            os.unlink(cache.path(spec.key(seed)))
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

    @pytest.mark.parametrize("on_error", ["record", "raise"])
    def test_dead_worker_fails_only_its_cell(self, on_error):
        spec = dataclasses.replace(
            tiny_spec(), nodes="_test_dying_nodes",
            node_params={"n": 8, "dies_on": 2})
        cells = [(spec, seed) for seed in (1, 2, 3, 4)]
        executor = ParallelExecutor(workers=2, on_error=on_error)
        if on_error == "raise":
            with pytest.raises(ExecutionError, match="seed=2"):
                executor.run(cells)
            return
        report = executor.run(cells)
        assert report.errors == 1 and report.executed == 4
        assert "BrokenProcessPool" in report.rows[1]["error"]
        serial = ParallelExecutor().run(cells[:1] + cells[2:])
        assert (canonical_json(report.rows[:1] + report.rows[2:])
                == canonical_json(serial.rows))

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
        ParallelExecutor(progress=ConsoleProgress("cells", stream=stream)
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

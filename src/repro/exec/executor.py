"""Process-pool experiment executor.

:class:`ParallelExecutor` runs a list of *cells* — ``(TrialSpec, seed)``
pairs — through up to four result sources, cheapest first:

1. the **journal** (``resume=True``): cells completed by a previous,
   possibly crashed, run of the same sweep;
2. the **result cache**: content-addressed rows from *any* previous run
   sharing the cache directory;
3. **deduplication**: identical cells inside one sweep execute once;
4. **execution**: serial in-process when ``workers <= 1``, otherwise a
   ``concurrent.futures.ProcessPoolExecutor``.

Determinism guarantee: a cell's row depends only on (spec, seed) — every
trial derives all randomness from ``RngRegistry(seed)`` inside
:func:`repro.harness.runner.run_trial` — and rows are assembled in input
order, so ``workers=4`` output is byte-identical to ``workers=1`` output
(asserted by the test suite).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .._validate import require_choice
from ..errors import ConfigurationError, ReproError
from .cache import ResultCache
from .journal import SweepJournal
from .progress import ConsoleProgress, ProgressCallback, ProgressSnapshot
from .specs import TrialSpec

__all__ = ["Cell", "ExecutionError", "ExecutionReport", "ExecOptions",
           "ParallelExecutor", "execute_cell"]

Cell = Tuple[TrialSpec, int]


class ExecutionError(ReproError):
    """A cell raised and the executor was configured to stop."""


def execute_cell(spec: TrialSpec, seed: int) -> Dict[str, Any]:
    """Run one cell and return its *measured* row (tags not merged).

    This is the unit of work shipped to worker processes; it is also the
    unit that gets cached, which is why tags — pure row labels — are
    merged only afterwards, letting relabelled grids share cache entries.

    :func:`~repro.harness.runner.run_trial` resolves the spec's
    builders, so it can also stamp event streams with the spec's label
    and content-address hash (see :mod:`repro.obs`).
    """
    from ..harness.runner import run_trial

    return run_trial(spec, seed).as_row()


def _record_worker_phases(row: Dict[str, Any]) -> None:
    """Fold a worker-executed row's ``phase.*`` timings and ``engine.*``
    tier counts into the parent process's accumulators (worker-side
    accumulators die with the pool)."""
    phases = {key[len("phase."):-len("_s")]: value
              for key, value in row.items()
              if key.startswith("phase.") and key.endswith("_s")
              and isinstance(value, (int, float))}
    if phases:
        from ..harness.runner import record_phase_seconds

        record_phase_seconds(phases)
    tiers = {key[len("engine."):-len("_rounds")]: value
             for key, value in row.items()
             if key.startswith("engine.") and key.endswith("_rounds")
             and isinstance(value, int)}
    if tiers:
        from ..harness.runner import record_engine_stats

        record_engine_stats(tiers)


def _pool_run_cell(payload: Cell) -> Tuple[str, Any]:
    """Worker-process entry point: never raises across the pipe."""
    spec, seed = payload
    try:
        return "ok", execute_cell(spec, seed)
    except Exception as exc:  # noqa: BLE001 - faithfully forwarded
        return "error", f"{type(exc).__name__}: {exc}"


def _error_row(seed: int, message: str) -> Dict[str, Any]:
    return {"seed": seed, "error": message}


@dataclass
class ExecutionReport:
    """Outcome of one :meth:`ParallelExecutor.run` call.

    ``rows`` is in input-cell order with each spec's tags merged in;
    the counters satisfy ``executed + cache_hits + resumed + deduped ==
    total`` on a clean run.
    """

    rows: List[Dict[str, Any]] = field(default_factory=list)
    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    deduped: int = 0
    errors: int = 0
    elapsed: float = 0.0

    def summary(self) -> str:
        """One-line accounting string for logs and the CLI."""
        return (f"{self.total} rows in {self.elapsed:.1f}s "
                f"(executed {self.executed}, cache {self.cache_hits}, "
                f"resumed {self.resumed}, deduped {self.deduped}, "
                f"errors {self.errors})")


@dataclass(frozen=True)
class ExecOptions:
    """Executor knobs threaded through the harness and CLIs.

    A plain bag of settings so experiment functions can accept one
    optional argument instead of five; ``None`` everywhere means the
    historical serial behaviour.
    """

    workers: int = 1
    cache_dir: Optional[str] = None
    journal_dir: Optional[str] = None
    resume: bool = False
    on_error: str = "raise"
    progress: bool = False

    def make_executor(self, label: str = "sweep") -> "ParallelExecutor":
        """Build the executor these options describe.

        *label* names the journal file (``<journal_dir>/<label>.jsonl``)
        and the console progress prefix.
        """
        journal = None
        if self.journal_dir is not None:
            journal = os.path.join(self.journal_dir, f"{label}.jsonl")
        return ParallelExecutor(
            workers=self.workers,
            cache=self.cache_dir,
            journal=journal,
            resume=self.resume,
            on_error=self.on_error,
            progress=ConsoleProgress(label) if self.progress else None,
        )


class ParallelExecutor:
    """Run trial cells across worker processes with caching and resume.

    Parameters
    ----------
    workers:
        Process count; ``<= 1`` runs serially in-process (no pool, no
        pickling — the historical code path).
    cache:
        A :class:`ResultCache`, a cache-directory path, or ``None``.
    journal:
        A :class:`SweepJournal`, a journal-file path, or ``None``.
        Completions are appended as they happen, so a crashed run is
        resumable from its journal.
    resume:
        Replay the journal before executing anything; only cells absent
        from it run.
    on_error:
        ``"raise"`` (default) aborts on the first failing cell — already
        completed cells stay journaled/cached, so the sweep is
        resumable; ``"record"`` captures the failure into an ``error``
        column and keeps going.
    progress:
        Optional callback receiving :class:`ProgressSnapshot` updates.
    """

    def __init__(self, workers: int = 1,
                 cache: Optional[Any] = None,
                 journal: Optional[Any] = None,
                 resume: bool = False,
                 on_error: str = "raise",
                 progress: Optional[ProgressCallback] = None) -> None:
        self.workers = max(1, int(workers))
        self.cache: Optional[ResultCache] = (
            ResultCache(cache) if isinstance(cache, (str, os.PathLike))
            else cache)
        self.journal: Optional[SweepJournal] = (
            SweepJournal(journal) if isinstance(journal, (str, os.PathLike))
            else journal)
        self.resume = bool(resume)
        self.on_error = require_choice(on_error, "on_error",
                                       ("raise", "record"))
        self.progress = progress

    # -- main entry point --------------------------------------------------

    def run(self, cells: Sequence[Cell]) -> ExecutionReport:
        """Execute *cells*, returning rows in input order."""
        cells = list(cells)
        for spec, seed in cells:
            if not isinstance(spec, TrialSpec):
                raise ConfigurationError(
                    "ParallelExecutor cells must be (TrialSpec, seed) "
                    f"pairs; got {type(spec).__name__}")
        report = ExecutionReport(total=len(cells))
        started = time.monotonic()
        keys = [self._key(spec, seed) for spec, seed in cells]

        # Result slots by input index; filled from journal, cache, then
        # execution.  A separate per-key index drives deduplication.
        results: Dict[int, Dict[str, Any]] = {}
        by_key: Dict[str, List[int]] = {}
        for idx, key in enumerate(keys):
            by_key.setdefault(key, []).append(idx)

        journaled = (self.journal.load()
                     if (self.resume and self.journal is not None) else {})
        pending: List[int] = []     # first index of each key still to run
        for key, idxs in by_key.items():
            row = journaled.get(key)
            if row is not None:
                report.resumed += 1
            elif self.cache is not None:
                row = self.cache.get(key)
                if row is not None:
                    report.cache_hits += 1
                    self._journal(key, row)
            if row is not None:
                for idx in idxs:
                    results[idx] = row
            else:
                pending.append(idxs[0])
            report.deduped += len(idxs) - 1

        self._notify(report, started, results, ())
        try:
            if pending:
                if self.workers == 1 or len(pending) == 1:
                    self._run_serial(cells, keys, by_key, pending,
                                     results, report, started)
                else:
                    self._run_pool(cells, keys, by_key, pending,
                                   results, report, started)
        finally:
            if self.journal is not None:
                self.journal.close()

        report.rows = [
            {**results[idx], **dict(cells[idx][0].tags)}
            for idx in range(len(cells))
        ]
        report.elapsed = time.monotonic() - started
        self._notify(report, started, results, ())
        return report

    # -- result-source helpers ---------------------------------------------

    def _key(self, spec: TrialSpec, seed: int) -> str:
        if self.cache is not None:
            return self.cache.key(spec, seed)
        return spec.key(seed)

    def _journal(self, key: str, row: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(key, row)

    def _complete(self, key: str, row: Dict[str, Any],
                  by_key: Dict[str, List[int]],
                  results: Dict[int, Dict[str, Any]],
                  cacheable: bool = True) -> None:
        for idx in by_key[key]:
            results[idx] = row
        # Profiled trials carry wall-clock phase.* columns and engine.*
        # tier counts; recorded trials carry obs.* event counters and
        # cache.* hit/miss counters.  None of that is deterministic row
        # data (the tier split and cache behaviour are implementation
        # observables that may change across engine versions, and
        # recording is a run-mode choice), so it stays in the in-memory
        # rows but never enters the journal or the content-addressed
        # cache — which promise identical rows for identical
        # (spec, seed), however the row was produced.
        from ..harness.runner import durable_row

        durable = durable_row(row)
        self._journal(key, durable)
        if cacheable and self.cache is not None:
            self.cache.put(key, durable)

    def _notify(self, report: ExecutionReport, started: float,
                results: Dict[int, Dict[str, Any]],
                in_flight: Tuple[str, ...]) -> None:
        if self.progress is None:
            return
        self.progress(ProgressSnapshot(
            total=report.total,
            done=len(results),
            executed=report.executed,
            cache_hits=report.cache_hits,
            resumed=report.resumed,
            errors=report.errors,
            elapsed=time.monotonic() - started,
            in_flight=in_flight,
        ))

    def _failure(self, cells: Sequence[Cell], idx: int, key: str,
                 message: str, by_key: Dict[str, List[int]],
                 results: Dict[int, Dict[str, Any]],
                 report: ExecutionReport) -> None:
        spec, seed = cells[idx]
        if self.on_error == "raise":
            raise ExecutionError(
                f"cell {spec.label()} seed={seed} failed: {message} "
                f"(completed cells are journaled/cached; re-run with "
                f"resume to skip them)")
        report.errors += 1
        # Error rows are journaled (the sweep is complete on resume) but
        # never cached — a fixed bug should re-execute the cell.
        self._complete(key, _error_row(seed, message), by_key, results,
                       cacheable=False)

    # -- serial path ---------------------------------------------------------

    def _run_serial(self, cells: Sequence[Cell], keys: Sequence[str],
                    by_key: Dict[str, List[int]], pending: Sequence[int],
                    results: Dict[int, Dict[str, Any]],
                    report: ExecutionReport, started: float) -> None:
        for idx in pending:
            spec, seed = cells[idx]
            self._notify(report, started, results, (spec.label(),))
            try:
                row = execute_cell(spec, seed)
            except Exception as exc:  # noqa: BLE001
                report.executed += 1
                self._failure(cells, idx, keys[idx],
                              f"{type(exc).__name__}: {exc}",
                              by_key, results, report)
                continue
            report.executed += 1
            self._complete(keys[idx], row, by_key, results)
            self._notify(report, started, results, ())

    # -- parallel path -------------------------------------------------------

    def _run_pool(self, cells: Sequence[Cell], keys: Sequence[str],
                  by_key: Dict[str, List[int]], pending: Sequence[int],
                  results: Dict[int, Dict[str, Any]],
                  report: ExecutionReport, started: float) -> None:
        workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for idx in pending:
                spec, seed = cells[idx]
                futures[pool.submit(_pool_run_cell, (spec, seed))] = idx
            try:
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                    for fut in done:
                        idx = futures[fut]
                        status, payload = fut.result()
                        report.executed += 1
                        if status == "ok":
                            _record_worker_phases(payload)
                            self._complete(keys[idx], payload, by_key,
                                           results)
                        else:
                            self._failure(cells, idx, keys[idx], payload,
                                          by_key, results, report)
                        in_flight = tuple(
                            cells[futures[f]][0].label() for f in not_done)
                        self._notify(report, started, results, in_flight)
            except BaseException:
                for fut in futures:
                    fut.cancel()
                raise

"""Process-pool experiment executor.

:class:`ParallelExecutor` runs a list of *cells* — ``(TrialSpec, seed)``
pairs — through up to three result sources, cheapest first:

1. the **result cache**: content-addressed rows from *any* previous run
   sharing the cache directory — each completed row is written to it
   atomically, so it is also what makes a crashed run resumable;
2. **deduplication**: identical cells inside one run execute once;
3. **execution**: serial in-process when ``workers <= 1``, otherwise a
   ``concurrent.futures.ProcessPoolExecutor``.

Determinism guarantee: a cell's row depends only on (spec, seed) — every
trial derives all randomness from ``RngRegistry(seed)`` inside
:func:`repro.harness.runner.run_trial` — and rows are assembled in input
order, so ``workers=4`` output is byte-identical to ``workers=1`` output
(asserted by the test suite).

Telemetry — the ``phase.*`` / ``engine.*`` columns of profiled rows —
stays in the returned rows of freshly executed cells and never enters
the cache; callers fold it from ``ExecutionReport.rows``.
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
from .progress import ProgressCallback, ProgressSnapshot
from .specs import TrialSpec

__all__ = ["Cell", "ExecutionError", "ExecutionReport", "ParallelExecutor",
           "execute_cell"]

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
    the counters satisfy ``executed + cache_hits + deduped == total`` on
    a clean run.
    """

    rows: List[Dict[str, Any]] = field(default_factory=list)
    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    errors: int = 0
    elapsed: float = 0.0


class ParallelExecutor:
    """Run trial cells across worker processes with a result cache.

    Parameters
    ----------
    workers:
        Process count; ``<= 1`` runs serially in-process (no pool, no
        pickling — the historical code path).
    cache:
        A :class:`ResultCache`, a cache-directory path, or ``None``.
        Each completed row is written as it arrives, so rerunning a
        crashed or aborted run executes only the missing cells.
    on_error:
        ``"raise"`` (default) aborts on the first failing cell — already
        completed cells stay cached; ``"record"`` captures the failure
        into an ``error`` column and keeps going.
    progress:
        Optional callback receiving :class:`ProgressSnapshot` updates.
    """

    def __init__(self, workers: int = 1,
                 cache: Optional[Any] = None,
                 on_error: str = "raise",
                 progress: Optional[ProgressCallback] = None) -> None:
        self.workers = max(1, int(workers))
        self.cache: Optional[ResultCache] = (
            ResultCache(cache) if isinstance(cache, (str, os.PathLike))
            else cache)
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
        keys = [spec.key(seed) for spec, seed in cells]

        # Result slots by input index; filled from the cache, then by
        # execution.  A separate per-key index drives deduplication.
        results: Dict[int, Dict[str, Any]] = {}
        by_key: Dict[str, List[int]] = {}
        for idx, key in enumerate(keys):
            by_key.setdefault(key, []).append(idx)

        pending: List[int] = []     # first index of each key still to run
        for key, idxs in by_key.items():
            row = self.cache.get(key) if self.cache is not None else None
            if row is not None:
                report.cache_hits += 1
                for idx in idxs:
                    results[idx] = row
            else:
                pending.append(idxs[0])
            report.deduped += len(idxs) - 1

        self._notify(report, started, results, ())
        if pending:
            if self.workers == 1 or len(pending) == 1:
                self._run_serial(cells, keys, by_key, pending,
                                 results, report, started)
            else:
                self._run_pool(cells, keys, by_key, pending,
                               results, report, started)

        report.rows = [
            {**results[idx], **dict(cells[idx][0].tags)}
            for idx in range(len(cells))
        ]
        report.elapsed = time.monotonic() - started
        self._notify(report, started, results, (), final=True)
        return report

    # -- result-source helpers ---------------------------------------------

    def _complete(self, key: str, row: Dict[str, Any],
                  by_key: Dict[str, List[int]],
                  results: Dict[int, Dict[str, Any]],
                  cacheable: bool = True) -> None:
        for idx in by_key[key]:
            results[idx] = row
        # Profiled trials carry wall-clock phase.* columns and engine.*
        # tier counts.  Neither is deterministic row data (the tier split
        # is an implementation observable that may change across engine
        # versions, and profiling is a run-mode choice), so both stay in
        # the in-memory rows but never enter the content-addressed cache
        # — which promises identical rows for identical (spec, seed),
        # however the row was produced.
        if cacheable and self.cache is not None:
            from ..harness.runner import durable_row

            self.cache.put(key, durable_row(row))

    def _notify(self, report: ExecutionReport, started: float,
                results: Dict[int, Dict[str, Any]],
                in_flight: Tuple[str, ...], final: bool = False) -> None:
        # Only the closing call reports a finished run, so a reporter
        # receives the finished snapshot once.
        if self.progress is None or (len(results) == report.total
                                     and not final):
            return
        self.progress(ProgressSnapshot(
            total=report.total,
            done=len(results),
            executed=report.executed,
            cache_hits=report.cache_hits,
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
                f"(completed cells are cached when a cache is set; a "
                f"rerun executes only the missing ones)")
        report.errors += 1
        # Error rows are never cached — a fixed bug should re-execute
        # the cell.
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

"""Process-pool experiment executor.

:class:`ParallelExecutor` runs a list of *cells* — ``(TrialSpec, seed)``
pairs — through up to three result sources, cheapest first:

1. the **result cache**: content-addressed rows from *any* previous run
   sharing the cache directory — each completed row is written to it
   atomically, so it is also what makes a crashed run resumable;
2. **deduplication**: identical cells inside one run execute once;
3. **execution**: serial in-process when ``workers <= 1``, otherwise a
   ``concurrent.futures.ProcessPoolExecutor``.  A worker that dies
   breaks the pool; each cell it left unfinished then reruns in its own
   one-worker pool, and a cell that kills that worker too fails as any
   raising cell does.

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
from concurrent.futures.process import BrokenProcessPool
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


def _run_cell(payload: Cell) -> Tuple[str, Any]:
    """``("ok", row)`` or ``("error", message)``: never raises, so no
    exception crosses a worker's pipe."""
    spec, seed = payload
    try:
        return "ok", execute_cell(spec, seed)
    except Exception as exc:  # noqa: BLE001 - faithfully forwarded
        return "error", f"{type(exc).__name__}: {exc}"


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


@dataclass
class _Pass:
    """One :meth:`ParallelExecutor.run` call's state: rows found so far
    by input index, and the input indices sharing each cache key."""

    cells: List[Cell]
    keys: List[str]
    by_key: Dict[str, List[int]]
    report: ExecutionReport
    started: float
    results: Dict[int, Dict[str, Any]] = field(default_factory=dict)


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
        keys = [spec.key(seed) for spec, seed in cells]
        # Result slots by input index are filled from the cache, then by
        # execution; the per-key index drives deduplication.
        by_key: Dict[str, List[int]] = {}
        for idx, key in enumerate(keys):
            by_key.setdefault(key, []).append(idx)
        p = _Pass(cells, keys, by_key, report, time.monotonic())

        pending: List[int] = []     # first index of each key still to run
        for key, idxs in by_key.items():
            row = self.cache.get(key) if self.cache is not None else None
            if row is not None:
                report.cache_hits += 1
                for idx in idxs:
                    p.results[idx] = row
            else:
                pending.append(idxs[0])
            report.deduped += len(idxs) - 1

        self._notify(p, ())
        if self.workers > 1 and len(pending) > 1:
            self._run_pool(p, pending)
        else:
            self._run_serial(p, pending)

        report.rows = [
            {**p.results[idx], **dict(cells[idx][0].tags)}
            for idx in range(len(cells))
        ]
        report.elapsed = time.monotonic() - p.started
        self._notify(p, (), final=True)
        return report

    # -- result-source helpers ---------------------------------------------

    def _complete(self, p: _Pass, key: str, row: Dict[str, Any],
                  cacheable: bool = True) -> None:
        for idx in p.by_key[key]:
            p.results[idx] = row
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

    def _notify(self, p: _Pass, in_flight: Tuple[str, ...],
                final: bool = False) -> None:
        # Only the closing call reports a finished run, so a reporter
        # receives the finished snapshot once.
        report = p.report
        if self.progress is None or (len(p.results) == report.total
                                     and not final):
            return
        self.progress(ProgressSnapshot(
            total=report.total,
            done=len(p.results),
            executed=report.executed,
            cache_hits=report.cache_hits,
            errors=report.errors,
            elapsed=time.monotonic() - p.started,
            in_flight=in_flight,
        ))

    def _finish(self, p: _Pass, idx: int, outcome: Tuple[str, Any]) -> None:
        p.report.executed += 1
        status, payload = outcome
        if status == "ok":
            self._complete(p, p.keys[idx], payload)
            return
        spec, seed = p.cells[idx]
        if self.on_error == "raise":
            raise ExecutionError(
                f"cell {spec.label()} seed={seed} failed: {payload} "
                f"(completed cells are cached when a cache is set; a "
                f"rerun executes only the missing ones)")
        p.report.errors += 1
        # Error rows are never cached — a fixed bug should re-execute
        # the cell.
        self._complete(p, p.keys[idx], {"seed": seed, "error": payload},
                       cacheable=False)

    # -- serial path ---------------------------------------------------------

    def _run_serial(self, p: _Pass, pending: Sequence[int]) -> None:
        for idx in pending:
            self._notify(p, (p.cells[idx][0].label(),))
            self._finish(p, idx, _run_cell(p.cells[idx]))
            self._notify(p, ())

    # -- parallel path -------------------------------------------------------

    def _run_pool(self, p: _Pass, pending: Sequence[int]) -> None:
        # A dead worker breaks the whole pool: rerun each cell it left
        # unfinished alone, so a cell that kills its own worker too is
        # the culprit and the others still complete.
        for idx in self._pool_pass(p, pending):
            if self._pool_pass(p, [idx]):
                self._finish(p, idx, ("error",
                                      "BrokenProcessPool: the worker died"))

    def _pool_pass(self, p: _Pass, pending: Sequence[int]) -> List[int]:
        """Run *pending* on one fresh pool; returns, in input order, the
        cells left unfinished when a worker died."""
        lost: List[int] = []
        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending)))
        try:
            futures = {pool.submit(_run_cell, p.cells[idx]): idx
                       for idx in pending}
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in done:
                    try:
                        outcome = fut.result()
                    except BrokenProcessPool:
                        lost.append(futures[fut])
                        continue
                    self._finish(p, futures[fut], outcome)
                    self._notify(p, tuple(p.cells[futures[f]][0].label()
                                          for f in not_done))
        finally:
            pool.shutdown(cancel_futures=True)
        return sorted(lost)

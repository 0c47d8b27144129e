"""S9 — parallel experiment execution.

The executor subsystem turns the harness's serial trial loops into
resumable, cacheable, multi-process sweeps:

* :mod:`~repro.exec.specs` — :class:`TrialSpec`, the declarative,
  picklable trial description (registry names + plain-data params), the
  one way experiments describe work;
* :mod:`~repro.exec.cache` — :class:`ResultCache`, content-addressed
  rows on disk (sha256 of spec + seed + code-version salt), so reruns
  execute only missing cells;
* :mod:`~repro.exec.journal` — :class:`SweepJournal`, an append-only
  JSONL checkpoint making interrupted sweeps resumable, plus atomic
  publication of final artefacts;
* :mod:`~repro.exec.executor` — :class:`ParallelExecutor`, the process
  pool that composes all of the above (``workers=1`` preserves the
  historical serial path) with a byte-identical determinism guarantee;
* :mod:`~repro.exec.progress` — live rows/rate/ETA/per-worker reporting;
* :mod:`~repro.exec.cli` — ``python -m repro.exec`` verbs (``run``,
  ``builders``, ``cache``).

See ``docs/EXECUTOR.md`` for the architecture tour.
"""

from .specs import (
    CODE_VERSION_SALT,
    TrialSpec,
    canonical_json,
    node_builders,
    oracle_builders,
    register_nodes,
    register_oracle,
    register_schedule,
    schedule_builders,
)
from .cache import CacheStats, ResultCache
from .journal import SweepJournal, write_rows_atomic
from .progress import ConsoleProgress, ProgressSnapshot
from .executor import (
    ExecOptions,
    ExecutionError,
    ExecutionReport,
    ParallelExecutor,
    execute_cell,
)

__all__ = [
    "CODE_VERSION_SALT",
    "TrialSpec",
    "canonical_json",
    "register_schedule",
    "register_nodes",
    "register_oracle",
    "schedule_builders",
    "node_builders",
    "oracle_builders",
    "CacheStats",
    "ResultCache",
    "SweepJournal",
    "write_rows_atomic",
    "ConsoleProgress",
    "ProgressSnapshot",
    "ExecOptions",
    "ExecutionError",
    "ExecutionReport",
    "ParallelExecutor",
    "execute_cell",
]

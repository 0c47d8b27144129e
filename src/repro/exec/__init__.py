"""S9 — parallel experiment execution.

The executor subsystem runs trial cells as cacheable, multi-process
sweeps that a rerun resumes from the cache:

* :mod:`~repro.exec.specs` — :class:`TrialSpec`, the declarative,
  picklable trial description (registry names + plain-data params), the
  one way experiments describe work;
* :mod:`~repro.exec.cache` — :class:`ResultCache`, content-addressed
  rows on disk (sha256 of spec + seed + code-version salt), written
  atomically as each cell completes, so reruns — after a crash too —
  execute only missing cells;
* :mod:`~repro.exec.executor` — :class:`ParallelExecutor`, the process
  pool that composes the above (``workers=1`` preserves the
  historical serial path) with a byte-identical determinism guarantee;
* :mod:`~repro.exec.progress` — live rows/rate/ETA/per-worker reporting.

``repro-experiments`` (:mod:`repro.harness.cli`) is the command-line
front end: it runs every requested experiment's cells in one
``ParallelExecutor.run`` call, configured by ``--workers/--cache-dir``.

See ``docs/EXECUTOR.md`` for the architecture tour.
"""

from .specs import (
    CODE_VERSION_SALT,
    TrialSpec,
    canonical_json,
    register_nodes,
    register_oracle,
    register_schedule,
)
from .cache import CacheStats, ResultCache
from .progress import ConsoleProgress, ProgressSnapshot
from .executor import (
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
    "CacheStats",
    "ResultCache",
    "ConsoleProgress",
    "ProgressSnapshot",
    "ExecutionError",
    "ExecutionReport",
    "ParallelExecutor",
    "execute_cell",
]

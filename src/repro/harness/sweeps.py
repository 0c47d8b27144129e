"""Parameter sweeps: cartesian grids of trials, flattened to result rows.

The experiment functions in :mod:`repro.harness.experiments` build
their own cell lists; this module offers the same machinery as a
reusable utility for users running their own studies.  ``build`` maps a
grid point to a declarative :class:`~repro.exec.TrialSpec`, and the
cells run through the full executor: worker processes, the
content-addressed result cache, and crash-safe resume::

    from repro.exec import TrialSpec
    from repro.harness.sweeps import sweep

    rows = sweep(
        grid={"n": [32, 64], "T": [1, 2, 4]},
        build=lambda p: TrialSpec(
            schedule="lowdiam_handoff",
            schedule_params={"n": p["n"], "T": p["T"]},
            nodes="exact_count", node_params={"n": p["n"]},
            max_rounds=10_000, until="quiescent", quiescence_window=64,
            oracle="count_exact"),
        seeds=[1, 2, 3],
        workers=4, cache_dir=".repro-cache")

Each row carries the grid point, the seed, and the standard measured
quantities (see :meth:`repro.harness.runner.TrialResult.as_row`);
:func:`aggregate_rows` collapses replicates into mean/std per grid point.
Parallel rows are byte-identical to serial rows for the same seeds — all
randomness derives from the per-trial seed via
:class:`repro.simnet.rng.RngRegistry`.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..errors import ConfigurationError
from ..exec.executor import ExecutionReport, ParallelExecutor
from ..exec.specs import TrialSpec
from ..analysis.stats import summarize

__all__ = ["grid_points", "sweep", "sweep_with_report", "aggregate_rows"]

ProgressFn = Callable[[Dict[str, Any], int], None]
BuildFn = Callable[[Dict[str, Any]], TrialSpec]


def grid_points(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of a parameter grid, as a list of dicts.

    Keys iterate in insertion order, the last key varying fastest.
    """
    if not grid:
        return [{}]
    keys = list(grid)
    for key, values in grid.items():
        if not isinstance(values, (list, tuple)):
            raise TypeError(
                f"grid[{key!r}] must be a list/tuple of values, got "
                f"{type(values).__name__}")
        if not values:
            raise ValueError(f"grid[{key!r}] is empty")
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(grid[k] for k in keys))]


def sweep_with_report(grid: Mapping[str, Sequence[Any]],
                      build: BuildFn,
                      seeds: Sequence[int] = (1,),
                      progress: Optional[ProgressFn] = None,
                      *,
                      workers: int = 1,
                      cache_dir: Optional[str] = None,
                      journal: Optional[str] = None,
                      resume: bool = False,
                      on_error: str = "raise",
                      ) -> Tuple[List[Dict[str, Any]], ExecutionReport]:
    """Like :func:`sweep`, but also return the execution accounting.

    The :class:`~repro.exec.ExecutionReport` carries the executed /
    cache-hit / resumed / error counters — e.g. a fully warm rerun shows
    ``executed == 0``.
    """
    points = grid_points(grid)
    built = [(point, build(point)) for point in points]
    for _point, spec in built:
        if not isinstance(spec, TrialSpec):
            raise ConfigurationError(
                "build must return a repro.exec.TrialSpec for every "
                f"point; got {type(spec).__name__}")
    executor = ParallelExecutor(
        workers=workers, cache=cache_dir, journal=journal,
        resume=resume, on_error=on_error)
    if progress is not None:
        # The per-cell callback fires at dispatch, and the executor
        # dispatches the whole grid up front.
        for point, _spec in built:
            for seed in seeds:
                progress(point, seed)
    report = executor.run([(spec.with_tags(**point), seed)
                           for point, spec in built for seed in seeds])
    return report.rows, report


def sweep(grid: Mapping[str, Sequence[Any]],
          build: BuildFn,
          seeds: Sequence[int] = (1,),
          progress: Optional[ProgressFn] = None,
          *,
          workers: int = 1,
          cache_dir: Optional[str] = None,
          journal: Optional[str] = None,
          resume: bool = False,
          on_error: str = "raise",
          ) -> List[Dict[str, Any]]:
    """Run ``build(point)`` for every grid point × seed; return flat rows.

    Parameters
    ----------
    grid / build / seeds:
        The study: cartesian grid, a builder mapping one point to a
        :class:`TrialSpec`, and the replicate seeds.
    progress:
        Optional ``(point, seed) -> None`` callback, invoked once per
        cell as it is dispatched.
    workers:
        Process count; ``1`` runs serially in-process with identical
        output.
    cache_dir / journal / resume:
        Content-addressed cache directory, JSONL checkpoint path, and
        journal replay — see :mod:`repro.exec`.
    on_error:
        ``"raise"`` (default) propagates the first trial failure;
        ``"record"`` captures it as an ``error`` column in the row so a
        single bad grid cell does not torch a long sweep.
    """
    rows, _report = sweep_with_report(
        grid, build, seeds, progress, workers=workers, cache_dir=cache_dir,
        journal=journal, resume=resume, on_error=on_error)
    return rows


def aggregate_rows(rows: Sequence[Dict[str, Any]],
                   group_by: Sequence[str],
                   value: str = "rounds") -> List[Dict[str, Any]]:
    """Collapse replicate rows into mean/std/min/max per group.

    Groups by the given keys (e.g. the grid keys), summarising the
    *value* column; non-numeric or missing values raise.
    """
    groups: Dict[tuple, List[float]] = {}
    order: List[tuple] = []
    for row in rows:
        key = tuple(row[k] for k in group_by)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(float(row[value]))
    out = []
    for key in order:
        summary = summarize(groups[key])
        entry: Dict[str, Any] = dict(zip(group_by, key))
        entry.update({
            f"{value}_mean": summary.mean,
            f"{value}_std": summary.std,
            f"{value}_min": summary.minimum,
            f"{value}_max": summary.maximum,
            "replicates": summary.n,
        })
        out.append(entry)
    return out

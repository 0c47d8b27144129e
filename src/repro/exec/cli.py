"""``python -m repro.exec`` — run declarative sweeps from the shell.

Verbs::

    python -m repro.exec run SWEEP.json --workers 4 --cache-dir .repro-cache \\
        --journal sweep.jsonl --resume --out rows.json
    python -m repro.exec builders          # list registered spec builders
    python -m repro.exec cache --dir .repro-cache [--clear]

A sweep file describes a grid, seeds, and one spec template; ``"$name"``
strings in the template substitute the grid point's value for ``name``::

    {
      "grid": {"n": [16, 32], "T": [1, 2]},
      "seeds": [1, 2, 3],
      "spec": {
        "schedule": "lowdiam_handoff",
        "schedule_params": {"n": "$n", "T": "$T"},
        "nodes": "exact_count",
        "node_params": {"n": "$n"},
        "max_rounds": 4000,
        "until": "quiescent",
        "quiescence_window": 64,
        "oracle": "count_exact"
      }
    }

``"seeds"`` may also be ``{"root": R, "count": C}``, expanded through
:func:`repro.simnet.rng.derive_seeds`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Mapping, Optional

from ..errors import ConfigurationError
from .cache import ResultCache
from .executor import Cell, ParallelExecutor
from .journal import write_rows_atomic
from .progress import ConsoleProgress
from .specs import (
    TrialSpec,
    node_builders,
    oracle_builders,
    schedule_builders,
)

__all__ = ["main", "spec_from_template", "load_sweep_file"]


def spec_from_template(template: Mapping[str, Any],
                       point: Mapping[str, Any]) -> TrialSpec:
    """Instantiate a spec template at one grid point.

    Every string of the form ``"$name"`` anywhere in the template is
    replaced by ``point[name]``; the grid point itself becomes the
    spec's row tags.
    """

    def subst(value: Any) -> Any:
        if isinstance(value, str) and value.startswith("$"):
            name = value[1:]
            if name not in point:
                raise ConfigurationError(
                    f"template references ${name} but the grid has no "
                    f"key {name!r} (keys: {sorted(point)})")
            return point[name]
        if isinstance(value, dict):
            return {k: subst(v) for k, v in value.items()}
        if isinstance(value, list):
            return [subst(v) for v in value]
        return value

    resolved = {k: subst(v) for k, v in dict(template).items()}
    resolved.setdefault("tags", {})
    resolved["tags"] = {**dict(point), **dict(resolved["tags"])}
    try:
        return TrialSpec(**resolved)
    except TypeError as exc:
        raise ConfigurationError(f"bad spec template: {exc}") from None


def _expand_seeds(seeds: Any) -> List[int]:
    if isinstance(seeds, dict):
        from ..simnet.rng import derive_seeds

        return derive_seeds(int(seeds.get("root", 0)),
                            int(seeds.get("count", 1)))
    if isinstance(seeds, list):
        return [int(s) for s in seeds]
    raise ConfigurationError(
        'sweep "seeds" must be a list of ints or {"root": R, "count": C}')


def load_sweep_file(path: str) -> List[Cell]:
    """Parse a sweep description file into executor cells."""
    from ..harness.sweeps import grid_points

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "spec" not in doc:
        raise ConfigurationError(f'{path}: missing "spec" template')
    grid = doc.get("grid", {})
    seeds = _expand_seeds(doc.get("seeds", [1]))
    cells: List[Cell] = []
    for point in grid_points(grid):
        spec = spec_from_template(doc["spec"], point)
        cells.extend((spec, seed) for seed in seeds)
    return cells


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-exec",
        description="Parallel, cached, resumable experiment execution.")
    sub = parser.add_subparsers(dest="verb")

    run = sub.add_parser("run", help="execute a sweep description file")
    run.add_argument("sweep", help="sweep JSON file (grid + seeds + spec)")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="worker processes (1 = serial)")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="content-addressed result cache directory")
    run.add_argument("--journal", default=None, metavar="FILE",
                     help="append-only JSONL checkpoint file")
    run.add_argument("--resume", action="store_true",
                     help="replay the journal; execute only missing cells")
    run.add_argument("--on-error", choices=("raise", "record"),
                     default="raise",
                     help="abort on a failing cell, or record an "
                          "error column and continue")
    run.add_argument("--out", default=None, metavar="FILE",
                     help="write rows as JSON (atomic rename)")
    run.add_argument("--no-progress", action="store_true",
                     help="suppress the live status line")
    run.add_argument("--events", default=None, metavar="DIR",
                     help="record per-trial JSONL event streams under DIR "
                          "and merge them into DIR/events.jsonl (cached "
                          "cells execute no trial, so they emit no "
                          "events); see docs/OBSERVABILITY.md")
    from ..simnet.engine import ENGINES

    run.add_argument("--engine", default=None, choices=ENGINES,
                     help="engine for every trial (exported as "
                          "REPRO_ENGINE so worker processes inherit it; "
                          "all choices produce identical rows)")

    sub.add_parser("builders",
                   help="list registered schedule/node/oracle builders")

    cache = sub.add_parser("cache", help="inspect or clear a result cache")
    cache.add_argument("--dir", required=True, metavar="DIR",
                       help="cache directory")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached entry")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cells = load_sweep_file(args.sweep)
    if args.engine:
        import os

        # The environment variable is the spawn-safe channel: worker
        # processes inherit it.
        os.environ["REPRO_ENGINE"] = args.engine
    if args.events:
        import os

        from ..obs.recorder import set_events_dir

        os.makedirs(args.events, exist_ok=True)
        set_events_dir(args.events)  # exported; worker processes inherit
    executor = ParallelExecutor(
        workers=args.workers,
        cache=args.cache_dir,
        journal=args.journal,
        resume=args.resume,
        on_error=args.on_error,
        progress=None if args.no_progress else ConsoleProgress("run"),
    )
    report = executor.run(cells)
    print(report.summary())
    if args.events:
        from ..obs.merge import merge_event_streams

        merged, summary = merge_event_streams(args.events)
        print(f"events -> {merged}: {summary.render()}")
    if args.out:
        path = write_rows_atomic(args.out, report.rows,
                                 meta={"sweep": args.sweep,
                                       "workers": args.workers})
        print(f"rows -> {path}")
    else:
        for row in report.rows:
            print(json.dumps(row, default=str))
    return 1 if report.errors else 0


def _cmd_builders() -> int:
    for kind, names in [("schedules", schedule_builders()),
                        ("nodes", node_builders()),
                        ("oracles", oracle_builders())]:
        print(f"{kind}:")
        for name in names:
            print(f"  {name}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.dir)
    entries = len(cache)
    print(f"{args.dir}: {entries} entries, {cache.size_bytes()} bytes "
          f"(salt {cache.salt!r})")
    if args.clear:
        print(f"cleared {cache.clear()} entries")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    if args.verb == "run":
        return _cmd_run(args)
    if args.verb == "builders":
        return _cmd_builders()
    if args.verb == "cache":
        return _cmd_cache(args)
    _parser().print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

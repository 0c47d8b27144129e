"""``repro-experiments`` — regenerate the evaluation from the command line.

Examples::

    repro-experiments --quick t1 f1          # fast smoke of two experiments
    repro-experiments --all --out results/   # the full reconstructed eval
    repro-experiments f3 --workers 4 --cache-dir .repro-cache
    repro-experiments --list

The requested experiments form one evaluation graph
(:func:`~repro.harness.experiments.run_experiments`): their cells go to
one :class:`~repro.exec.ParallelExecutor` run, so a cell that several
experiments share executes once, and each experiment is then derived
from its rows.  ``[cells finished in Xs]`` times that run, followed by
the requested, unique, executed and cached cell counts; each
``[<id> finished in Ys]`` times only that experiment's derivation.
``--workers`` fans the cells out across worker processes and
``--cache-dir`` content-addresses completed rows on disk, so a rerun —
after an interrupt too — executes only the missing cells.  Parallel
rows are byte-identical to serial rows.

``--profile`` turns on the engine's per-phase timing (see
``docs/PERFORMANCE.md``): every freshly executed trial's row carries
``compose`` / ``reveal`` / ``deliver`` / ``drain`` wall-clock totals and
per-tier round counts.  Each experiment's ``[profile]`` line sums them
over its own rows, counting a shared cell under every experiment that
uses it; a last line sums them once per executed cell.  The timings
never enter the content-addressed result cache (they are not
deterministic row data).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, Iterable, List, Optional

from ..exec import ConsoleProgress, ParallelExecutor
from ..simnet.engine import ENGINES
from .experiments import EXPERIMENTS, run_experiments
from .io import save_experiment

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=("Regenerate the tables and figures of the "
                     "reconstructed HJSWY SPAA'22 evaluation."))
    parser.add_argument("experiments", nargs="*",
                        help=f"experiment ids ({' '.join(EXPERIMENTS)})")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken sizes (smoke test)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also save artefacts under DIR")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--claims", action="store_true",
                        help="certify the reproduction claims against "
                             "saved results (use with --out DIR or the "
                             "default results/)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for the experiments' trials "
                             "(default 1 = serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache; reruns, "
                             "interrupted ones too, execute only missing "
                             "cells")
    parser.add_argument("--profile", action="store_true",
                        help="collect per-phase engine timings "
                             "(compose/reveal/deliver/drain) plus the "
                             "per-tier dispatch counts (batch kernels / "
                             "fast / reference) and print an aggregate "
                             "per experiment and for the whole run")
    parser.add_argument("--engine", default=None, choices=ENGINES,
                        help="engine for every simulator the experiments "
                             "construct (default: fast, with batch-kernel "
                             "dispatch; all choices produce identical "
                             "results; exported as REPRO_ENGINE)")
    parser.add_argument("--events", default=None, metavar="DIR",
                        help="record schema-validated JSONL event streams "
                             "(one trial-*.jsonl per trial) under DIR and "
                             "merge them into DIR/events.jsonl afterwards; "
                             "see docs/OBSERVABILITY.md")
    return parser


def _render_profile(rows: Iterable[Dict[str, Any]],
                    scope: str = "") -> str:
    """Summary of the per-phase timings and tier rounds *rows* carry."""
    trials = 0
    columns: Dict[str, float] = {}
    for row in rows:
        telemetry = {key: value for key, value in row.items()
                     if key.startswith(("phase.", "engine."))}
        trials += bool(telemetry)
        for key, value in telemetry.items():
            columns[key] = columns.get(key, 0) + value
    if trials == 0:
        return (f"[profile] {scope}no trials executed (cached rows carry no "
                "timings; rerun against a cold cache to measure)")
    phases: Dict[str, float] = {}
    tiers: Dict[str, float] = {}
    for key, value in sorted(columns.items()):
        if key.startswith("phase."):
            phases[key[len("phase."):-len("_s")]] = value
        else:
            tiers[key[len("engine."):-len("_rounds")]] = value
    grand = sum(phases.values()) or 1.0
    parts = ", ".join(
        f"{name} {value:.3f}s ({100 * value / grand:.0f}%)"
        for name, value in phases.items())
    line = f"[profile] {scope}{trials} trials: {parts}"
    if tiers:
        tier_parts = ", ".join(
            f"{tier} {rounds}" for tier, rounds in tiers.items())
        line += f"\n[profile] {scope}engine rounds by tier: {tier_parts}"
    return line


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    if args.list:
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0
    if args.claims:
        from .claims import check_claims, render_claims

        results_dir = args.out or "results"
        claims = check_claims(results_dir)
        print(render_claims(claims))
        return 0 if all(c.verdict != "FAILS" for c in claims) else 1
    ids = list(EXPERIMENTS) if args.all else [e.lower() for e in args.experiments]
    if not ids:
        _parser().print_help()
        return 2
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {sorted(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    if args.profile:
        from ..simnet.engine import set_profile_default

        set_profile_default(True)
    if args.engine:
        import os

        # Exported, so executor worker processes inherit it.
        os.environ["REPRO_ENGINE"] = args.engine
    if args.events:
        import os

        from ..obs.recorder import set_events_dir

        os.makedirs(args.events, exist_ok=True)
        set_events_dir(args.events)
    executor = ParallelExecutor(
        workers=args.workers, cache=args.cache_dir,
        progress=ConsoleProgress("cells") if args.workers > 1 else None)
    started = time.perf_counter()
    run = run_experiments(ids, quick=args.quick, executor=executor)
    cells_s = (time.perf_counter() - started
               - sum(run.derive_seconds.values()))
    report = run.report
    print(f"[cells finished in {cells_s:.1f}s]")
    print(f"[cells: {report.total} requested, "
          f"{report.total - report.deduped} unique, "
          f"{report.executed} executed, {report.cache_hits} cached]\n")
    for exp_id, result in run.results.items():
        print(result.render())
        print(f"[{exp_id} finished in {run.derive_seconds[exp_id]:.1f}s]\n")
        if args.profile:
            print(_render_profile(run.rows[exp_id]))
            print()
        if args.out:
            path = save_experiment(result, args.out)
            print(f"[saved to {path}]\n")
    if args.profile:
        # One row per content address: a shared cell counts once here.
        unique = {spec.key(seed): row
                  for (spec, seed), row in zip(run.cells, report.rows)}
        print(_render_profile(unique.values(), scope="total: "))
        print()
    if args.events:
        from ..obs.merge import merge_event_streams

        merged, summary = merge_event_streams(args.events)
        print(f"[events merged to {merged}: {summary.render()}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

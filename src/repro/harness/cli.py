"""``repro-experiments`` — regenerate the evaluation from the command line.

Examples::

    repro-experiments --quick t1 f1          # fast smoke of two experiments
    repro-experiments --all --out results/   # the full reconstructed eval
    repro-experiments f3 --workers 4 --cache-dir .repro-cache --resume
    repro-experiments --list

``--workers/--cache-dir/--resume`` configure the :mod:`repro.exec`
executor, which runs every experiment's simulations: the measurement
cells fan out across worker processes, completed rows are
content-addressed on disk, and an interrupted run re-executes only the
missing cells.  Parallel rows are byte-identical to serial rows.

``--profile`` turns on the engine's per-phase timing (see
``docs/PERFORMANCE.md``): every freshly executed trial's row carries
``compose`` / ``reveal`` / ``deliver`` / ``drain`` wall-clock totals and
per-tier round counts, the executor sums them per experiment
(:func:`repro.exec.executor.collect_telemetry`), and that sum is
printed after each experiment.  The timings never enter the
content-addressed result cache (they are not deterministic row data).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from ..exec.executor import ExecOptions, TelemetryFold, collect_telemetry
from ..simnet.engine import ENGINES
from .experiments import EXPERIMENTS, run_experiment, run_f1, run_f5, run_t1
from .io import save_experiment

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=("Regenerate the tables and figures of the "
                     "reconstructed HJSWY SPAA'22 evaluation."))
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (t1 f1 f2 f3 f4 t2 f5 f6 t3)")
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
                        help="content-addressed result cache; reruns "
                             "execute only missing cells")
    parser.add_argument("--resume", action="store_true",
                        help="resume interrupted runs from the journal "
                             "kept under CACHE_DIR")
    parser.add_argument("--profile", action="store_true",
                        help="collect per-phase engine timings "
                             "(compose/reveal/deliver/drain) plus the "
                             "per-tier dispatch counts (batch kernels / "
                             "fast / reference) and print an aggregate "
                             "after each experiment")
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


def _render_profile(fold: TelemetryFold) -> str:
    """Summary of one experiment's per-phase timings and tier rounds."""
    if fold.trials == 0:
        return ("[profile] no trials executed (cached/resumed rows carry "
                "no timings; rerun against a cold cache to measure)")
    phases: Dict[str, float] = {}
    tiers: Dict[str, float] = {}
    for key, value in sorted(fold.columns.items()):
        if key.startswith("phase."):
            phases[key[len("phase."):-len("_s")]] = value
        else:
            tiers[key[len("engine."):-len("_rounds")]] = value
    grand = sum(phases.values()) or 1.0
    parts = ", ".join(
        f"{name} {value:.3f}s ({100 * value / grand:.0f}%)"
        for name, value in phases.items())
    line = f"[profile] {fold.trials} trials: {parts}"
    if tiers:
        tier_parts = ", ".join(
            f"{tier} {rounds}" for tier, rounds in tiers.items())
        line += f"\n[profile] engine rounds by tier: {tier_parts}"
    return line


def _exec_options(args: argparse.Namespace) -> Optional[ExecOptions]:
    if args.workers <= 1 and not args.cache_dir and not args.resume:
        return None
    if args.resume and not args.cache_dir:
        raise SystemExit("--resume needs --cache-dir (the journal lives "
                         "under the cache directory)")
    journal_dir = None
    if args.cache_dir:
        import os

        journal_dir = os.path.join(args.cache_dir, "journals")
    return ExecOptions(
        workers=args.workers,
        cache_dir=args.cache_dir,
        journal_dir=journal_dir,
        resume=args.resume,
        progress=args.workers > 1,
    )


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
    exec_opts = _exec_options(args)

    # T1 feeds F1 and F5; share its rows when several are requested.
    # Its trials count under T1 only.
    t1_cache = None
    t1_seconds = 0.0
    t1_fold = TelemetryFold()
    if "t1" in ids or ("f1" in ids and "f5" in ids):
        started = time.time()
        with collect_telemetry() as t1_fold:
            t1_cache = run_t1(quick=args.quick, exec_opts=exec_opts)
        t1_seconds = time.time() - started

    for exp_id in ids:
        started = time.time()
        with collect_telemetry() as fold:
            if exp_id == "t1" and t1_cache is not None:
                result = t1_cache
            elif exp_id == "f1" and t1_cache is not None:
                result = run_f1(quick=args.quick, t1=t1_cache,
                                exec_opts=exec_opts)
            elif exp_id == "f5" and t1_cache is not None:
                result = run_f5(quick=args.quick, t1=t1_cache,
                                exec_opts=exec_opts)
            else:
                result = run_experiment(exp_id, quick=args.quick,
                                        exec_opts=exec_opts)
        elapsed = time.time() - started
        if exp_id == "t1":
            elapsed += t1_seconds
            fold = t1_fold
        print(result.render())
        print(f"[{exp_id} finished in {elapsed:.1f}s]\n")
        if args.profile:
            print(_render_profile(fold))
            print()
        if args.out:
            path = save_experiment(result, args.out)
            print(f"[saved to {path}]\n")
    if args.events:
        from ..obs.merge import merge_event_streams

        merged, summary = merge_event_streams(args.events)
        print(f"[events merged to {merged}: {summary.render()}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

#!/usr/bin/env python
"""Time whole ``repro-experiments`` runs, repeated, and record the spread.

Runs ``repro-experiments <ids|--all> [--quick] --out TMP``
(``repro.harness.cli.main`` from a checkout's ``src/``) *k* times per
checkout, alternating between checkouts so slow spells on a shared
machine hit every side alike.  For each side it records the wall seconds
of every run, their median and spread (max - min), the seconds of each
``[<id> finished in Xs]`` line, each run's peak resident set size,
and a sha256 over the files each run wrote, so two sides can be checked
byte-identical.  A run's peak RSS is read in the child when the CLI
returns: the larger of the CLI process's own high-water mark and that of
its largest reaped child process.  Given two sides, it also records
their ratio (change/parent when the sides are given in that order): the
median of the per-pair ratios, run *k* of the second side over run *k*
of the first, with a 95% percentile-bootstrap interval from the pair
ratios resampled with replacement, 10,000 times, from a fixed seed.
The same runs always give the same interval, and drift that slows both
runs of a pair cancels in their ratio.  An interval that excludes 1.0
is a difference the runs can tell from noise.  The record is merged
into ``results/BENCH_e2e.json`` under the run's arguments and the
side's label; ``repro.report`` does not read that file.

The CLI runs every requested experiment's cells in one executor pass,
printed as ``[cells finished in Xs]`` and recorded under ``cells``; the
per-experiment seconds are then each experiment's ``derive`` time only.
Checkouts whose CLI ran and timed each experiment separately print no
``cells`` line, and their per-experiment seconds include the runs.

Usage::

    python tools/time_runs.py t1
    python tools/time_runs.py --all --quick --runs 5 \\
        --side parent=../parent-checkout --side change=.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_FINISHED = re.compile(r"^\[(\w+) finished in ([0-9.]+)s\]$", re.MULTILINE)
_PEAK_RSS = re.compile(r"^\[peak rss kb (\d+)\]$", re.MULTILINE)

#: Bootstrap resamples behind the ratio interval, and their fixed seed.
RESAMPLES = 10_000
SEED = 0

#: The child: the CLI's ``main``, then the larger of its own peak RSS and
#: its largest reaped child's (``ru_maxrss`` is in KiB on Linux).
_CHILD = (
    "import resource, sys\n"
    "from repro.harness.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('[peak rss kb %d]' % max(resource.getrusage(who).ru_maxrss"
    " for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))\n"
    "sys.exit(code)\n")


def tree_digest(directory: str) -> str:
    """sha256 over every file under *directory*: relative paths and bytes."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_once(checkout: str, run_args: List[str]) -> Dict[str, object]:
    """One timed run of the CLI from *checkout* into a fresh directory."""
    out = tempfile.mkdtemp(prefix="time-runs-")
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    try:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, *run_args, "--out", out],
            cwd=checkout, env=env, check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        seconds = time.perf_counter() - started
        return {"seconds": seconds,
                "peak_rss_mb": int(_PEAK_RSS.findall(proc.stdout)[-1]) / 1024,
                "experiments": {exp: float(s) for exp, s
                                in _FINISHED.findall(proc.stdout)},
                "digest": tree_digest(out)}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def summarize(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """Median and spread of the total and per-experiment seconds, and
    each run's peak RSS with their median."""
    def stats(values: List[float]) -> Dict[str, object]:
        return {"runs_s": [round(v, 2) for v in values],
                "median_s": round(statistics.median(values), 2),
                "spread_s": round(max(values) - min(values), 2)}

    digests = sorted({run["digest"] for run in runs})
    return {
        **stats([run["seconds"] for run in runs]),
        "peak_rss_runs_mb": [round(run["peak_rss_mb"], 1) for run in runs],
        "peak_rss_median_mb": round(
            statistics.median(run["peak_rss_mb"] for run in runs), 1),
        "experiments": {exp: stats([run["experiments"][exp] for run in runs])
                        for exp in runs[0]["experiments"]},
        "output_sha256": digests[0] if len(digests) == 1 else digests,
    }


def ratio_interval(base: List[float], other: List[float]
                   ) -> Dict[str, object]:
    """The median per-pair ratio ``other[k] / base[k]`` and its 95%
    bootstrap interval.

    The runs alternate, so run *k* of each side makes a pair that met
    the same state of the machine, and drift that slows both cancels in
    their ratio.  Each of :data:`RESAMPLES` resamples draws
    ``len(base)`` pair ratios with replacement from a
    ``random.Random(SEED)`` stream; the interval is the 2.5th and
    97.5th percentiles of the resampled medians.
    """
    if len(base) != len(other):
        raise ValueError(f"{len(base)} runs against {len(other)}: "
                         "ratios need pairs")
    pairs = [b / a for a, b in zip(base, other)]
    rng = random.Random(SEED)
    ratios = sorted(statistics.median(rng.choices(pairs, k=len(pairs)))
                    for _ in range(RESAMPLES))
    cuts = statistics.quantiles(ratios, n=40, method="inclusive")
    low, high = cuts[0], cuts[-1]  # the 2.5th and 97.5th percentiles
    return {"median_ratio": round(statistics.median(pairs), 4),
            "ci95": [round(low, 4), round(high, 4)],
            "resamples": RESAMPLES, "seed": SEED}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("experiments", nargs="*", help="experiment ids")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per side (default 5)")
    parser.add_argument("--side", action="append", metavar="LABEL=CHECKOUT",
                        help="a checkout to time under LABEL (repeatable; "
                             "default: change=<this checkout>)")
    parser.add_argument("--machine", default="",
                        help="hardware the runs were timed on")
    parser.add_argument("--record",
                        default=os.path.join(ROOT, "results", "BENCH_e2e.json"))
    args = parser.parse_args(argv)
    if not (args.all or args.experiments):
        parser.error("name experiment ids or pass --all")
    run_args = (["--all"] if args.all else args.experiments) \
        + (["--quick"] if args.quick else [])
    sides = dict(side.split("=", 1) for side in args.side or [f"change={ROOT}"])

    runs: Dict[str, List[Dict[str, object]]] = {label: [] for label in sides}
    for k in range(args.runs):
        for label, checkout in sides.items():
            run = run_once(os.path.abspath(checkout), run_args)
            runs[label].append(run)
            print(f"[{label} run {k + 1}/{args.runs}: "
                  f"{run['seconds']:.1f}s]", file=sys.stderr)

    record: Dict[str, object] = {}
    if os.path.exists(args.record):
        with open(args.record) as fh:
            record = json.load(fh)
    entry = record.setdefault(" ".join(run_args), {
        "command": "repro-experiments " + " ".join(run_args) + " --out TMP"})
    if args.machine:
        entry["machine"] = args.machine
    for label, side_runs in runs.items():
        entry[label] = summarize(side_runs)
        print(f"{label}: median {entry[label]['median_s']}s, "
              f"spread {entry[label]['spread_s']}s, peak RSS "
              f"{entry[label]['peak_rss_median_mb']} MB")
    entry.pop("ratio", None)  # a ratio of earlier runs no longer holds
    if len(runs) == 2:
        (base_label, base), (other_label, other) = runs.items()
        ratio = ratio_interval([run["seconds"] for run in base],
                               [run["seconds"] for run in other])
        entry["ratio"] = {"of": f"{other_label}/{base_label}", **ratio}
        print(f"{other_label}/{base_label}: {ratio['median_ratio']} "
              f"(95% CI {ratio['ci95'][0]}-{ratio['ci95'][1]})")
    with open(args.record, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

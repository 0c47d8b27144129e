#!/usr/bin/env python
"""Time whole ``repro-experiments`` runs, repeated, and record the spread.

Runs ``repro-experiments <ids|--all> [--quick] --out TMP`` (as
``python -m repro.harness.cli`` on a checkout's ``src/``) *k* times per
checkout, alternating between checkouts so slow spells on a shared
machine hit every side alike.  For each side it records the wall seconds
of every run, their median and spread (max - min), each experiment's
``[<id> finished in Xs]`` seconds, and a sha256 over the files each run
wrote, so two sides can be checked byte-identical.  The record is merged
into ``results/BENCH_e2e.json`` under the run's arguments and the side's
label; ``repro.report`` does not read that file.

Usage::

    python tools/time_runs.py t1
    python tools/time_runs.py --all --quick --runs 3 \\
        --side parent=../parent-checkout --side change=.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
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
            [sys.executable, "-m", "repro.harness.cli", *run_args,
             "--out", out],
            cwd=checkout, env=env, check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        seconds = time.perf_counter() - started
        return {"seconds": seconds,
                "experiments": {exp: float(s) for exp, s
                                in _FINISHED.findall(proc.stdout)},
                "digest": tree_digest(out)}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def summarize(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """Median and spread of the total and per-experiment seconds."""
    def stats(values: List[float]) -> Dict[str, object]:
        return {"runs_s": [round(v, 2) for v in values],
                "median_s": round(statistics.median(values), 2),
                "spread_s": round(max(values) - min(values), 2)}

    digests = sorted({run["digest"] for run in runs})
    return {
        **stats([run["seconds"] for run in runs]),
        "experiments": {exp: stats([run["experiments"][exp] for run in runs])
                        for exp in runs[0]["experiments"]},
        "output_sha256": digests[0] if len(digests) == 1 else digests,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("experiments", nargs="*", help="experiment ids")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per side (default 3)")
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
              f"spread {entry[label]['spread_s']}s")
    with open(args.record, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
